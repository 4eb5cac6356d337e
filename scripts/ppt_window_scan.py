"""Scan the bound-entanglement window under general dephasing.

The ground/excited channel leaves a window where the evolved family is
PPT yet realignment-witnessed. Under general dephasing at a symmetric
rate g every family coherence changes level on both sides, so each one
keeps exp(-2*g*t), and the window has a closed form:

* PPT onset: t_d = ln(4 / (alpha * (5 - alpha))) / (4 * g);
* realignment zero: exp(-2*g*t) = (7 - sqrt(3*alpha^2 - 15*alpha + 19)) / 6;
* a window exactly when the realignment zero comes after t_d.

For each alpha this script evolves the family state with
channels.evolve under the GENERAL model, finds both times with
criteria.transition_times, the search behind `dephaselab thresholds`,
and prints the resulting window, if any; the test suite checks its
output against the closed form.
"""

import argparse

import numpy as np

from dephaselab.channels import GENERAL, evolve
from dephaselab.criteria import transition_times
from dephaselab.family import initial_state
from dephaselab.linalg import DomainError, check_nonneg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--alphas", type=float, nargs="+", default=list(np.arange(4.05, 5.001, 0.05)))
    args = parser.parse_args()
    gamma = args.gamma
    try:  # every input is checked before the first line is printed
        check_nonneg("--gamma", gamma, positive=True)
        bases = [initial_state(alpha) for alpha in args.alphas]
    except DomainError as exc:
        parser.error(str(exc))

    print(f"gamma = {gamma}")
    print(f"{'alpha':>8} {'t_ppt':>10} {'realign_zero':>13} {'window':>10}")
    for alpha, base in zip(args.alphas, bases):
        t_ppt, t_real = transition_times(lambda t: evolve(base, GENERAL, gamma, gamma, t), gamma)
        if t_ppt is None:
            window = "no PPT onset"
        elif t_real <= t_ppt:
            window = "empty"
        else:
            window = f"{t_real - t_ppt:.4f}"
        show = lambda v: f"{v:.6f}" if v is not None else "-"
        print(f"{alpha:>8.6f} {show(t_ppt):>10} {show(t_real):>13} {window:>10}")


if __name__ == "__main__":
    main()
