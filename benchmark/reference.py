"""Fixed reference task that measures the machine's current speed.

    python3 benchmark/reference.py ROUNDS

Starts an interpreter, imports numpy and runs ROUNDS rounds of the kind
of work dephaselab does: partial transposes of a 9x9 Hermitian matrix
by reshape, small eigensolves and a little Python arithmetic. It reads
nothing from the checkout, so its time changes with the machine and not
with the program. bench.py runs it after every measured invocation and
reports the program's times as multiples of its median. Prints the
number of rounds and a checksum.
"""

import sys

import numpy as np


def main() -> None:
    rounds = int(sys.argv[1])
    rng = np.random.default_rng(0)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    total = 0.0
    for i in range(rounds):
        m = mat * (1.0 + 1e-9 * i)
        pt = m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        total += float(np.linalg.eigvalsh(pt)[0]) + float(np.linalg.eigvalsh(m)[-1])
        total += sum(k * 1e-3 for k in range(12))
    print(rounds, f"{total:.6f}")


if __name__ == "__main__":
    main()
