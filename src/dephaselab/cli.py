"""Batch command-line surface.

Subcommands:

* evolve      - evolve one state, emit it as JSON
* classify    - verdict line plus witness metrics as JSON
* sweep       - CSV grids of witnesses, fidelity curves or verdicts
* thresholds  - JSON table of the family's transition times
* verify-lemmas - run the certified-claim checks, exit 1 on any failure

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags,
unreadable or malformed input files, malformed ranges), 3 content
validation failure (parameters or matrices outside the physical domain):
exactly the errors that subclass linalg.DomainError.
All results go to standard output, diagnostics to standard error; output
is byte-identical across reruns with identical flags and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import channels, criteria, family
from .channels import GROUND_EXCITED, evolve
from .linalg import TOL, DomainError
from .qstate import DensityMatrix, random_state, state_from_json, state_to_json


class UsageError(Exception):
    """Maps to exit code 2."""


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _load_state_file(path: str) -> DensityMatrix:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read state file {path}: {exc}") from exc
    try:
        return state_from_json(text)
    except DomainError as exc:
        raise DomainError(f"invalid state in {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed state file {path}: {exc}") from exc


def _base_state(initial: str, alpha: float) -> DensityMatrix:
    """rho, rho-prime or a state file: the one validated state a command
    dephases, built once per command. Every evolved state is a mask of it
    and needs no check of its own."""
    if initial == "rho":
        return family.initial_state(alpha)
    if initial == "rho-prime":
        return family.swapped_state(alpha)
    return _load_state_file(initial)


# States evaluated as one stack: the grid points of a sweep, the random
# samples of verify-lemmas. Larger chunks spread numpy's per-call cost
# over more states; a chunk's (64, 9, 9) complex stack is 81 KiB. Each
# step of the sampled loop builds its result in place, so a chunk peaks
# at about four such stacks. Against 128 states, 64 lower verify-lemmas'
# peak RSS by about 0.3 MiB for about 2 ms more loop time per 1000
# samples (25.2 against 23.2 ms in process); 32 cost about 6.7 ms more.
STACK_CHUNK = 64


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_evolve(args: argparse.Namespace) -> int:
    state = evolve(_base_state(args.initial, args.alpha), GROUND_EXCITED, args.gamma_a, args.gamma_b, args.t)
    print(state_to_json(state))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    import json

    state = evolve(_base_state(args.initial, args.alpha), GROUND_EXCITED, args.gamma_a, args.gamma_b, args.t)
    blocks = family.certificate_blocks() if args.certificate == "three-block" else None
    result = criteria.classify(state, blocks)
    print(result.verdict.value)
    metrics = {
        "verdict": result.verdict.value,
        "min_pt_eigenvalue": result.min_pt_eigenvalue,
        "realignment_excess": result.realignment_excess,
        "certificate_passed": result.certificate_passed,
    }
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _grid(spec: list[float], what: str) -> list[float]:
    start, end, steps = spec
    if not all(math.isfinite(x) for x in spec):
        raise UsageError(f"{what} range must be finite, got {spec}")
    if steps != int(steps) or int(steps) < 2:
        raise UsageError(f"{what} range needs an integer step count >= 2, got {steps}")
    if not start < end:
        raise UsageError(f"{what} range needs start < end, got {start} >= {end}")
    try:
        grid = np.linspace(start, end, int(steps)).tolist()
    except (ValueError, IndexError, MemoryError) as exc:  # numpy refuses a count it cannot index or allocate
        raise UsageError(f"{what} range step count {int(steps)} is more than numpy can hold") from exc
    if min(grid) < 0:
        raise UsageError(f"{what} range must be nonnegative")
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    ts = _grid(args.t_range, "t")
    if args.gamma is not None and args.gamma_range is not None:
        raise UsageError("pass either --gamma or --gamma-range, not both")
    if args.gamma_range is not None:
        gammas = _grid(args.gamma_range, "gamma")
    else:
        gammas = [1.0 if args.gamma is None else args.gamma]
    if args.quantity == "fidelity":
        rows = [["t", "gamma", "f_rho", "f_rho_prime"]] + [
            [_fmt(t), _fmt(g), _fmt(family.fidelity_initial(g, t)), _fmt(family.fidelity_swapped(g, t))]
            for t in ts for g in gammas
        ]
    else:
        base = _base_state(args.initial, args.alpha)
        blocks = family.certificate_blocks() if args.initial == "rho" else None
        cells = {
            "pt-min-eig": lambda s: [_fmt(v) for v in criteria.min_pt_eigenvalue(s).tolist()],
            "realignment": lambda s: [_fmt(v) for v in criteria.realignment_excess(s).tolist()],
            "verdict": lambda s: [c.verdict.value for c in criteria.classify(s, blocks)],
        }[args.quantity]
        points = [(t, g) for t in ts for g in gammas]
        rows = [["t", "gamma", "verdict" if args.quantity == "verdict" else "value"]]
        for start in range(0, len(points), STACK_CHUNK):
            chunk = points[start:start + STACK_CHUNK]
            times, rates = zip(*chunk)
            evolved = evolve(base, GROUND_EXCITED, rates, rates, times)
            rows += [[_fmt(t), _fmt(g), cell] for (t, g), cell in zip(chunk, cells(evolved))]
    # Written only once every row exists, so a failing sweep prints nothing.
    # No cell holds a comma, a quote or a newline, so no cell needs quoting.
    print("\n".join(map(",".join, rows)))
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    """Print the family's transition times as JSON: a float, "inf" where
    the transition never happens, or null where it is undefined (no PPT
    onset exists for alpha <= 4)."""
    import json

    alpha, gamma = args.alpha, args.gamma
    base = family.initial_state(alpha)
    blocks = family.certificate_blocks()

    def evolved(t: float) -> DensityMatrix:
        return evolve(base, GROUND_EXCITED, gamma, gamma, t)

    def certificate_margin(t: float) -> float:
        result = criteria.separability_certificate(evolved(t), blocks)
        return min(map(min, result.block_minima))

    t_d_numeric, realignment_zero = criteria.transition_times(evolved, gamma)
    report = {
        "alpha": alpha,
        "gamma": gamma,
        "t_d_analytic": family.ppt_onset_time(alpha, gamma),
        "t_d_numeric": t_d_numeric,
        "realignment_zero": realignment_zero,
        "certificate_onset": criteria.crossing_time(certificate_margin, gamma),
    }
    report = {key: "inf" if value == math.inf else value for key, value in report.items()}
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _verify_checks(seed: int, samples: int, inject_fault: bool):
    """Yield (name, passed, detail) for every certified-claim check.

    Each kind of claim is one table of rows and one loop over it."""
    alpha = 4.5
    rho0 = family.initial_state(alpha)
    rho_prime0 = family.swapped_state(alpha)
    onset = family.ppt_onset_time(alpha, 1.0)

    def at(state: DensityMatrix, t: float) -> DensityMatrix:
        return evolve(state, GROUND_EXCITED, 1.0, 1.0, t)

    # (claim, probe witness, whether the probe must certify entanglement)
    for name, witness, entangled in (
        ("one-sided probe certifies the swapped family (side B, t=1)",
         family.one_sided_probe(at(rho_prime0, 1.0), "B"), True),
        ("one-sided probe certifies the swapped family (side A, t=1)",
         family.one_sided_probe(at(rho_prime0, 1.0), "A"), True),
        (f"one-sided probe flags the unswapped family before its PPT onset (t=0.3 < {onset:.4f})",
         family.one_sided_probe(at(rho0, 0.3), "B"), True),
        (f"one-sided probe declines the unswapped family after its PPT onset (t=1.0 > {onset:.4f})",
         family.one_sided_probe(at(rho0, 1.0), "B"), False),
        ("two-sided probe certifies the swapped family for all finite time",
         family.two_sided_probe(rho_prime0), True),
        ("two-sided probe declines the unswapped family", family.two_sided_probe(rho0), False),
    ):
        yield name, (witness < -TOL.verdict) == entangled, f"witness {witness:.6g}"

    evolved = at(rho_prime0, [k * 0.5 for k in range(21)])
    worst = float(np.max(family.two_sided_probe(evolved)))
    yield "swapped family witness stays negative on t in [0, 10]", worst < -TOL.verdict, f"max witness {worst:.6g}"

    # (claim, coefficient matrix, whether the evolved state must be entangled and distillable)
    for name, a, entangled in (
        ("maximally correlated state (d=3, uniform): pattern kept, entangled, distillable",
         np.full((3, 3), 1.0 / 3), True),
        ("maximally correlated state (d=4, uniform): pattern kept, entangled, distillable",
         np.full((4, 4), 1.0 / 4), True),
        ("maximally correlated state with diagonal coefficients stays separable", np.diag([0.2, 0.3, 0.5]), False),
    ):
        report = family.mc_report(family.McSpec(a), 1.0, 1.0, 0.7)
        detail = f"deviation {report.mc_deviation:.3g}" + (f", witness {report.witness_value}" if entangled else "")
        yield name, report.still_mc and report.entangled == entangled and report.distillable == entangled, detail

    # (claim, state, labels on each side, whether a maximally correlated block must be found)
    plus = family.mc_state(family.McSpec(np.full((3, 3), 1.0 / 3)))
    for name, state, labels, found in (
        ("projection reads a maximally correlated block off the uniform state", plus, (0, 1), True),
        ("projection strictness declines the unswapped family corner", rho0, (1, 2), False),
        ("projection strictness declines the swapped family corner", rho_prime0, (1, 2), False),
    ):
        yield name, (family.mc_projection(state, labels, labels) is not None) == found, ""

    separable, distillable = family.LimitVerdict.SEPARABLE_LIMIT, family.LimitVerdict.DISTILLABLE_LIMIT
    for name, state, expected in (
        ("infinite-time limit of the unswapped family is separable", rho0,
         distillable if inject_fault else separable),
        ("infinite-time limit of the swapped family stays distillable", rho_prime0, distillable),
    ):
        verdict = family.limit_verdict(state)
        yield name, verdict == expected, f"got {verdict.value}"

    bad = sum((_violations(chunk) for chunk in _sample_witnesses(seed, samples)), np.zeros(3, dtype=int))
    for name, count in zip((
        f"no random infinite-time limit is PPT-entangled-witnessed ({samples} samples)",
        f"two-sided probe verdicts imply NPT parents ({samples} samples)",
        f"one-sided probe verdicts imply NPT evolved parents ({samples} samples, t=0.7)",
    ), bad):
        yield name, count == 0, f"{count} violations"


def _sample_witnesses(seed: int, samples: int):
    """Yield verify-lemmas' witnesses on `samples` random full-rank qutrit
    pairs drawn from `seed`, STACK_CHUNK states at a time.

    Each chunk is a dict of arrays with one entry per state: the limit
    entries describe the infinite-time limit, parent_pt_min the state
    itself and evolved_pt_min the state at t = 0.7. A probe's witness is
    NaN where its projection carries no weight.

    Each claim is a conjunction of two witnesses, so the second is taken
    only where the first fires, and is NaN elsewhere: limit_pt_min where
    limit_excess exceeds TOL.verdict, parent_pt_min where two_sided and
    evolved_pt_min where one_sided is below -TOL.verdict. A NaN fails
    every test of _violations, so the counts are those of the full
    computation.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, samples, STACK_CHUNK):
        states = random_state(rng, family.QUTRIT_PAIR, min(STACK_CHUNK, samples - start))
        # Each derived stack is freed once its witnesses are taken, so at
        # most one is alive beside the samples, and none during the next
        # chunk's draw. One dephasing serves both evolved witnesses.
        lim = channels.infinite_limit(states)
        limit_excess = criteria.realignment_excess(lim)
        limit_pt_min = _pt_min_where(limit_excess > TOL.verdict, lim)
        del lim
        two_sided = family.two_sided_probe(states)
        parent_pt_min = _pt_min_where(two_sided < -TOL.verdict, states)
        evolved = evolve(states, GROUND_EXCITED, 1.0, 1.0, 0.7)
        one_sided = family.one_sided_probe(evolved, "B")
        evolved_pt_min = _pt_min_where(one_sided < -TOL.verdict, evolved)
        del evolved
        yield {
            "limit_excess": limit_excess,
            "limit_pt_min": limit_pt_min,
            "two_sided": two_sided,
            "parent_pt_min": parent_pt_min,
            "one_sided": one_sided,
            "evolved_pt_min": evolved_pt_min,
        }


def _pt_min_where(mask: np.ndarray, state: DensityMatrix) -> np.ndarray:
    """min_pt_eigenvalue of the members of the stack state that the
    boolean mask selects, NaN for the others; no eigensolve when it
    selects none."""
    values = np.full(len(mask), np.nan)
    if mask.any():
        subset = state.mat[mask]
        subset.setflags(write=False)  # fresh, so DensityMatrix holds it without a copy
        values[mask] = criteria.min_pt_eigenvalue(DensityMatrix(subset, state.dims))
    return values


def _violations(w: dict) -> np.ndarray:
    """States of one _sample_witnesses chunk that break each claim: a PPT
    limit the realignment witness calls entangled; an entangled two-sided
    probe of a PPT parent; an entangled one-sided probe of a PPT evolved
    parent. A NaN witness (a probe's, or a second witness that was not
    taken) counts as neither entangled nor PPT."""
    limit = (w["limit_pt_min"] >= -TOL.verdict) & (w["limit_excess"] > TOL.verdict)
    two = (w["two_sided"] < -TOL.verdict) & (w["parent_pt_min"] >= -TOL.verdict)
    one = (w["one_sided"] < -TOL.verdict) & (w["evolved_pt_min"] >= -TOL.verdict)
    return np.array([np.count_nonzero(limit), np.count_nonzero(two), np.count_nonzero(one)])


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    failures = 0
    total = 0
    for name, passed, detail in _verify_checks(args.seed, args.samples, args.inject_fault):
        total += 1
        if passed:
            print(f"[ok] {name}")
        else:
            failures += 1
            suffix = f": {detail}" if detail else ""
            print(f"[FAIL] {name}{suffix}")
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephaselab",
        description="Evolve bipartite qutrit states under local dephasing and classify their entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=float, default=4.5, help="family population parameter in (3, 5] (default 4.5)")
        p.add_argument("--gamma-a", dest="gamma_a", type=_nonneg_float, default=1.0, help="dephasing rate on side A (default 1)")
        p.add_argument("--gamma-b", dest="gamma_b", type=_nonneg_float, default=1.0, help="dephasing rate on side B (default 1)")
        p.add_argument("--t", type=_nonneg_float, required=True, help="evolution time")
        p.add_argument("--initial", default="rho", help="rho, rho-prime, or a state JSON file (default rho)")

    p = sub.add_parser("evolve", help="evolve one state and print it as JSON")
    add_state_flags(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("classify", help="print the entanglement verdict and witness metrics")
    add_state_flags(p)
    p.add_argument(
        "--certificate",
        choices=["three-block"],
        default=None,
        help="enable the family's three-block separability certificate",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="print a CSV grid over time (and optionally rate)")
    p.add_argument("--quantity", required=True, choices=["pt-min-eig", "realignment", "fidelity", "verdict"])
    p.add_argument("--alpha", type=float, default=4.5, help="family population parameter (default 4.5)")
    p.add_argument(
        "--t-range", dest="t_range", nargs=3, type=float, default=[0.0, 3.0, 121],
        metavar=("START", "END", "STEPS"), help="time grid (default 0 3 121)",
    )
    p.add_argument("--gamma", type=_nonneg_float, default=None, help="single symmetric rate (default 1)")
    p.add_argument(
        "--gamma-range", dest="gamma_range", nargs=3, type=float, default=None,
        metavar=("START", "END", "STEPS"), help="rate grid, e.g. 0.1 2 20 (excludes --gamma)",
    )
    p.add_argument("--initial", default="rho", help="rho, rho-prime, or a state JSON file (ignored for fidelity)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("thresholds", help="print the family's transition times as JSON")
    p.add_argument("--alpha", type=float, default=4.5, help="family population parameter (default 4.5)")
    p.add_argument("--gamma", type=_positive_float, default=1.0, help="symmetric dephasing rate (default 1)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("verify-lemmas", help="run the certified-claim checks")
    p.add_argument("--seed", type=_nonneg_int, default=42, help="random state seed (default 42)")
    p.add_argument("--samples", type=_nonneg_int, default=200, help="random states per section (default 200)")
    p.add_argument("--inject-fault", dest="inject_fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_lemmas)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry of `python -m dephaselab` and the installed script.

    Runs main, flushes stdout and stderr, then ends the process with
    os._exit: the interpreter's finalization (a full garbage collection
    and module teardown) and atexit callbacks are skipped, since the CLI
    leaves nothing but these two streams to finish. A stream that is
    None (closed at start-up) has nothing to flush. A stream whose reader
    has gone (`dephaselab sweep ... | head -1`) raises BrokenPipeError,
    from main or from the flush: the process then ends at once with
    status 141 (128 + SIGPIPE, what a shell reports for such a writer)
    and nothing on stderr. Any other failed flush, exception or
    SystemExit from main (usage errors, --help) takes the interpreter's
    normal exit, which reports it as it always has.
    """
    try:
        code = main()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except BrokenPipeError:
            raise
        except (OSError, ValueError):
            raise SystemExit(code)
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    run()
