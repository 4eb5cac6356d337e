"""Regenerate the plot data files behind the standard figures.

Writes three CSVs into --out-dir, each the stdout of one sweep
subcommand: the minimum PT eigenvalue of the evolved family for the
decay rates 0.4, 0.7 and 1.0, the realignment excess along the rate-1
curve, and the two closed-form fidelity curves.
"""

import argparse
import contextlib
from pathlib import Path

from dephaselab import cli


def write_sweep(path: Path, args: list) -> None:
    with path.open("w", newline="") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(["sweep", *args])
    if code:
        raise SystemExit(code)
    rows = len(path.read_text().splitlines()) - 1
    print(f"wrote {path} ({rows} rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("figure_data"))
    parser.add_argument("--alpha", type=float, default=4.5)
    parser.add_argument("--t-max", type=float, default=3.0)
    parser.add_argument("--points", type=int, default=121)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    t_range = ["--t-range", "0", repr(args.t_max), str(args.points)]
    alpha = ["--alpha", repr(args.alpha)]
    write_sweep(
        args.out_dir / "pt_min_eig.csv",
        ["--quantity", "pt-min-eig", *alpha, *t_range, "--gamma-range", "0.4", "1.0", "3"],
    )
    write_sweep(args.out_dir / "realignment_excess.csv", ["--quantity", "realignment", *alpha, *t_range])
    write_sweep(args.out_dir / "fidelity.csv", ["--quantity", "fidelity", *t_range])


if __name__ == "__main__":
    main()
