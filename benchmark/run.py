"""dephaselab benchmark entry point.

    python3 benchmark/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Workloads: grid-sweep, lemma-check, single-shot (see README.md).
--trace 0 reports the end-to-end metrics from cold subprocesses;
--trace 1 reports the per-layer metrics from a traced in-process run.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is
the run record. Exits 2 without a result outside a dephaselab checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from threads import pin_blas_threads

WORKLOADS = ("grid-sweep", "lemma-check", "single-shot")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dephaselab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_blas_threads()
    import bench  # loads numpy, so only after pinning the pools

    if not bench.is_checkout():
        print(f"error: {bench.ROOT} is not a dephaselab checkout (needs src/dephaselab and tests/golden)",
              file=sys.stderr)
        return 2
    result, record = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
