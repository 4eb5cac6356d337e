"""Measurement, checking and reporting for the dephaselab benchmark.

``run.py`` is the command-line entry; this module holds the work so the
self-test can import it without side effects. The program is taken from
the checkout's ``src/`` and the golden reports from ``tests/golden``.

With tracing off, the workload's invocation list runs as cold
subprocesses (``python -m dephaselab``), one at a time, and the whole
list repeats until the time window is used; the end-to-end metrics come
from those children. Each invocation is followed by a run of the fixed
reference task (reference.py), and the invocation times are reported as
multiples of it. With tracing on, the same argument lists run in
this process, alternating an untraced pass with a pass under the span
recorder, and the per-layer metrics come from the spans. Every output
is checked against the oracles outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads
from spans import SPAN_NAMES, SpanRecorder
from threads import blas_threads, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = HERE / "_work"

SETUP_FIRST = 3
SETUP_PER_PASS = 3
IMPORT_SAMPLES = 5
# Rounds of the reference task (reference.py) per workload. They make it
# last about as long as one of the workload's invocations and split its
# time between interpreter start-up and computation in a similar way.
REFERENCE_ROUNDS = {"grid-sweep": 5000, "lemma-check": 10000, "single-shot": 300}


class Tally:
    """Invocations attempted and failed; prints the first few problems to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, call, code: int, out: str) -> None:
        self.attempted += 1
        try:
            problem = call.check(code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparseable output: {exc!r}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(call.argv)}: {problem}", file=sys.stderr)


# Unset for children, whatever the caller's environment says, so that
# they cache bytecode and buffer stdout as an installed CLI does.
CHILD_UNSET = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


class Children:
    """Runs cold `python` children one at a time with PYTHONPATH=src."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in CHILD_UNSET}
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, args: list[str]) -> tuple[float, int, str, str, int]:
        """(wall s, exit code, stdout, stderr, peak RSS KiB) of one child."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss

    def cli(self, argv: list[str]) -> tuple[float, int, str, int]:
        wall, code, out, _, rss = self.run(["-m", "dephaselab", *argv])
        return wall, code, out, rss

    def import_split(self) -> tuple[float, float]:
        """(numpy, rest of dephaselab.cli) cumulative import time in us, from -X importtime."""
        _, code, _, err, _ = self.run(["-X", "importtime", "-c", "import dephaselab.cli"])
        if code != 0:
            raise RuntimeError(f"importing dephaselab.cli failed:\n{err}")
        numpy_us, total_us = None, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            package = name.strip()
            if package == "numpy" and numpy_us is None:
                numpy_us = int(cumulative)
            if name.startswith(" ") and not name.startswith("  ") and package.startswith("dephaselab"):
                total_us += int(cumulative)
        if numpy_us is None:
            raise RuntimeError("numpy does not appear in the import trace")
        return float(numpy_us), float(total_us - numpy_us)

    def reference(self, rounds: int) -> float:
        """Wall time of one run of the reference task (reference.py)."""
        wall, code, out, err, _ = self.run([str(HERE / "reference.py"), str(rounds)])
        if code != 0 or out.split()[:1] != [str(rounds)]:
            raise RuntimeError(f"the reference task failed (exit {code}):\n{err}")
        return wall


def keep_going(t_start: float, passes: int, seconds: float) -> bool:
    """True while another pass of average length still ends within the window."""
    elapsed = time.perf_counter() - t_start
    return elapsed + elapsed / passes <= seconds


def end_to_end(calls, children: Children, tally: Tally, seconds: float, record: dict,
               rounds: int) -> dict:
    for call in workloads.warmups():
        _, code, out, _ = children.cli(call.argv)
        tally.check(call, code, out)
    children.reference(rounds)  # warm-up
    setup = []

    def sample_setup(n: int) -> None:
        for _ in range(n):
            wall, code, _, err, _ = children.run(["-c", "import dephaselab.cli"])
            if code != 0:
                raise RuntimeError(f"importing dephaselab.cli failed:\n{err}")
            setup.append(wall)

    # Set-up samples are spread over the window, a few after every pass,
    # so their median does not hang on the machine's state in one moment.
    sample_setup(SETUP_FIRST)
    by_call, ratios, refs, peak_kib, passes = [[] for _ in calls], [[] for _ in calls], [], 0, 0
    t_start = time.perf_counter()
    while True:
        for call, times, rel in zip(calls, by_call, ratios):
            wall, code, out, rss = children.cli(call.argv)
            ref = children.reference(rounds)
            tally.check(call, code, out)
            times.append(wall)
            refs.append(ref)
            rel.append(wall / ref)
            peak_kib = max(peak_kib, rss)
        passes += 1
        sample_setup(SETUP_PER_PASS)
        if not keep_going(t_start, passes, seconds):
            break
    per_call = [t for times in by_call for t in times]
    per_rel = [r for rel in ratios for r in rel]
    record.update(passes=passes, pass_walls_s=[round(sum(p), 4) for p in zip(*by_call)],
                  call_samples=len(per_call), setup_samples=len(setup), reference_rounds=rounds,
                  reference_median_s=statistics.median(refs),
                  wall_s=sum(statistics.median(times) for times in by_call),
                  call_p50_s=statistics.median(per_call), call_p75_s=statistics.quantiles(per_call, n=4)[2])
    # The speed of a shared machine drifts by half or more within minutes,
    # so each invocation's time is divided by that of the reference task
    # run right after it, and the drift cancels; the seconds are in the
    # run record. The list's time is the sum of each invocation's median
    # ratio over the passes, so one slow call in one pass does not move it.
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (sum(statistics.median(rel) for rel in ratios), "ref"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "call_p50_ref": (statistics.median(per_rel), "ref"),
        "call_p75_ref": (statistics.quantiles(per_rel, n=4)[2], "ref"),
    }


def in_process_pass(cli, calls, tally: Tally) -> float:
    """Run every argument list through cli.main in this process; return the summed wall time."""
    total = 0.0
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
        total += time.perf_counter() - t0
        tally.check(call, code, out.getvalue())
    return total


def per_layer(calls, children: Children, tally: Tally, seconds: float, record: dict, workload: str) -> dict:
    splits = [children.import_split() for _ in range(IMPORT_SAMPLES)]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dephaselab.cli as cli

    in_process_pass(cli, calls, tally)  # warm-up
    overheads, self_us = [], {name: [] for name in SPAN_NAMES}
    t_start = time.perf_counter()
    while True:
        untraced = in_process_pass(cli, calls, tally)
        recorder = SpanRecorder()
        with recorder:
            traced = in_process_pass(cli, calls, tally)
        overheads.append(traced - untraced)
        summary = recorder.summary()
        for name, (_, us) in summary.items():
            self_us[name].append(us)
        if not keep_going(t_start, len(overheads), seconds):
            break
    recorder.dump(WORK / f"spans-{workload}.jsonl")
    record.update(passes=len(overheads), import_samples=len(splits))

    items = sum(call.items for call in calls)
    calls_by_name = {name: n for name, (n, _) in summary.items()}
    counts = recorder.counts
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls_by_name[name], "count")
        metrics[f"{name}.self_us"] = (statistics.median(self_us[name]), "us")
    metrics["cli.import_numpy_us"] = (statistics.median(s[0] for s in splits), "us")
    metrics["cli.import_dephaselab_us"] = (statistics.median(s[1] for s in splits), "us")
    for name in ("qstate.make_state", "linalg.check_hermitian", "linalg.eigvals_hermitian"):
        metrics[f"{name}.per_item"] = (calls_by_name[name] / items, "calls/item")
    metrics["criteria.find_sign_change.evals_per_root"] = (
        counts["curve_evals"] / counts["roots"] if counts["roots"] else 0.0, "evals/root")
    metrics["criteria.separability_certificate.pass_ratio"] = (
        counts["certificates_passed"] / counts["certificates"] if counts["certificates"] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    record.update(items=items, roots=counts["roots"], certificates=counts["certificates"])
    return metrics


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def is_checkout() -> bool:
    return (SRC / "dephaselab" / "cli.py").is_file() and GOLDEN.is_dir()


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict = workloads.FULL) -> tuple[dict, dict]:
    """Build, run and check one workload; return (result object, run record)."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "commit": commit(), "python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": nproc(), "blas_threads": blas_threads()}
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workloads.build(workload, seed, workdir, size, GOLDEN)
        record["calls_per_pass"] = len(calls)
        children, tally = Children(workdir), Tally()
        if trace:
            metrics = per_layer(calls, children, tally, seconds, record, workload)
        else:
            metrics = end_to_end(calls, children, tally, seconds, record, REFERENCE_ROUNDS[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record
