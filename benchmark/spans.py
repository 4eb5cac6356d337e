"""In-memory span recorder around dephaselab's public functions.

Each listed function is wrapped in its defining module and in every
other dephaselab module that bound it with ``from ... import``, so a
call through any of those names is recorded: criteria's own calls to
eigvals_hermitian and cli's calls to apply_channel included. Spans nest
by call stack; a span's self time is its duration minus the durations
of its direct children. Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# The functions the per-layer metrics cover, by module.
LAYERS = {
    "linalg": ("check_hermitian", "eigvals_hermitian", "eig_hermitian", "singular_values"),
    "qstate": (
        "make_state", "partial_transpose", "realign", "project_local", "tensor",
        "random_state", "state_from_json", "state_to_json",
    ),
    "channels": ("kraus_ground_excited", "local_pair", "apply_channel", "infinite_limit"),
    "criteria": (
        "min_pt_eigenvalue", "realignment_excess", "qubit_block_witness",
        "separability_certificate", "classify", "find_sign_change",
    ),
    "family": (
        "initial_state", "swapped_state", "evolved_closed_form", "one_sided_probe",
        "two_sided_probe", "limit_verdict", "mc_report",
    ),
    "cli": ("cmd_sweep", "cmd_classify", "cmd_evolve", "cmd_thresholds", "cmd_verify_lemmas"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class SpanRecorder:
    """Records one span per call of a wrapped function while installed.

    Besides spans it keeps two counts measured where the work happens:
    curve evaluations inside find_sign_change, and certificates that
    passed.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name == "criteria.find_sign_change":
            @functools.wraps(fn)
            def bisection(f, *args, **kwargs):
                def curve(t):
                    counts["curve_evals"] += 1
                    return f(t)
                counts["roots"] += 1
                return wrapper(curve, *args, **kwargs)
            return bisection
        if name == "criteria.separability_certificate":
            @functools.wraps(fn)
            def certificate(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                counts["certificates"] += 1
                counts["certificates_passed"] += bool(result.passed)
                return result
            return certificate
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions in loaded dephaselab modules."""
        originals = {}
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"dephaselab.{mod_name}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                originals[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dephaselab" and not mod_name.startswith("dephaselab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self time in microseconds)} for every listed name."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]
        return {name: (calls[name], self_ns[name] / 1e3) for name in SPAN_NAMES}

    def dump(self, path: Path) -> None:
        """Write one JSON line per span: name, parent index, start and end in ns."""
        with open(path, "w") as out:
            for i in range(len(self.names)):
                out.write(json.dumps([self.names[i], self.parents[i], self.starts[i], self.ends[i]]) + "\n")
