"""The package's records: immutable NamedTuples, not dataclasses.

Every record keeps its field names and order and its repr, and rejects
assignment to a field. A cold `import dephaselab.cli` loads neither
`dataclasses`, `csv` nor `json`, a cold `import dephaselab.__main__`
loads neither numpy nor the CLI, and a `verify-lemmas` run loads
neither `numpy.random` nor OpenSSL's hashing modules.
"""

import importlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import dephaselab
from conftest import QUTRIT_PAIR, child_env
from dephaselab.criteria import (
    BlockSpec,
    CertificateResult,
    Classification,
    classify,
    separability_certificate,
)
from dephaselab.family import McReport, McSpec, certificate_blocks, initial_state, mc_report
from dephaselab.linalg import TOL, Tolerances
from dephaselab.qstate import DensityMatrix, Dims

UNIFORM = McSpec(np.full((3, 3), 1.0 / 3))

# (record, its type, its fields in order)
RECORDS = [
    (TOL, Tolerances, tuple(Tolerances.__annotations__)),
    (QUTRIT_PAIR, Dims, ("da", "db")),
    (initial_state(4.5), DensityMatrix, ("mat", "dims")),
    (classify(initial_state(4.5)), Classification,
     ("verdict", "min_pt_eigenvalue", "realignment_excess", "certificate_passed")),
    (certificate_blocks()[0], BlockSpec, ("a_labels", "b_labels", "diag_weights")),
    (separability_certificate(initial_state(4.5), certificate_blocks()), CertificateResult,
     ("passed", "block_minima", "residual_diagonal_min")),
    (UNIFORM, McSpec, ("a",)),
    (mc_report(UNIFORM, 1.0, 1.0, 2.0), McReport,
     ("still_mc", "mc_deviation", "entangled", "distillable", "witness_value", "witness_labels")),
]


@pytest.mark.parametrize("record, kind, fields", RECORDS, ids=[kind.__name__ for _, kind, _ in RECORDS])
def test_records_are_immutable(record, kind, fields):
    assert type(record) is kind
    assert kind._fields == fields
    assert repr(record).startswith(f"{kind.__name__}({fields[0]}=")
    assert tuple(record) == tuple(getattr(record, field) for field in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None


# (validating record, a field it rejects, a value for that field)
CHECKED = [
    (QUTRIT_PAIR, "da", 1),
    (initial_state(4.5), "mat", np.eye(4) / 4),
    (certificate_blocks()[0], "a_labels", (0, 0)),
    (UNIFORM, "a", np.full((2, 3), 0.5)),
]


@pytest.mark.parametrize("record, field, bad", CHECKED, ids=[type(r).__name__ for r, _, _ in CHECKED])
def test_make_and_replace_validate(record, field, bad):
    kind = type(record)
    assert type(kind._make(record)) is kind and type(record._replace()) is kind
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        kind._make(bad if name == field else value for name, value in zip(kind._fields, record))


def test_record_arrays_are_read_only_copies():
    mat = np.eye(9) / 9
    state = DensityMatrix(mat, QUTRIT_PAIR)
    assert state.mat.dtype == complex and not np.shares_memory(state.mat, mat)
    for array in (state.mat, UNIFORM.a):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    # Whatever someone else can still write through is copied: a
    # writable array, a view, a read-only view of a writable base.
    writable = np.eye(9, dtype=complex) / 9
    read_only_view = writable[:]
    read_only_view.setflags(write=False)
    for given in (writable, writable[:], read_only_view, state.mat[:]):
        held = DensityMatrix(given, QUTRIT_PAIR).mat
        assert not np.shares_memory(held, given) and not held.flags.writeable
    # A fresh read-only array that owns its data is held as it is.
    fresh = np.eye(9, dtype=complex) / 9
    fresh.setflags(write=False)
    assert DensityMatrix(fresh, QUTRIT_PAIR).mat is fresh
    assert repr(QUTRIT_PAIR) == "Dims(da=3, db=3)"


def test_cold_import_loads_no_dataclasses_csv_or_numpy_random():
    # numpy.random (with secrets, hashlib and OpenSSL) is imported by the
    # first np.random call, which no command makes: verify-lemmas draws
    # from qstate.NormalStream (the next test runs it). json is
    # imported by the commands that read or print JSON, not by sweeps or
    # verify-lemmas. dephaselab.__main__.run meets a closed pipe without
    # signal. mpmath, sympy, scipy and hypothesis serve only the tests and
    # their oracles. fractions and decimal stay out too: an exact kernel
    # may not bring either into a cold start. The process entry module
    # imports the CLI (numpy included) only from run, with the collector
    # off.
    for module, absent in (
        ("dephaselab.cli", {"dataclasses", "csv", "json", "numpy.random", "signal", "mpmath", "sympy", "scipy",
                            "hypothesis", "fractions", "decimal"}),
        ("dephaselab.__main__", {"numpy", "dephaselab.cli"}),
    ):
        code = f"import sys, {module}; print(sorted({absent!r} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
        assert (result.returncode, result.stdout) == (0, "[]\n"), (module, result.stderr)
    for info in pkgutil.iter_modules(dephaselab.__path__):
        module = importlib.import_module(f"dephaselab.{info.name}")
        for name, value in vars(module).items():
            assert not hasattr(value, "__dataclass_fields__"), f"dephaselab.{info.name}.{name} is a dataclass"


def test_verify_lemmas_loads_no_numpy_random_or_openssl():
    # The sampled claims draw from the standard library's Mersenne
    # Twister, so a run loads neither numpy.random nor the secrets, hmac
    # and hashlib chain that brings in OpenSSL. random itself is not
    # asserted absent: site may preload it.
    absent = {"numpy.random", "secrets", "hmac", "hashlib", "_hashlib"}
    code = (
        "import contextlib, io, sys, dephaselab.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify-lemmas', '--seed', '42', '--samples', '70'])\n"
        f"print(code, sorted({absent!r} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (result.returncode, result.stdout) == (0, "0 []\n"), result.stderr
