"""The package's records: immutable NamedTuples, not dataclasses.

Every record keeps its field names and order and its repr, and rejects
assignment to a field. A cold `import dephaselab.cli` loads neither
`dataclasses` nor `csv`.
"""

import importlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import dephaselab
from conftest import QUTRIT_PAIR, child_env
from dephaselab.channels import KrausSet, NoiseParams, kraus_ground_excited
from dephaselab.criteria import (
    BlockDiagnostic,
    BlockSpec,
    CertificateResult,
    Classification,
    classify,
    separability_certificate,
)
from dephaselab.family import McReport, McSpec, certificate_blocks, initial_state, mc_report
from dephaselab.linalg import TOL, Tolerances
from dephaselab.qstate import DensityMatrix, Dims

NOISE = NoiseParams(1.0, 1.0, 2.0)
UNIFORM = McSpec(3, np.full((3, 3), 1.0 / 3))

# (record, its type, its fields in order)
RECORDS = [
    (TOL, Tolerances, tuple(Tolerances.__annotations__)),
    (QUTRIT_PAIR, Dims, ("da", "db")),
    (initial_state(4.5), DensityMatrix, ("mat", "dims")),
    (NOISE, NoiseParams, ("gamma_rate_a", "gamma_rate_b", "t")),
    (kraus_ground_excited(NOISE), KrausSet, ("ops", "dims")),
    (classify(initial_state(4.5)), Classification,
     ("verdict", "min_pt_eigenvalue", "realignment_excess", "certificate_passed")),
    (certificate_blocks()[0], BlockSpec, ("a_labels", "b_labels", "diag_weights")),
    (separability_certificate(initial_state(4.5), certificate_blocks()).blocks[0], BlockDiagnostic,
     ("a_labels", "b_labels", "min_eigenvalue", "min_pt_eigenvalue")),
    (separability_certificate(initial_state(4.5), certificate_blocks()), CertificateResult,
     ("passed", "blocks", "residual_diagonal_min", "residual_offdiagonal_max")),
    (UNIFORM, McSpec, ("d", "a")),
    (mc_report(UNIFORM, NOISE), McReport,
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


def test_record_arrays_are_read_only_copies():
    mat = np.eye(9) / 9
    state = DensityMatrix(mat, QUTRIT_PAIR)
    assert state.mat.dtype == complex and not np.shares_memory(state.mat, mat)
    for array in (state.mat, UNIFORM.a, kraus_ground_excited(NOISE).ops[0]):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert repr(QUTRIT_PAIR) == "Dims(da=3, db=3)"


def test_cold_import_loads_no_dataclasses_or_csv():
    code = "import sys, dephaselab.cli; print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
    for info in pkgutil.iter_modules(dephaselab.__path__):
        module = importlib.import_module(f"dephaselab.{info.name}")
        for name, value in vars(module).items():
            assert not hasattr(value, "__dataclass_fields__"), f"dephaselab.{info.name}.{name} is a dataclass"
