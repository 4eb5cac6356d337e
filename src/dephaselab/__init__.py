"""Bipartite qudit states under local dephasing noise.

Evolution through entrywise sector-dephasing masks, entanglement
classification through partial-transpose and realignment witnesses, a
constructive separability certificate, distillability probes built from
single channel branches, and the closed-form state family that ties them
together. The cli module exposes the pipeline as a batch command line
tool.
"""

from .channels import NoiseParams, general_dephase, ground_excited, infinite_limit, sector_dephase
from .criteria import (
    BlockSpec,
    Classification,
    Verdict,
    bures_fidelity,
    classify,
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
)
from .qstate import (
    DensityMatrix,
    Dims,
    make_state,
    partial_transpose,
    project_local,
    realign,
    random_state,
    state_from_json,
    state_to_json,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "NoiseParams",
    "general_dephase",
    "ground_excited",
    "infinite_limit",
    "sector_dephase",
    "BlockSpec",
    "Classification",
    "Verdict",
    "bures_fidelity",
    "classify",
    "find_sign_change",
    "min_pt_eigenvalue",
    "qubit_block_witness",
    "realignment_excess",
    "separability_certificate",
    "DensityMatrix",
    "Dims",
    "make_state",
    "partial_transpose",
    "project_local",
    "realign",
    "random_state",
    "state_from_json",
    "state_to_json",
    "tensor",
    "__version__",
]
