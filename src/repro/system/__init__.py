"""Gaia AVU-GSR structured sparse system substrate.

The AVU-GSR solver works on an overdetermined linear system ``A x = b``
whose coefficient matrix has a fixed per-row sparsity structure
(Fig. 2 of the paper): 5 contiguous astrometric non-zeros on a block
diagonal, 12 attitude non-zeros in 3 stride-separated blocks of 4,
6 irregularly placed instrumental non-zeros, and at most 1 global
non-zero.  This subpackage provides:

- :mod:`repro.system.structure` -- layout constants, dimensions and
  column-space offsets;
- :mod:`repro.system.sparse` -- the compressed storage scheme
  (``matrixIndexAstro`` / ``matrixIndexAtt`` / ``instrCol``) and dense /
  SciPy-CSR conversion helpers;
- :mod:`repro.system.generator` -- the seeded synthetic dataset
  generator used in place of the proprietary ESA datasets;
- :mod:`repro.system.sizing` -- GB <-> dimension accounting;
- :mod:`repro.system.solution` -- sectioned views of the unknown
  vector;
- :mod:`repro.system.constraints` -- constraint equations appended to
  the overdetermined system;
- :mod:`repro.system.dataset` -- on-disk (de)serialization;
- :mod:`repro.system.digest` -- content-addressed SHA-256 digests
  (system identity for caching, shared-memory publication, and the
  ``repro.sessions`` warm-start lineage);
- :mod:`repro.system.merge` -- segment concatenation and the
  lineage-chaining :func:`append_observations` incremental-growth
  path.
"""

from repro.system.structure import (
    ASTRO_PARAMS_PER_STAR,
    ATT_AXES,
    ATT_BLOCK_SIZE,
    ATT_PARAMS_PER_ROW,
    GLOB_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    NNZ_PER_ROW,
    SystemDims,
)
from repro.system.sparse import GaiaSystem
from repro.system.digest import matrix_digest, system_digest
from repro.system.generator import (
    make_observation_block,
    make_system,
    make_system_with_solution,
)
from repro.system.sizing import (
    BYTES_PER_OBSERVATION,
    dims_from_gb,
    device_footprint_bytes,
    system_size_gb,
    system_from_gb,
)
from repro.system.solution import SolutionSections, split_solution
from repro.system.constraints import ConstraintSet, attitude_null_space_constraints
from repro.system.dataset import load_system, save_system
from repro.system.storage import StorageFootprint, mission_dims, storage_comparison
from repro.system.merge import (
    append_observations,
    concatenate_systems,
    split_rows,
)

__all__ = [
    "ASTRO_PARAMS_PER_STAR",
    "ATT_AXES",
    "ATT_BLOCK_SIZE",
    "ATT_PARAMS_PER_ROW",
    "GLOB_PARAMS_PER_ROW",
    "INSTR_PARAMS_PER_ROW",
    "NNZ_PER_ROW",
    "SystemDims",
    "GaiaSystem",
    "matrix_digest",
    "system_digest",
    "make_observation_block",
    "make_system",
    "make_system_with_solution",
    "BYTES_PER_OBSERVATION",
    "dims_from_gb",
    "device_footprint_bytes",
    "system_size_gb",
    "system_from_gb",
    "SolutionSections",
    "split_solution",
    "ConstraintSet",
    "attitude_null_space_constraints",
    "load_system",
    "save_system",
    "StorageFootprint",
    "mission_dims",
    "storage_comparison",
    "append_observations",
    "concatenate_systems",
    "split_rows",
]
