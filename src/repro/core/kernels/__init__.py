"""Per-submatrix ``aprod`` kernels.

The CUDA production code implements ``aprod1`` and ``aprod2`` as four
kernels each -- ``aprod{1,2}_Kernel_astro/att/instr/glob()`` (§IV).
This package mirrors that decomposition:

- :mod:`repro.core.kernels.gather_scatter` -- the shared dense
  gather-dot (row-parallel, collision-free, like ``aprod1``) and
  scatter-add (column updates that collide, like ``aprod2``)
  primitives, each with several execution strategies;
- :mod:`repro.core.kernels.astro` / :mod:`~repro.core.kernels.att` /
  :mod:`~repro.core.kernels.instr` / :mod:`~repro.core.kernels.glob`
  -- the per-submatrix kernels, including the astrometric fast path
  that exploits the block-diagonal structure to avoid atomics
  altogether (the same observation the paper makes in §IV).

Scatter strategies and their GPU analogues:

==================  ===================================================
``atomic``          ``np.add.at`` unordered scatter -- the analogue of
                    the GPU atomic read-modify-write path
``bincount``        key-sorted reduction -- the analogue of a
                    collision-free reduction tree
``sorted``          ``np.add.reduceat`` over pre-sorted keys (astro
                    only)
``sorted_segment``  whole-matrix transpose product with the plan's one
                    CSR matrix (:mod:`~repro.core.kernels.plan`,
                    each column summed in row-major order) --
                    collision-free *and* bitwise deterministic
``loop``            pure-Python reference used to validate the others
==================  ===================================================

:mod:`repro.core.kernels.plan` compiles a whole system into one
SciPy CSR matrix (``A_obs``, applied as it is for ``aprod1`` and
through its transpose view for ``aprod2``) -- the tuned hot path the
``"auto"`` strategy selection targets.
"""

from repro.core.kernels.gather_scatter import (
    GATHER_STRATEGIES,
    SCATTER_STRATEGIES,
    gather_dot,
    scatter_add,
)
from repro.core.kernels.plan import (
    AprodPlan,
    StrategySelection,
    select_strategies,
)
from repro.core.kernels import astro, att, glob, instr

__all__ = [
    "GATHER_STRATEGIES",
    "SCATTER_STRATEGIES",
    "gather_dot",
    "scatter_add",
    "AprodPlan",
    "StrategySelection",
    "select_strategies",
    "astro",
    "att",
    "instr",
    "glob",
]
