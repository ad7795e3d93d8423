"""The compiled ``aprod`` plan: one SciPy CSR matrix per bound system.

The block kernels (:mod:`repro.core.kernels.blocks`) mirror the GPU
ports kernel-for-kernel, which is faithful but leaves the host analogue
of the paper's central tuning axis unexploited: §III-B identifies
``aprod1``/``aprod2`` as the two dominant, memory-bound costs of every
LSQR iteration, and §IV shows that how the ``aprod2`` scatter
collisions are resolved (RMW atomics vs. CAS loops) decides up to half
the achievable efficiency.  This module is the tuned counterpart.
*Generating* the operator is kept apart from *applying* it:

- **Generate** (:class:`AprodPlan`): the observation block is compiled
  once to ``A_obs`` in CSR (:meth:`~repro.system.sparse.GaiaSystem.
  observation_csr`) -- O(nnz), no sort of any kind, never
  canonicalized.  Its values *are* the system's coefficient block
  (:attr:`~repro.system.sparse.GaiaSystem.coefficients`, wrapped, not
  copied); only the 4 B column index per coefficient is packed.  Its
  transpose is the CSC *view* of the same three arrays: nothing is
  built for it.
- **Apply**: both products and their ``K``-wide forms go through the
  format's native kernels over that one matrix (the column norms read
  its arrays a row block at a time).
  ``A @ x`` sums each row left to right; ``A.T @ y`` walks the same
  rows and adds every coefficient into its column, so a column sums
  its terms in row-major order (the host analogue of replacing atomic
  read-modify-write with a deterministic reduction: one thread, one
  frozen order).  Two applications are bitwise equal, and member ``j``
  of a stacked product is bitwise the single product, which is what
  makes a batched solve bitwise its serial solves.
- **One stream per iteration**: an LSQR iteration reads the 12 B per
  coefficient once for each product, from the same arrays.  A second,
  transposed copy doubles the bytes an iteration cycles through; at the
  largest benchmark size that put the working set (123 MiB) at the edge
  of what the shared last-level cache of the reference host keeps, and
  the time per iteration followed the neighbours' cache use (1.6-2.7 ns
  per coefficient at 61 MiB, 2.1-4.5 ns at 123 MiB; ``docs/
  kernel_plan.md``).
- **Immutable**: the plan holds one matrix and no scratch state, so
  one compiled operator may be applied from several threads at once.
  It aliases the system's coefficients, so a system mutated in place
  while a solve runs on it gives undefined results.

:func:`select_strategies` is the shape-based heuristic (the tuning
sweep records its choice per size class) that decides when the plan
pays for itself, and :func:`resolve_kernels` reads the
``(gather_strategy, scatter_strategy)`` pair
:class:`~repro.core.aprod.AprodOperator` takes as the spelling of one
kernel set.  ``docs/kernel_plan.md`` has the measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
# Module level, never inside the build (``observation_csr`` imports it
# lazily): the first import costs ~0.1 s, which no first request of a
# worker process should pay.
import scipy.sparse  # noqa: F401

from repro.core.kernels.gather_scatter import column_sq_norms
from repro.system.sparse import GaiaSystem
from repro.system.structure import SystemDims

#: The ``gather_strategy`` / ``scatter_strategy`` spelling of the
#: compiled set (the names predate the CSR matrix; ``bench/`` and
#: ``SolveRequest.strategies`` spell them).
FUSED_GATHER = "fused"
SORTED_SEGMENT_SCATTER = "sorted_segment"

#: The strategy pair that spells each kernel set; ``("auto", "auto")``
#: leaves the choice to :func:`select_strategies`.
KERNEL_SET_SPELLINGS = {
    (FUSED_GATHER, SORTED_SEGMENT_SCATTER): "compiled",
    ("vectorized", "bincount"): "blocks",
}

#: Kernel names the compiled set reports (one kernel per direction).
FUSED_KERNEL_NAMES = ("aprod1_fused", "aprod2_fused")

#: Below this observation count the one-off plan build (packing the
#: nnz column indices) is not worth any per-iteration win, and the
#: heuristic keeps the block kernels.
FUSED_MIN_OBS = 4096

#: Memory budget of one plan: what :func:`plan_workspace_bytes` counts
#: (the index block, the row pointers and a batch's stacked columns).
#: Past this the heuristic falls back to the block kernels, which run
#: a batch one member at a time, instead of materializing the compiled
#: matrix.
PLAN_BUDGET_BYTES = 4 << 30


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class AprodPlan:
    """``A_obs`` in CSR for one bound system, applied both ways.

    The products cover the observation rows only -- constraint rows
    stay with the dispatching :class:`~repro.core.aprod.AprodOperator`.
    Each accumulates into a caller-owned ``out`` (the engine hands over
    a pre-scaled vector), and each row keeps the order it was packed
    in: a key may repeat inside a row, and a rank-local row slice
    leaves columns unoccupied.
    """

    def __init__(self, system: GaiaSystem) -> None:
        t0 = time.perf_counter()
        a = system.observation_csr()
        self.n_obs, self.n_params = a.shape
        self.k_total = system.dims.nnz_per_row
        # The native kernels index the operand unchecked: bounds are
        # verified here, once.
        if a.nnz and (int(a.indices.min()) < 0
                      or int(a.indices.max()) >= self.n_params):
            raise ValueError("packed columns outside the unknown space")
        self.A = a
        # CSC over the same three arrays, no copy: a product with it
        # walks A's rows in order and adds each coefficient into its
        # column, so a column sums its entries in row-major order,
        # duplicates inside one row left to right.
        self.At = a.T
        self.work = {
            product: ((name, self.n_obs, self.n_obs * self.k_total),)
            for product, name in zip(("aprod1", "aprod2"),
                                     FUSED_KERNEL_NAMES)
        }
        self.build_seconds = time.perf_counter() - t0

    @property
    def workspace_nbytes(self) -> int:
        """Bytes the plan allocated: the column indices and the row
        pointers (the values are the system's coefficient block)."""
        return self.A.indices.nbytes + self.A.indptr.nbytes

    def aprod1(self, x: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out += A_obs @ x``."""
        obs_out += self.A @ x

    def aprod2(self, y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out += A_obs.T @ y_obs``, one ordered sum per unknown."""
        out += self.At @ y_obs

    def aprod1_batch(self, X: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out[j] += A_obs @ X[j]`` for all ``K`` members at once.

        ``X`` is ``(K, n_params)`` batch-major, ``obs_out`` is
        ``(K, n_obs)``.  One product over the ``(n_params, K)`` stack
        reads the coefficients once for the whole batch, and sums each
        member's rows in the order of :meth:`aprod1`.
        """
        obs_out += (self.A @ X.T).T

    def aprod2_batch(self, Y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out[j] += A_obs.T @ Y_obs[j]`` for all ``K`` members at once."""
        out += (self.At @ Y_obs.T).T

    def column_sq_norms(self, out: np.ndarray) -> None:
        """Accumulate the squared column norms of ``A_obs`` into ``out``.

        Every packed row holds exactly ``k_total`` entries, so
        ``A.data`` / ``A.indices`` are ``(n_obs, k_total)`` blocks in
        storage order, and :func:`~repro.core.kernels.gather_scatter.
        column_sq_norms` walks them a row block at a time: each column
        adds its terms in row-major order, as the block kernels'
        per-section passes do -- bitwise the same norms -- and the pass
        allocates one row block of squares, not an nnz-sized copy.
        """
        shape = (self.n_obs, self.k_total)
        column_sq_norms(self.A.data.reshape(shape),
                        self.A.indices.reshape(shape), out)


# ----------------------------------------------------------------------
# Shape heuristic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySelection:
    """The host kernel set for one system shape: ``"compiled"`` (an
    :class:`AprodPlan`) or ``"blocks"`` (the block kernels)."""

    kernels: str
    reason: str


def plan_workspace_bytes(dims: SystemDims, batch: int = 1) -> int:
    """Predicted memory footprint of an :class:`AprodPlan`.

    What the plan allocates -- a 4 B column index per coefficient plus
    the row-pointer array; the 8 B values are the system's own block --
    and, for every member past the first, the operand and result
    columns a stacked product allocates while it runs.  At ``batch=1``
    this is :attr:`AprodPlan.workspace_nbytes`.  (Past 2**31
    coefficients SciPy switches to 8 B indices; such a plan is over the
    budget either way.)
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    held = 4 * dims.nnz + 4 * (dims.n_obs + 1)
    return held + (batch - 1) * 8 * (dims.n_obs + dims.n_params)


def select_strategies(dims: SystemDims, batch: int = 1
                      ) -> StrategySelection:
    """Choose the host kernel set from the system shape alone.

    Mirrors the paper's per-platform geometry tuning (§IV/§V-B) on the
    host: the compiled plan wins once its one-off build cost (packing
    the nnz column indices) amortizes over the iterations and the plan
    fits the budget.

    - tiny systems (``n_obs`` < :data:`FUSED_MIN_OBS`): the block
      kernels -- the plan build dominates;
    - oversized plans (footprint past :data:`PLAN_BUDGET_BYTES`): the
      block kernels, which run a batch one member at a time;
    - everything else: the compiled matrix.

    ``batch`` is the intended trailing batch width: every further
    member adds the columns a stacked product allocates
    (:func:`plan_workspace_bytes`), so a system that compiles a plan
    solo can exceed the budget once enough members ride on it -- the
    heuristic then falls back to the block kernels for the whole batch.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if dims.n_obs < FUSED_MIN_OBS:
        return StrategySelection(
            kernels="blocks",
            reason=(f"n_obs={dims.n_obs} < {FUSED_MIN_OBS}: plan build "
                    "would dominate; block kernels"),
        )
    footprint = plan_workspace_bytes(dims, batch)
    if footprint > PLAN_BUDGET_BYTES:
        return StrategySelection(
            kernels="blocks",
            reason=(f"plan workspaces ({footprint / 2**30:.1f} GiB at "
                    f"batch={batch}) exceed the budget; row-blocked "
                    "block kernels"),
        )
    return StrategySelection(
        kernels="compiled",
        reason=(f"n_obs={dims.n_obs}: fused plan amortizes "
                f"({footprint / 2**20:.0f} MiB workspaces at "
                f"batch={batch})"),
    )


def resolve_kernels(gather: str, scatter: str, dims: SystemDims,
                    batch: int = 1) -> str:
    """The kernel set a ``(gather_strategy, scatter_strategy)`` pair
    names: one of :data:`KERNEL_SET_SPELLINGS`, or ``("auto", "auto")``
    for :func:`select_strategies`'s choice at trailing width ``batch``.
    """
    if (gather, scatter) == ("auto", "auto"):
        return select_strategies(dims, batch).kernels
    try:
        return KERNEL_SET_SPELLINGS[gather, scatter]
    except KeyError:
        spellings = ", ".join(f"{g!r}/{s!r} ({name})" for (g, s), name
                              in KERNEL_SET_SPELLINGS.items())
        raise ValueError(
            f"gather_strategy={gather!r}, scatter_strategy={scatter!r} "
            f"name no one kernel set; expected {spellings} or "
            "'auto'/'auto'") from None
