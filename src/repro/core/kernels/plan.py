"""Fused ``aprod`` execution plans (packed gather, sorted-segment scatter).

The four-kernel dispatch in :mod:`repro.core.aprod` mirrors the GPU
ports kernel-for-kernel, which is faithful but leaves the host analogue
of the paper's central tuning axis unexploited: §III-B identifies
``aprod1``/``aprod2`` as the two dominant costs of every LSQR
iteration, and §IV shows that how the ``aprod2`` scatter collisions
are resolved (RMW atomics vs. CAS loops) decides up to half the
achievable efficiency.  This module is the tuned counterpart:

- **Packed gather** (``aprod1``): at *plan-build* time the astro /
  attitude / instrumental / global coefficients and their global
  column indices are packed into one contiguous ``(n_obs, k_total)``
  pair, so the forward product is a single gather-multiply-reduce pass
  instead of four kernels with four fancy-index temporaries.
- **Sorted-segment scatter** (``aprod2``): one stable counting-sort
  pass over the flattened column keys (a CSR -> CSC conversion, O(nnz))
  puts the coefficients in column order and yields the segment
  boundaries between distinct columns, and every transpose product
  becomes a collision-free ``np.add.reduceat`` segment reduction --
  the host analogue of replacing atomic read-modify-write with a
  sorted, deterministic reduction tree.  Two applications of the same
  plan are *bitwise identical* (summation order is frozen at build
  time).
- **Zero-allocation hot loop**: the row / segment workspaces and one
  nnz-sized scratch plane (the gathered operand of ``aprod1`` and the
  contributions of ``aprod2`` are never live together) are
  preallocated by the plan, so the per-iteration kernels allocate no
  arrays at all -- extending the guarantee
  :class:`~repro.core.engine.LSQRStepEngine` already makes for the
  solver vectors down into the kernels.
- **Trailing batch axis**: both passes generalize to ``K`` stacked
  solves sharing one coefficient matrix (:meth:`AprodPlan.
  aprod1_batch` / :meth:`AprodPlan.aprod2_batch`, backing the
  :class:`~repro.core.engine.BatchedLSQRStepEngine`): one
  ``take``/``einsum``/``reduceat`` pass advances all ``K`` members at
  once over batch-major ``(K, n)`` / ``(K, n_obs)`` operands.  The
  contraction axes are unchanged, so each member's slice of a batched
  pass reduces in the same order as the single-member pass.  Batched
  workspaces are sized on demand per batch width
  (:meth:`AprodPlan.ensure_batch`) and counted against the same
  :data:`PLAN_BUDGET_BYTES` budget by :func:`select_strategies` via
  its ``batch`` parameter.

:func:`select_strategies` is the shape-based heuristic (re-exported
through :mod:`repro.frameworks.tuning`) that decides when the plan
pays for itself; :class:`~repro.core.aprod.AprodOperator` resolves its
``"auto"`` strategies through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
# Module level, never inside the build: the first import costs ~0.1 s,
# which no first request of a worker process should pay.
import scipy.sparse as sp

from repro.system.sparse import GaiaSystem
from repro.system.structure import (
    ASTRO_PARAMS_PER_STAR,
    ATT_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    SystemDims,
)

#: Strategy name routed to :meth:`AprodPlan.aprod1`.
FUSED_GATHER = "fused"

#: Strategy name routed to :meth:`AprodPlan.aprod2`.
SORTED_SEGMENT_SCATTER = "sorted_segment"

#: Below this observation count the one-off plan build (packing plus a
#: counting sort of the nnz keys) is not worth any per-iteration win,
#: and the heuristic keeps the classic four-kernel path -- whose
#: results stay bitwise those of the reference kernels.
FUSED_MIN_OBS = 4096

#: Where the astro / attitude / instrumental sections of a packed row
#: end (a global column, when present, follows the last).
_ASTRO_END = ASTRO_PARAMS_PER_STAR
_ATT_END = _ASTRO_END + ATT_PARAMS_PER_ROW
_INSTR_END = _ATT_END + INSTR_PARAMS_PER_ROW

#: Workspace budget of one plan.  Past this the heuristic falls back
#: to the cache-blocked ``chunked`` kernels instead of materializing
#: the sorted nnz-sized workspaces.
PLAN_BUDGET_BYTES = 4 << 30


# ----------------------------------------------------------------------
# Primitives (stateless gather, stateful scatter)
# ----------------------------------------------------------------------
def fused_gather_dot(
    values: np.ndarray,
    cols: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
    *,
    work: np.ndarray | None = None,
    row_work: np.ndarray | None = None,
) -> None:
    """Accumulate ``out[i] += values[i, :] . x[cols[i, :]]`` in one pass.

    Same contract as :func:`~repro.core.kernels.gather_scatter.
    gather_dot` but with optional caller-owned buffers: ``work``
    (``(m, k)``, the gathered/multiplied contributions) and
    ``row_work`` (``(m,)``, the row reduction).  With both supplied
    the whole pass runs in preallocated memory -- the plan's hot path;
    without them transient buffers are allocated (one-shot use).

    The gather runs with ``mode="clip"`` (``np.take`` buffers -- i.e.
    allocates -- under the default ``mode="raise"``), so column
    indices are bounds-checked once up front, not per element.
    """
    if values.shape != cols.shape:
        raise ValueError(
            f"values {values.shape} and cols {cols.shape} must match"
        )
    if cols.size and (int(cols.min()) < 0 or int(cols.max()) >= x.shape[0]):
        raise ValueError("cols index outside x")
    if work is None:
        work = np.empty(values.shape)
    elif work.shape != values.shape:
        raise ValueError(
            f"work has shape {work.shape}, expected {values.shape}"
        )
    np.take(x, cols, mode="clip", out=work)
    # einsum fuses the multiply and the row reduction into one pass
    # over the workspace -- measurably faster than a separate
    # ``np.multiply`` + ``np.sum(axis=1)`` pair on wide packed rows.
    if row_work is None:
        out += np.einsum("ij,ij->i", work, values)
    else:
        np.einsum("ij,ij->i", work, values, out=row_work)
        out += row_work


def _column_order(values: np.ndarray, cols: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-sorted ``(values, rows, segment starts, segment columns)``.

    CSR -> CSC is a stable counting sort of the flat keys, O(nnz): a
    column lists its entries in row-major order, duplicates inside one
    row left to right (neither format is canonicalized on the way) --
    the order a stable comparison sort of the keys would give.
    """
    m, k = values.shape
    if m * k == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(0), empty, empty, empty
    keys = np.ascontiguousarray(cols, dtype=np.int64).reshape(-1)
    if int(keys.min()) < 0:
        raise ValueError(
            f"negative column key {int(keys.min())}: a scatter target "
            "must be a valid index into the output"
        )
    csc = sp.csr_matrix(
        (np.ascontiguousarray(values, dtype=np.float64).reshape(-1), keys,
         np.arange(0, m * k + 1, k)),
        shape=(m, int(keys.max()) + 1),
    ).tocsc()
    # A column without entries repeats its indptr, and reduceat on a
    # repeated start returns the *next* element, not 0: only occupied
    # columns become segments.
    occupied = np.diff(csc.indptr) > 0
    # int64 throughout: scipy hands back int32 when it fits, and np.take
    # converts (allocates) non-intp indices on every call.
    return (csc.data, csc.indices.astype(np.int64),
            csc.indptr[:-1][occupied].astype(np.int64),
            np.flatnonzero(occupied))


class SortedSegmentScatter:
    """Collision-free scatter-add for one frozen ``(values, cols)`` pair.

    Build once, apply every iteration: the constructor puts the
    coefficients in column order with one stable counting-sort pass
    (ties keep row-major order, entries of one row their left-to-right
    order), keeps one segment per column that has entries, and
    preallocates the nnz-sized contribution workspace.
    :meth:`add_into` then accumulates
    ``out[cols[i, j]] += values[i, j] * y[i]`` as one gather, one
    multiply and one ``np.add.reduceat`` -- no collisions, no per-call
    allocations, and a summation order frozen at build time, so the
    result is bitwise reproducible across applications (the property
    atomic scatter cannot offer).  Column keys must be non-negative.
    """

    def __init__(self, values: np.ndarray, cols: np.ndarray) -> None:
        if values.ndim != 2 or values.shape != cols.shape:
            raise ValueError(
                f"values {values.shape} and cols {cols.shape} must be "
                "matching 2-D arrays"
            )
        m, k = values.shape
        self.shape = (m, k)
        self.nnz = m * k
        # The coefficient stream in column order, the row feeding each
        # sorted slot (gathers ``y``), where each segment starts, and
        # its target column (one per segment, strictly increasing).
        (self._sorted_values, self._sorted_rows, self._seg_starts,
         self.segment_cols) = _column_order(values, cols)
        self.n_segments = int(self.segment_cols.shape[0])
        self._alloc_workspaces(1)

    def _alloc_workspaces(self, k: int) -> None:
        """One contribution plane and two segment planes per member."""
        self._contrib_b = np.empty((k, self.nnz))
        self._seg_sums_b = np.empty((k, self.n_segments))
        self._col_ws_b = np.empty((k, self.n_segments))
        # The single-member pass works in member 0's planes.
        self._contrib = self._contrib_b[0]
        self._seg_sums = self._seg_sums_b[0]
        self._col_ws = self._col_ws_b[0]

    @property
    def workspace_nbytes(self) -> int:
        """Bytes held by the precomputed index/value/workspace arrays."""
        return (self._sorted_values.nbytes + self._sorted_rows.nbytes
                + self._seg_starts.nbytes + self.segment_cols.nbytes
                + self._contrib_b.nbytes + self._seg_sums_b.nbytes
                + self._col_ws_b.nbytes)

    def ensure_batch(self, k: int) -> None:
        """Preallocate the batched workspaces for batch width ``k``.

        Idempotent; growing the width reallocates, shrinking reuses the
        leading slices, so a converging batch (fewer active members
        each pass) never reallocates.
        """
        if k < 1:
            raise ValueError(f"batch width must be >= 1, got {k}")
        if self._contrib_b.shape[0] < k:
            self._alloc_workspaces(k)

    def add_into(self, y: np.ndarray, out: np.ndarray) -> None:
        """Accumulate the scatter of ``values * y[:, None]`` into ``out``."""
        if y.shape != (self.shape[0],):
            raise ValueError(
                f"y has shape {y.shape}, expected ({self.shape[0]},)"
            )
        if self.nnz == 0:
            return
        if int(self.segment_cols[-1]) >= out.shape[0]:
            raise ValueError(
                f"out has {out.shape[0]} entries but the scatter targets "
                f"column {int(self.segment_cols[-1])}"
            )
        # mode="clip" skips np.take's buffered (allocating) bounds-check
        # path; the row indices are in range by construction.
        np.take(y, self._sorted_rows, mode="clip", out=self._contrib)
        np.multiply(self._contrib, self._sorted_values, out=self._contrib)
        np.add.reduceat(self._contrib, self._seg_starts,
                        out=self._seg_sums)
        # The segment columns are distinct by construction, so the
        # read-add-write triple below is collision-free (no np.add.at).
        np.take(out, self.segment_cols, mode="clip", out=self._col_ws)
        self._col_ws += self._seg_sums
        out[self.segment_cols] = self._col_ws

    def add_into_batch(self, Y: np.ndarray, out: np.ndarray) -> None:
        """Batched :meth:`add_into`: ``K`` scatters in one reduceat pass.

        ``Y`` is ``(K, m)`` batch-major, ``out`` is ``(K, n)``; member
        ``j`` accumulates exactly ``add_into(Y[j], out[j])``.  The
        segment reduction runs along the trailing axis with the same
        frozen left-to-right order as the single-member pass, so each
        member's result is bitwise the unbatched scatter.
        """
        if Y.ndim != 2 or Y.shape[1] != self.shape[0]:
            raise ValueError(
                f"Y has shape {Y.shape}, expected (K, {self.shape[0]})"
            )
        if out.shape[0] != Y.shape[0]:
            raise ValueError(
                f"out has {out.shape[0]} members, Y has {Y.shape[0]}"
            )
        if self.nnz == 0:
            return
        if int(self.segment_cols[-1]) >= out.shape[1]:
            raise ValueError(
                f"out has {out.shape[1]} entries but the scatter targets "
                f"column {int(self.segment_cols[-1])}"
            )
        k = Y.shape[0]
        self.ensure_batch(k)
        contrib = self._contrib_b[:k]
        seg_sums = self._seg_sums_b[:k]
        col_ws = self._col_ws_b[:k]
        np.take(Y, self._sorted_rows, axis=1, mode="clip", out=contrib)
        np.multiply(contrib, self._sorted_values, out=contrib)
        np.add.reduceat(contrib, self._seg_starts, axis=1, out=seg_sums)
        np.take(out, self.segment_cols, axis=1, mode="clip", out=col_ws)
        col_ws += seg_sums
        out[:, self.segment_cols] = col_ws


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class AprodPlan:
    """Fused ``aprod1`` / ``aprod2`` kernels for one bound system.

    Packs the four coefficient blocks into one ``(n_obs, k_total)``
    value/column pair (``k_total`` = 23, or 24 with a global column),
    builds the :class:`SortedSegmentScatter` over the packed keys, and
    preallocates the row workspace.  The gathered operand of
    :meth:`aprod1` lives in the scatter's contribution plane: each
    product overwrites the whole plane before reading it and neither
    outlives its call, so one nnz-sized scratch plane per batch member
    serves both (an operator was never safe to share between threads).
    The resulting products cover the observation rows only --
    constraint rows stay with the dispatching
    :class:`~repro.core.aprod.AprodOperator`, which also reads its
    per-block columns as slices of :attr:`packed_cols`.
    """

    def __init__(self, system: GaiaSystem) -> None:
        t0 = time.perf_counter()
        d = system.dims
        k_total = _INSTR_END + (1 if d.n_glob_params else 0)
        m = d.n_obs
        self.n_obs = m
        self.k_total = k_total
        self.n_params = d.n_params
        values = np.empty((m, k_total))
        cols = np.empty((m, k_total), dtype=np.int64)
        a_end, t_end, i_end = _ASTRO_END, _ATT_END, _INSTR_END
        values[:, :a_end] = system.astro_values
        cols[:, :a_end] = system.astro_columns()
        values[:, a_end:t_end] = system.att_values
        cols[:, a_end:t_end] = system.att_columns()
        values[:, t_end:i_end] = system.instr_values
        cols[:, t_end:i_end] = system.instr_columns()
        if d.n_glob_params:
            values[:, i_end] = system.glob_values[:, 0]
            cols[:, i_end] = d.glob_offset
        if m and (int(cols.min()) < 0 or int(cols.max()) >= d.n_params):
            raise ValueError("packed columns outside the unknown space")
        self.packed_values = values
        self.packed_cols = cols
        self._scatter = SortedSegmentScatter(values, cols)
        self._row_ws_b = np.empty((1, m))
        self._row_ws = self._row_ws_b[0]
        self.build_seconds = time.perf_counter() - t0

    @property
    def workspace_nbytes(self) -> int:
        """Total bytes preallocated by the plan (packed + workspaces)."""
        return (self.packed_values.nbytes + self.packed_cols.nbytes
                + self._row_ws_b.nbytes + self._scatter.workspace_nbytes)

    def block_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Astro / attitude / instrumental sections of :attr:`packed_cols`.

        Views, not copies: the per-block kernels of a mixed strategy
        read the columns the plan already packed.
        """
        cols = self.packed_cols
        return (cols[:, :_ASTRO_END], cols[:, _ASTRO_END:_ATT_END],
                cols[:, _ATT_END:_INSTR_END])

    def ensure_batch(self, k: int) -> None:
        """Preallocate batched gather/scatter workspaces for width ``k``.

        Idempotent per width; a shrinking active set reuses the leading
        slices so the batched hot loop stays allocation-free once the
        widest pass has run.
        """
        if k < 1:
            raise ValueError(f"batch width must be >= 1, got {k}")
        if self._row_ws_b.shape[0] < k:
            self._row_ws_b = np.empty((k, self.n_obs))
            self._row_ws = self._row_ws_b[0]
        self._scatter.ensure_batch(k)

    def aprod1(self, x: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out += A_obs @ x`` as one packed gather-dot pass.

        Column bounds were checked once at build time, so the pass is
        one gather plus one fused multiply-reduce into the
        preallocated workspaces.
        """
        gather = self._scatter._contrib.reshape(self.n_obs, self.k_total)
        np.take(x, self.packed_cols, mode="clip", out=gather)
        np.einsum("ij,ij->i", gather, self.packed_values,
                  out=self._row_ws)
        obs_out += self._row_ws

    def aprod2(self, y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out += A_obs.T @ y`` as one deterministic segment reduction."""
        self._scatter.add_into(y_obs, out)

    def column_sq_norms(self, out: np.ndarray) -> None:
        """Accumulate the squared column norms of ``A_obs`` into ``out``.

        One keyed reduction over the contiguous packed block, squares
        staged in the scratch plane.  The four sections are disjoint
        column ranges, so every column sums the same terms in the same
        row-major order as a per-section
        :func:`~repro.core.kernels.gather_scatter.column_sq_norms`
        pass -- bitwise the same norms.
        """
        squares = self._scatter._contrib
        np.square(self.packed_values.reshape(-1), out=squares)
        out += np.bincount(self.packed_cols.reshape(-1), weights=squares,
                           minlength=self.n_params)

    # -- trailing batch axis -------------------------------------------
    def aprod1_batch(self, X: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out[j] += A_obs @ X[j]`` for all ``K`` members at once.

        ``X`` is ``(K, n_params)`` batch-major, ``obs_out`` is
        ``(K, n_obs)``.  One gather and one fused multiply-reduce
        advance every member; the contraction still runs over the
        packed coefficient axis exactly as in :meth:`aprod1`, so each
        member's slice matches the single-member pass.
        """
        if X.ndim != 2 or X.shape[1] != self.n_params:
            raise ValueError(
                f"X has shape {X.shape}, expected (K, {self.n_params})"
            )
        k = X.shape[0]
        self.ensure_batch(k)
        gather = self._scatter._contrib_b[:k].reshape(
            k, self.n_obs, self.k_total)
        rows = self._row_ws_b[:k]
        np.take(X, self.packed_cols, axis=1, mode="clip", out=gather)
        np.einsum("bij,ij->bi", gather, self.packed_values, out=rows)
        obs_out += rows

    def aprod2_batch(self, Y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out[j] += A_obs.T @ Y_obs[j]`` as one batched reduction."""
        self._scatter.add_into_batch(Y_obs, out)


# ----------------------------------------------------------------------
# Shape heuristic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySelection:
    """Resolved host kernel strategies for one system shape."""

    gather: str
    scatter: str
    astro_scatter: str
    reason: str

    @property
    def fused(self) -> bool:
        """True when the selection routes through an :class:`AprodPlan`."""
        return (self.gather == FUSED_GATHER
                or self.scatter == SORTED_SEGMENT_SCATTER)


def plan_workspace_bytes(dims: SystemDims, batch: int = 1) -> int:
    """Predicted workspace footprint of an :class:`AprodPlan`.

    Five nnz-sized planes of ``8 B`` (packed values and columns, the
    scatter's sorted values and rows, one scratch plane), the row
    reduction, and the four segment arrays (bounded by ``n_params``).
    With ``batch > 1`` the per-member workspaces -- one scratch plane,
    one row reduction and the two segment planes -- come once more per
    member, while the packed coefficients and sorted index streams
    stay shared.  Equals :attr:`AprodPlan.workspace_nbytes` (after
    ``ensure_batch(batch)``) whenever every unknown has an
    observation.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    k_total = _INSTR_END + (1 if dims.n_glob_params else 0)
    nnz = dims.n_obs * k_total
    per_member = nnz + dims.n_obs + 2 * dims.n_params
    return (4 * nnz + 2 * dims.n_params + batch * per_member) * 8


def select_strategies(dims: SystemDims, batch: int = 1
                      ) -> StrategySelection:
    """Choose host kernel strategies from the system shape alone.

    Mirrors the paper's per-platform geometry tuning (§IV/§V-B) on the
    host: the fused plan wins once its one-off build cost (packing plus
    one counting-sort pass over the nnz keys) amortizes over the
    iterations and its packed workspaces fit the budget.

    - tiny systems (``n_obs`` < :data:`FUSED_MIN_OBS`): classic
      four-kernel path -- the plan build dominates, and bitwise
      continuity with the reference path matters more than throughput;
    - oversized plans (workspaces past :data:`PLAN_BUDGET_BYTES`):
      cache-blocked ``chunked`` kernels;
    - everything else: packed ``fused`` gather + deterministic
      ``sorted_segment`` scatter.

    ``batch`` is the intended trailing batch width: a batched solve
    multiplies the per-member workspaces
    (:func:`plan_workspace_bytes`), so a system that compiles a fused
    plan solo can exceed the budget once ``K`` members ride on it --
    the heuristic then falls back to the cache-blocked kernels for the
    whole batch.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if dims.n_obs < FUSED_MIN_OBS:
        return StrategySelection(
            gather="vectorized", scatter="bincount",
            astro_scatter="bincount",
            reason=(f"n_obs={dims.n_obs} < {FUSED_MIN_OBS}: plan build "
                    "would dominate; classic four-kernel path"),
        )
    footprint = plan_workspace_bytes(dims, batch)
    if footprint > PLAN_BUDGET_BYTES:
        return StrategySelection(
            gather="chunked", scatter="chunked",
            astro_scatter="bincount",
            reason=(f"plan workspaces ({footprint / 2**30:.1f} GiB at "
                    f"batch={batch}) exceed the budget; cache-blocked "
                    "kernels"),
        )
    return StrategySelection(
        gather=FUSED_GATHER, scatter=SORTED_SEGMENT_SCATTER,
        astro_scatter="bincount",
        reason=(f"n_obs={dims.n_obs}: fused plan amortizes "
                f"({footprint / 2**20:.0f} MiB workspaces at "
                f"batch={batch})"),
    )
