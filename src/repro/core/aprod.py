"""The ``aprod1`` / ``aprod2`` dispatch layer.

§III-B: the two most intensive computations of one LSQR iteration are

- ``aprod1``:  ``b_hat = A @ x``          (Eq. 3)
- ``aprod2``:  ``x_hat += A.T @ b_hat``   (Eq. 4)

:class:`AprodOperator` binds a :class:`~repro.system.sparse.GaiaSystem` to
one kernel set over its observation block, the compiled
:class:`~repro.core.kernels.plan.AprodPlan`, at every size and batch
width: the paper tunes one kernel geometry per platform and runs it.
The validation's port emulation
(:class:`repro.validation.compare.PortOperator`) swaps in the block
kernels.

Each product checks shapes, makes one call into the set, reports the
set's per-kernel work to a profiler hook (the Python analogue of
running under ``nsys``/``rocprof``) and applies the constraint rows
appended below the observation block.

The one-shot :func:`aprod1` and :func:`column_sq_norms` compile a system
one row block at a time instead of binding an operator to it.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.kernels import gather_scatter
from repro.core.kernels.plan import STRATEGY_PAIRS, AprodPlan
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem

#: Hook signature: (kernel_name, rows, nnz) -> None.
KernelHook = Callable[[str, int, int], None]


def _check(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


def _accumulator(out: np.ndarray | None, shape: tuple[int, ...]
                 ) -> np.ndarray:
    if out is None:
        return np.zeros(shape)
    _check("out", out, shape)
    return out


def _batch_width(name: str, arr: np.ndarray, width: int) -> int:
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(
            f"{name} has shape {arr.shape}, expected (K, {width})")
    return arr.shape[0]


class AprodOperator:
    """``A`` / ``A^T`` products for one system, on one kernel set.

    Parameters
    ----------
    system:
        The bound system.
    gather_strategy, scatter_strategy, batch_hint:
        Accepted for callers that still spell them: the pair must be
        one of :data:`~repro.core.kernels.plan.STRATEGY_PAIRS` (any
        other raises ``ValueError``), ``batch_hint`` at least 1.
        Neither changes the kernels: every operator compiles the plan.
    kernel_hook:
        Optional callable invoked for each kernel a product runs with
        ``(name, rows, nnz)``; a ``K``-wide product reports each kernel
        once, with ``K`` members' rows and nnz.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; every reported kernel
        then increments the ``aprod.kernel_calls`` and
        ``aprod.kernel_nnz`` counters (labeled by kernel name), the
        CPU-side analogue of the per-kernel launch counts ``nsys``
        reports.  Building a plan additionally sets the
        ``aprod.plan_build_ms`` and ``aprod.plan_bytes`` gauges.
    """

    def __init__(
        self,
        system: GaiaSystem,
        *,
        gather_strategy: str = "auto",
        scatter_strategy: str = "auto",
        batch_hint: int = 1,
        kernel_hook: KernelHook | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if (gather_strategy, scatter_strategy) not in STRATEGY_PAIRS:
            raise ValueError(
                f"gather_strategy={gather_strategy!r}, scatter_strategy="
                f"{scatter_strategy!r}: expected one of {STRATEGY_PAIRS}")
        if batch_hint < 1:
            raise ValueError(f"batch_hint must be >= 1, got {batch_hint}")
        self.system = system
        self.kernel_hook = kernel_hook
        self.telemetry = telemetry
        #: The one kernel set every product calls.
        self.kernels = self._build_kernels()

    def _build_kernels(self) -> AprodPlan:
        """The plan over :attr:`system` (built once)."""
        plan = AprodPlan(self.system)
        if self.telemetry is not None:
            self.telemetry.gauge("aprod.plan_build_ms").set(
                plan.build_seconds * 1e3)
            self.telemetry.gauge("aprod.plan_bytes").set(
                float(plan.workspace_nbytes))
        return plan

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(rows including constraints, unknowns)."""
        return (self.system.n_rows, self.system.dims.n_params)

    @property
    def plan(self) -> AprodPlan | None:
        """The compiled plan (None on a port emulation)."""
        return self.kernels if isinstance(self.kernels, AprodPlan) else None

    @property
    def _constrained(self) -> bool:
        c = self.system.constraints
        return c is not None and len(c) > 0

    def _report(self, product: str, k: int) -> None:
        """Report the set's kernels for one ``k``-member ``product``."""
        for name, rows, nnz in self.kernels.work[product]:
            if self.kernel_hook is not None:
                self.kernel_hook(name, k * rows, k * nnz)
            if self.telemetry is not None:
                self.telemetry.counter("aprod.kernel_calls",
                                       kernel=name).inc()
                self.telemetry.counter("aprod.kernel_nnz",
                                       kernel=name).inc(k * nnz)

    # ------------------------------------------------------------------
    def aprod1(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A @ x`` over observation and constraint rows.

        Returns the (n_rows,) accumulator; allocates it when ``out`` is
        None.
        """
        sysm = self.system
        m = sysm.dims.n_obs
        _check("x", x, (sysm.dims.n_params,))
        out = _accumulator(out, (sysm.n_rows,))
        self.kernels.aprod1(x, out[:m])
        self._report("aprod1", 1)
        if self._constrained:
            out[m:] += sysm.constraints.apply_forward(x)
        return out

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A.T @ y`` over observation and constraint rows.

        Returns the (n_params,) accumulator; allocates it when ``out``
        is None.  Every unknown sums in an order fixed when the kernel
        set is built, so repeated applications are bitwise identical.
        """
        sysm = self.system
        m = sysm.dims.n_obs
        _check("y", y, (sysm.n_rows,))
        out = _accumulator(out, (sysm.dims.n_params,))
        self.kernels.aprod2(y[:m], out)
        self._report("aprod2", 1)
        if self._constrained:
            sysm.constraints.apply_transpose(y[m:], out)
        return out

    # -- trailing batch axis -------------------------------------------
    def aprod1_batch(self, X: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A @ X[j]`` for a stacked batch of unknown vectors.

        ``X`` is ``(K, n_params)`` batch-major; returns the
        ``(K, n_rows)`` accumulator (allocated when ``out`` is None).
        The plan reads the matrix once for the whole batch (one CSR
        product over the stacked operand), and member ``j`` is bitwise
        ``aprod1(X[j])``.
        """
        sysm = self.system
        m = sysm.dims.n_obs
        k = _batch_width("X", X, sysm.dims.n_params)
        out = _accumulator(out, (k, sysm.n_rows))
        self.kernels.aprod1_batch(X, out[:, :m])
        self._report("aprod1", k)
        if self._constrained:
            for j in range(k):
                out[j, m:] += sysm.constraints.apply_forward(X[j])
        return out

    def aprod2_batch(self, Y: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A.T @ Y[j]`` for a stacked batch of row vectors.

        ``Y`` is ``(K, n_rows)``; returns the ``(K, n_params)``
        accumulator.  Member ``j`` is bitwise ``aprod2(Y[j])``.
        """
        sysm = self.system
        m = sysm.dims.n_obs
        k = _batch_width("Y", Y, sysm.n_rows)
        out = _accumulator(out, (k, sysm.dims.n_params))
        self.kernels.aprod2_batch(Y[:, :m], out)
        self._report("aprod2", k)
        if self._constrained:
            for j in range(k):
                sysm.constraints.apply_transpose(Y[j, m:], out[j])
        return out

    # ------------------------------------------------------------------
    def column_sq_norms(self) -> np.ndarray:
        """Squared column norms of ``A`` (observations + constraints),
        each column summed in row-major order."""
        out = np.zeros(self.system.dims.n_params)
        self.kernels.column_sq_norms(out)
        _add_constraint_sq_norms(self.system, out)
        return out

    def as_linear_operator(self):
        """SciPy ``LinearOperator`` view (for cross-checks)."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            shape=self.shape,
            matvec=lambda x: self.aprod1(np.asarray(x, dtype=np.float64)),
            rmatvec=lambda y: self.aprod2(np.asarray(y, dtype=np.float64)),
            dtype=np.float64,
        )


def _row_blocks(system: GaiaSystem
                ) -> Iterator[tuple[int, int, GaiaSystem]]:
    """``(lo, hi, rows lo:hi)`` down ``system``'s observation block in
    :data:`~repro.core.kernels.gather_scatter.CHUNK_ROWS` steps; each
    block is a view (:meth:`~repro.system.sparse.GaiaSystem.row_range`)."""
    m, step = system.dims.n_obs, gather_scatter.CHUNK_ROWS
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        yield lo, hi, system.row_range(lo, hi)


def _add_constraint_sq_norms(system: GaiaSystem, out: np.ndarray) -> None:
    """Add the constraint rows' squared coefficients into ``out``, row
    by row after the observation block (their columns are distinct)."""
    if system.constraints is not None:
        for r in system.constraints:
            gather_scatter.column_sq_norms(r.vals[None, :], r.cols[None, :],
                                           out)


def aprod1(system: GaiaSystem, x: np.ndarray) -> np.ndarray:
    """One-shot ``A @ x``, compiled one row block at a time.

    Each row block's plan writes its own rows.  Rows are independent,
    so the result is bitwise ``AprodOperator(system).aprod1(x)``, while
    the call holds one block's plan, not the whole system's.
    """
    d = system.dims
    _check("x", x, (d.n_params,))
    out = np.zeros(system.n_rows)
    for lo, hi, rows in _row_blocks(system):
        AprodPlan(rows).aprod1(x, out[lo:hi])
    if system.constraints is not None:
        out[d.n_obs:] += system.constraints.apply_forward(x)
    return out


def aprod2(system: GaiaSystem, y: np.ndarray) -> np.ndarray:
    """One-shot ``A.T @ y`` (builds a transient operator: the column
    sums cross row blocks, so it is not streamed)."""
    return AprodOperator(system).aprod2(y)


def column_sq_norms(system: GaiaSystem) -> np.ndarray:
    """One-shot squared column norms of ``A``, streamed by row block.

    Each row block's packed columns (the plan's packing, no plan kept)
    add into one zeroed accumulator, then the constraint rows are added
    once: every column sums its terms in row-major order, bitwise
    :meth:`AprodOperator.column_sq_norms`, while the pass holds one
    block's column indices, not the system's.
    """
    out = np.zeros(system.dims.n_params)
    for lo, hi, rows in _row_blocks(system):
        a, shape = rows.observation_csr(), (hi - lo, system.dims.nnz_per_row)
        gather_scatter.column_sq_norms(a.data.reshape(shape),
                                       a.indices.reshape(shape), out)
    _add_constraint_sq_norms(system, out)
    return out
