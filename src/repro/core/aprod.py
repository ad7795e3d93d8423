"""The ``aprod1`` / ``aprod2`` dispatch layer.

§III-B: the two most intensive computations of one LSQR iteration are

- ``aprod1``:  ``b_hat = A @ x``          (Eq. 3)
- ``aprod2``:  ``x_hat += A.T @ b_hat``   (Eq. 4)

each executed as four per-submatrix kernels.  :class:`AprodOperator`
binds a :class:`~repro.system.GaiaSystem` to a choice of kernel
strategies, holds the matrix in the one form those strategies read
(the reconstructed block columns, or the compiled matrix), handles the
constraint rows appended below the observation block, and optionally
reports per-kernel work to a profiler hook (the Python analogue of
running under ``nsys``/``rocprof``).

Beyond the four-kernel reference path, the operator can compile the
system into an :class:`~repro.core.kernels.plan.AprodPlan`
(``gather_strategy="fused"`` / ``scatter_strategy="sorted_segment"``):
``A_obs`` as one SciPy CSR matrix, applied both ways through the
library's own kernels, solo and ``K``-wide alike.  ``"auto"`` resolves
the strategies from the system shape via
:func:`~repro.core.kernels.plan.select_strategies` -- the host
analogue of the paper's per-platform kernel tuning.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.kernels import astro as k_astro
from repro.core.kernels import att as k_att
from repro.core.kernels import glob as k_glob
from repro.core.kernels import instr as k_instr
from repro.core.kernels.gather_scatter import column_sq_norms
from repro.core.kernels.plan import (
    FUSED_GATHER,
    SORTED_SEGMENT_SCATTER,
    AprodPlan,
    select_strategies,
)
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem

#: Kernel names in submission order (aprod1 then aprod2, §IV streams).
KERNEL_NAMES = (
    "aprod1_astro", "aprod1_att", "aprod1_instr", "aprod1_glob",
    "aprod2_astro", "aprod2_att", "aprod2_instr", "aprod2_glob",
)

#: Kernel names of the compiled plan path (one kernel per direction).
FUSED_KERNEL_NAMES = ("aprod1_fused", "aprod2_fused")

#: Hook signature: (kernel_name, rows, nnz) -> None.
KernelHook = Callable[[str, int, int], None]


class AprodOperator:
    """``A`` / ``A^T`` products for one system, with pluggable kernels.

    Parameters
    ----------
    system:
        The bound system.
    gather_strategy:
        Strategy for all ``aprod1`` kernels (see
        :data:`~repro.core.kernels.GATHER_STRATEGIES`), plus
        ``"fused"`` (the compiled plan's CSR product) and
        ``"auto"`` (shape heuristic; the default).
    scatter_strategy:
        Strategy for the colliding ``aprod2`` kernels (attitude and
        instrumental; see
        :data:`~repro.core.kernels.SCATTER_STRATEGIES`), plus
        ``"sorted_segment"`` (the whole transpose product as one
        collision-free, bitwise-deterministic product with the
        compiled matrix) and ``"auto"``.
    astro_scatter_strategy:
        Strategy for the astrometric ``aprod2`` kernel; defaults to the
        collision-free ``bincount`` reduction and accepts the
        ``sorted`` fast path on star-sorted systems (unused when the
        scatter runs through the fused plan).
    batch_hint:
        Intended trailing batch width of the callers (1 = single
        solve).  Only consulted by the ``"auto"`` strategy resolution:
        a stacked product allocates its operand and result columns per
        member, so a wide enough batch may resolve to the cache-blocked
        kernels where a solo caller would compile a plan (see
        :func:`~repro.core.kernels.plan.select_strategies`).
    kernel_hook:
        Optional callable invoked after each kernel with
        ``(name, rows, nnz)``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; every kernel execution
        then increments the ``aprod.kernel_calls`` and
        ``aprod.kernel_nnz`` counters (labeled by kernel name), the
        CPU-side analogue of the per-kernel launch counts ``nsys``
        reports.  Building a fused plan additionally sets the
        ``aprod.plan_build_ms`` gauge and ``aprod.plan_workspace_bytes``.
    """

    def __init__(
        self,
        system: GaiaSystem,
        *,
        gather_strategy: str = "auto",
        scatter_strategy: str = "auto",
        astro_scatter_strategy: str = "auto",
        batch_hint: int = 1,
        kernel_hook: KernelHook | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.system = system
        if batch_hint < 1:
            raise ValueError(f"batch_hint must be >= 1, got {batch_hint}")
        self.batch_hint = batch_hint
        if "auto" in (gather_strategy, scatter_strategy,
                      astro_scatter_strategy):
            selection = select_strategies(system.dims, batch=batch_hint)
            if gather_strategy == "auto":
                gather_strategy = selection.gather
            if scatter_strategy == "auto":
                scatter_strategy = selection.scatter
            if astro_scatter_strategy == "auto":
                astro_scatter_strategy = selection.astro_scatter
        self.gather_strategy = gather_strategy
        self.scatter_strategy = scatter_strategy
        self.astro_scatter_strategy = astro_scatter_strategy
        self.kernel_hook = kernel_hook
        self.telemetry = telemetry

        self._plan: AprodPlan | None = None
        if (gather_strategy == FUSED_GATHER
                or scatter_strategy == SORTED_SEGMENT_SCATTER):
            t0 = time.perf_counter()
            self._plan = AprodPlan(system)
            build_ms = (time.perf_counter() - t0) * 1e3
            if telemetry is not None:
                telemetry.gauge("aprod.plan_build_ms").set(build_ms)
                telemetry.gauge("aprod.plan_workspace_bytes").set(
                    float(self._plan.workspace_nbytes)
                )

        d = system.dims
        # Column caches of the block kernels: derived once, reused every
        # iteration (the GPU ports keep the index arrays device-resident
        # for the same reason).  An operator that runs both products
        # through its plan has no block kernel to feed and holds the
        # matrix once, compiled.
        if (gather_strategy != FUSED_GATHER
                or scatter_strategy != SORTED_SEGMENT_SCATTER):
            self._astro_cols = k_astro.columns(system.matrix_index_astro)
            self._att_cols = k_att.columns(
                system.matrix_index_att, d.att_stride, d.att_offset
            )
            self._instr_cols = k_instr.columns(system.instr_col,
                                               d.instr_offset)
        self._glob_col = d.glob_offset if d.n_glob_params else -1

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(rows including constraints, unknowns)."""
        return (self.system.n_rows, self.system.dims.n_params)

    @property
    def plan(self) -> AprodPlan | None:
        """The compiled plan, if either strategy routes through one."""
        return self._plan

    def _emit(self, name: str, rows: int, nnz: int) -> None:
        if self.kernel_hook is not None:
            self.kernel_hook(name, rows, nnz)
        if self.telemetry is not None:
            self.telemetry.counter("aprod.kernel_calls", kernel=name).inc()
            self.telemetry.counter("aprod.kernel_nnz", kernel=name).inc(nnz)

    # ------------------------------------------------------------------
    def aprod1(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A @ x`` over observation and constraint rows.

        Returns the (n_rows,) accumulator; allocates it when ``out`` is
        None.
        """
        sysm = self.system
        d = sysm.dims
        if x.shape != (d.n_params,):
            raise ValueError(
                f"x has shape {x.shape}, expected ({d.n_params},)"
            )
        if out is None:
            out = np.zeros(sysm.n_rows)
        elif out.shape != (sysm.n_rows,):
            raise ValueError(
                f"out has shape {out.shape}, expected ({sysm.n_rows},)"
            )
        obs = out[: d.n_obs]
        if self.gather_strategy == FUSED_GATHER:
            plan = self._plan
            assert plan is not None
            plan.aprod1(x, obs)
            self._emit("aprod1_fused", d.n_obs, d.n_obs * plan.k_total)
        else:
            k_astro.aprod1_astro(sysm.astro_values, self._astro_cols, x,
                                 obs, strategy=self.gather_strategy)
            self._emit("aprod1_astro", d.n_obs, d.n_obs * 5)
            k_att.aprod1_att(sysm.att_values, self._att_cols, x, obs,
                             strategy=self.gather_strategy)
            self._emit("aprod1_att", d.n_obs, d.n_obs * 12)
            k_instr.aprod1_instr(sysm.instr_values, self._instr_cols, x,
                                 obs, strategy=self.gather_strategy)
            self._emit("aprod1_instr", d.n_obs, d.n_obs * 6)
            if d.n_glob_params:
                k_glob.aprod1_glob(sysm.glob_values, self._glob_col, x, obs)
                self._emit("aprod1_glob", d.n_obs, d.n_obs)
        if sysm.constraints is not None and len(sysm.constraints):
            out[d.n_obs:] += sysm.constraints.apply_forward(x)
        return out

    def aprod2(self, y: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``out += A.T @ y`` over observation and constraint rows.

        Returns the (n_params,) accumulator; allocates it when ``out``
        is None.  With ``scatter_strategy="sorted_segment"`` the whole
        observation block reduces in one CSR product whose summation
        order is frozen at plan-build time, so repeated applications
        are bitwise identical.
        """
        sysm = self.system
        d = sysm.dims
        if y.shape != (sysm.n_rows,):
            raise ValueError(
                f"y has shape {y.shape}, expected ({sysm.n_rows},)"
            )
        if out is None:
            out = np.zeros(d.n_params)
        elif out.shape != (d.n_params,):
            raise ValueError(
                f"out has shape {out.shape}, expected ({d.n_params},)"
            )
        obs_y = y[: d.n_obs]
        if self.scatter_strategy == SORTED_SEGMENT_SCATTER:
            plan = self._plan
            assert plan is not None
            plan.aprod2(obs_y, out)
            self._emit("aprod2_fused", d.n_obs, d.n_obs * plan.k_total)
        else:
            k_astro.aprod2_astro(sysm.astro_values, self._astro_cols,
                                 obs_y, out,
                                 strategy=self.astro_scatter_strategy)
            self._emit("aprod2_astro", d.n_obs, d.n_obs * 5)
            k_att.aprod2_att(sysm.att_values, self._att_cols, obs_y, out,
                             strategy=self.scatter_strategy)
            self._emit("aprod2_att", d.n_obs, d.n_obs * 12)
            k_instr.aprod2_instr(sysm.instr_values, self._instr_cols,
                                 obs_y, out,
                                 strategy=self.scatter_strategy)
            self._emit("aprod2_instr", d.n_obs, d.n_obs * 6)
            if d.n_glob_params:
                k_glob.aprod2_glob(sysm.glob_values, self._glob_col,
                                   obs_y, out)
                self._emit("aprod2_glob", d.n_obs, d.n_obs)
        if sysm.constraints is not None and len(sysm.constraints):
            sysm.constraints.apply_transpose(y[d.n_obs:], out)
        return out

    # -- trailing batch axis -------------------------------------------
    def aprod1_batch(self, X: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A @ X[j]`` for a stacked batch of unknown vectors.

        ``X`` is ``(K, n_params)`` batch-major; returns the
        ``(K, n_rows)`` accumulator (allocated when ``out`` is None).
        The compiled plan reads the matrix once for the whole batch
        (one CSR product over the stacked operand); any other strategy
        loops per member through :meth:`aprod1`.  Either way member
        ``j`` is bitwise ``aprod1(X[j])``.
        """
        sysm = self.system
        d = sysm.dims
        if X.ndim != 2 or X.shape[1] != d.n_params:
            raise ValueError(
                f"X has shape {X.shape}, expected (K, {d.n_params})"
            )
        k = X.shape[0]
        if out is None:
            out = np.zeros((k, sysm.n_rows))
        elif out.shape != (k, sysm.n_rows):
            raise ValueError(
                f"out has shape {out.shape}, expected "
                f"({k}, {sysm.n_rows})"
            )
        if self.gather_strategy == FUSED_GATHER:
            plan = self._plan
            assert plan is not None
            plan.aprod1_batch(X, out[:, : d.n_obs])
            self._emit("aprod1_fused", k * d.n_obs,
                       k * d.n_obs * plan.k_total)
            if sysm.constraints is not None and len(sysm.constraints):
                for j in range(k):
                    out[j, d.n_obs:] += sysm.constraints.apply_forward(
                        X[j])
        else:
            for j in range(k):
                self.aprod1(X[j], out=out[j])
        return out

    def aprod2_batch(self, Y: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """``out[j] += A.T @ Y[j]`` for a stacked batch of row vectors.

        ``Y`` is ``(K, n_rows)``; returns the ``(K, n_params)``
        accumulator.  The compiled plan reduces all members in one
        CSR product with the build-time summation order; other
        strategies loop per member.  Either way member ``j`` is bitwise
        ``aprod2(Y[j])``.
        """
        sysm = self.system
        d = sysm.dims
        if Y.ndim != 2 or Y.shape[1] != sysm.n_rows:
            raise ValueError(
                f"Y has shape {Y.shape}, expected (K, {sysm.n_rows})"
            )
        k = Y.shape[0]
        if out is None:
            out = np.zeros((k, d.n_params))
        elif out.shape != (k, d.n_params):
            raise ValueError(
                f"out has shape {out.shape}, expected "
                f"({k}, {d.n_params})"
            )
        if self.scatter_strategy == SORTED_SEGMENT_SCATTER:
            plan = self._plan
            assert plan is not None
            plan.aprod2_batch(Y[:, : d.n_obs], out)
            self._emit("aprod2_fused", k * d.n_obs,
                       k * d.n_obs * plan.k_total)
            if sysm.constraints is not None and len(sysm.constraints):
                for j in range(k):
                    sysm.constraints.apply_transpose(Y[j, d.n_obs:],
                                                     out[j])
        else:
            for j in range(k):
                self.aprod2(Y[j], out=out[j])
        return out

    # ------------------------------------------------------------------
    def column_sq_norms(self) -> np.ndarray:
        """Squared column norms of ``A`` (observations + constraints)."""
        sysm = self.system
        d = sysm.dims
        out = np.zeros(d.n_params)
        if self._plan is not None:
            # Bitwise the per-section passes below, in one reduction.
            self._plan.column_sq_norms(out)
        else:
            column_sq_norms(sysm.astro_values, self._astro_cols, out)
            column_sq_norms(sysm.att_values, self._att_cols, out)
            column_sq_norms(sysm.instr_values, self._instr_cols, out)
            if d.n_glob_params:
                column_sq_norms(
                    sysm.glob_values[:, :1],
                    np.full((d.n_obs, 1), self._glob_col, dtype=np.int64),
                    out,
                )
        if sysm.constraints is not None:
            for r in sysm.constraints:
                column_sq_norms(r.vals[None, :], r.cols[None, :], out)
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


def aprod1(system: GaiaSystem, x: np.ndarray) -> np.ndarray:
    """One-shot ``A @ x`` (builds a transient operator)."""
    return AprodOperator(system).aprod1(x)


def aprod2(system: GaiaSystem, y: np.ndarray) -> np.ndarray:
    """One-shot ``A.T @ y`` (builds a transient operator)."""
    return AprodOperator(system).aprod2(y)
