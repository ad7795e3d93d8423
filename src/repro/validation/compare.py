"""Solution and standard-error comparison machinery.

Fig. 6 of the paper plots, per astrometric unknown, the port's
solution (and its standard error) against the production solution,
with the one-to-one line as reference; the text requires (a) agreement
within 1 sigma and (b) the mean and standard deviation of the
standard-error differences below the 10 micro-arcsecond target.  The
functions here compute exactly those quantities, per solution section.

Ports differ from production in how ``aprod2`` resolves its scatter
collisions.  :class:`BlockKernels` is the paper's four per-submatrix
kernels on the host, :class:`PortKernels` that set with a port's
summation order, and :func:`port_operator` the operator a port's
execution on a device corresponds to; the production reference is the
same emulation with the atomic scatter on every block.  The host's own
solves run the compiled plan (:mod:`repro.core.kernels.plan`); these
kernel sets exist only to be compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.kernels.gather_scatter import (
    column_sq_norms,
    gather_dot,
    scatter_add,
)
from repro.core.lsqr import LSQRResult, lsqr_solve
from repro.core.variance import MICROARCSEC_RAD, standard_errors
from repro.frameworks.base import Port
from repro.gpu.atomics import AtomicMode
from repro.gpu.device import DeviceSpec
from repro.system.sparse import GaiaSystem
from repro.system.structure import SystemDims

#: Gaia accuracy target used as the validation threshold (§V-C):
#: "always stay below the 10 micro-arcseconds threshold".
MICROARCSEC_THRESHOLD_UAS = 10.0


@dataclass(frozen=True)
class PortSolution:
    """One port's solve of the validation dataset."""

    port_key: str
    device_name: str
    x: np.ndarray
    se: np.ndarray
    itn: int
    r2norm: float


@dataclass(frozen=True)
class SectionComparison:
    """Comparison of one solution section against the reference.

    All '*_uas' quantities are in micro-arcseconds (the solution
    sections are radian-valued for the astrometric/attitude parts).
    """

    section: str
    n: int
    max_abs_diff: float
    mean_diff_uas: float
    std_diff_uas: float
    se_mean_diff_uas: float
    se_std_diff_uas: float
    frac_within_1sigma: float
    one_to_one_slope: float

    @property
    def within_threshold(self) -> bool:
        """§V-C criterion on the standard-error differences."""
        return (
            abs(self.se_mean_diff_uas) < MICROARCSEC_THRESHOLD_UAS
            and self.se_std_diff_uas < MICROARCSEC_THRESHOLD_UAS
        )


@dataclass(frozen=True)
class ValidationComparison:
    """Full comparison of one port against the reference."""

    port_key: str
    device_name: str
    sections: dict[str, SectionComparison]

    @property
    def passed(self) -> bool:
        """True when every section meets the §V-C criteria."""
        return all(
            s.within_threshold and s.frac_within_1sigma >= 0.99
            for s in self.sections.values()
        )


class BlockKernels:
    """``A_obs`` as its four coefficient blocks, applied block by block.

    The CUDA production code runs ``aprod1`` and ``aprod2`` as four
    kernels each -- ``aprod{1,2}_Kernel_astro/att/instr/glob()`` (§IV).
    This is that decomposition on the host:

    - **astro / att / instr**: a row-blocked gather-dot for ``aprod1``
      and a keyed scatter-add for ``aprod2``
      (:mod:`~repro.core.kernels.gather_scatter`) over each block's
      coefficients and global columns.  The columns are reconstructed
      once from the compressed indices (``matrixIndexAstro`` /
      ``matrixIndexAtt`` / ``instrCol``, §III-B) and reused every
      iteration, as the GPU ports keep their index arrays
      device-resident.
    - **glob**: at most one coefficient per row, all in the one global
      (PPN-gamma) column.  ``aprod1`` is a broadcast multiply;
      ``aprod2`` degenerates to one dot product, the tree reduction the
      tuned GPU ports use where a naive atomic has the worst contention
      of the four.

    The products have the signatures of
    :class:`~repro.core.kernels.plan.AprodPlan`'s: they cover the
    observation rows only and accumulate into a caller-owned ``out``.
    :attr:`work` is the ``(kernel, rows, nnz)`` each direction reports.
    """

    def __init__(self, system: GaiaSystem) -> None:
        d = system.dims
        self.n_obs = d.n_obs
        #: ``(name, values, cols)`` of the three column blocks, in
        #: submission order.
        self.blocks = (
            ("astro", system.astro_values, system.astro_columns()),
            ("att", system.att_values, system.att_columns()),
            ("instr", system.instr_values, system.instr_columns()),
        )
        # A contiguous copy (8 B a row): BLAS dot sums a strided
        # operand in another order.
        self.glob = (np.ascontiguousarray(system.glob_values[:, 0])
                     if d.n_glob_params else None)
        self.glob_col = d.glob_offset
        lanes = [(name, values.shape[1]) for name, values, _ in self.blocks]
        if self.glob is not None:
            lanes.append(("glob", 1))
        m = d.n_obs
        self.work = {
            product: tuple((f"{product}_{name}", m, m * k)
                           for name, k in lanes)
            for product in ("aprod1", "aprod2")
        }

    def aprod1(self, x: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out += A_obs @ x``, block by block."""
        for _, values, cols in self.blocks:
            gather_dot(values, cols, x, obs_out)
        if self.glob is not None:
            obs_out += self.glob * x[self.glob_col]

    def aprod2(self, y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out += A_obs.T @ y_obs``, block by block, glob last."""
        for name, values, cols in self.blocks:
            self.scatter_block(name, values, cols, y_obs, out)
        if self.glob is not None:
            out[self.glob_col] += float(np.dot(self.glob, y_obs))

    def scatter_block(self, name: str, values: np.ndarray, cols: np.ndarray,
                      y_obs: np.ndarray, out: np.ndarray) -> None:
        """One block's ``aprod2`` scatter (the ports' variation point)."""
        scatter_add(values, cols, y_obs, out)

    def aprod1_batch(self, X: np.ndarray, obs_out: np.ndarray) -> None:
        """``obs_out[j] += A_obs @ X[j]``, one member at a time."""
        for j in range(X.shape[0]):
            self.aprod1(X[j], obs_out[j])

    def aprod2_batch(self, Y_obs: np.ndarray, out: np.ndarray) -> None:
        """``out[j] += A_obs.T @ Y_obs[j]``, one member at a time."""
        for j in range(Y_obs.shape[0]):
            self.aprod2(Y_obs[j], out[j])

    def column_sq_norms(self, out: np.ndarray) -> None:
        """Accumulate the squared column norms of ``A_obs`` into ``out``:
        one row-major pass per block (the blocks own disjoint columns)."""
        for _, values, cols in self.blocks:
            column_sq_norms(values, cols, out)
        if self.glob is not None:
            column_sq_norms(self.glob[:, None],
                            np.broadcast_to(self.glob_col, (self.n_obs, 1)),
                            out)


class PortKernels(BlockKernels):
    """The block kernels with one port's ``aprod2`` summation order.

    Ports whose atomics are native RMW add into a column in an
    unordered scatter (``np.add.at``, ``atomic=True``); CAS-loop ports
    retry in key order, which is the block kernels' own keyed
    reduction (``atomic=False, star_sorted=False`` is
    :class:`BlockKernels` itself).  Tuned language-level ports
    additionally take the astrometric collision-free fast path on
    star-sorted data (``star_sorted=True``): one segment sum per star
    writes each star's five unknowns exactly once (§IV).  The global column stays one dot
    product either way.  The results differ only in floating-point
    rounding -- the very differences the §V-C validation is designed to
    bound.
    """

    def __init__(self, system: GaiaSystem, *, atomic: bool,
                 star_sorted: bool) -> None:
        super().__init__(system)
        self.atomic = atomic
        self.star_sorted = star_sorted

    def scatter_block(self, name: str, values: np.ndarray, cols: np.ndarray,
                      y_obs: np.ndarray, out: np.ndarray) -> None:
        if name == "astro" and self.star_sorted:
            star_segment_scatter(values, cols, y_obs, out)
        elif self.atomic:
            atomic_scatter(values, cols, y_obs, out)
        else:
            super().scatter_block(name, values, cols, y_obs, out)


def atomic_scatter(values: np.ndarray, cols: np.ndarray, y: np.ndarray,
                   out: np.ndarray) -> None:
    """``out[cols[i, j]] += values[i, j] * y[i]`` as one unordered
    ``np.add.at`` scatter: the RMW-atomic analogue."""
    np.add.at(out, cols.ravel(), (values * y[:, None]).ravel())


def star_segment_scatter(values: np.ndarray, cols: np.ndarray,
                         y: np.ndarray, out: np.ndarray) -> None:
    """``out += A_astro.T @ y`` as one ``np.add.reduceat`` segment sum
    per star; the rows must be star-sorted (the production layout)."""
    start = cols[:, 0]
    if start.size == 0:
        return
    if np.any(np.diff(start) < 0):
        raise ValueError(
            "the star-segment scatter requires star-sorted rows")
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(start)) + 1])
    sums = np.add.reduceat(values * y[:, None], bounds, axis=0)
    # One segment per star: its first row's columns are the star's.
    out[cols[bounds].ravel()] += sums.ravel()


class PortOperator(AprodOperator):
    """An :class:`~repro.core.aprod.AprodOperator` on
    :class:`PortKernels`: the Fig. 6 port emulation."""

    def __init__(self, system: GaiaSystem, *, atomic: bool,
                 star_sorted: bool, **operator_kwargs) -> None:
        self._port = dict(atomic=atomic, star_sorted=star_sorted)
        super().__init__(system, **operator_kwargs)

    def _build_kernels(self) -> PortKernels:
        return PortKernels(self.system, **self._port)


def port_operator(system: GaiaSystem, port: Port, device: DeviceSpec,
                  **operator_kwargs) -> PortOperator:
    """The operator ``port``'s execution on ``device`` corresponds to.

    RMW-atomic ports scatter unordered; the tuned language-level ports
    (CUDA, HIP, SYCL) reduce the astrometric block per star.
    ``operator_kwargs`` (``kernel_hook``, ``telemetry``) pass through.
    """
    return PortOperator(
        system, atomic=port.atomic_mode(device) is AtomicMode.RMW,
        star_sorted=port.framework in ("CUDA", "HIP", "SYCL"),
        **operator_kwargs)


def solve_production_reference(
    system: GaiaSystem, *, iter_lim: int | None = None
) -> PortSolution:
    """The stand-in for the CUDA code in production on Leonardo.

    Runs the solver on the production kernel configuration (the block
    kernels with a plain atomic scatter on every block) to full
    convergence with variance accumulation.
    """
    res = lsqr_solve(
        PortOperator(system, atomic=True, star_sorted=False),
        atol=1e-13,
        btol=1e-13,
        iter_lim=iter_lim,
        calc_var=True,
    )
    return _to_solution("CUDA-production", "Leonardo-A100", res)


def solve_as_port(
    system: GaiaSystem,
    port: Port,
    device: DeviceSpec,
    *,
    iter_lim: int | None = None,
) -> PortSolution:
    """Solve the system the way ``port`` executes on ``device``."""
    res = lsqr_solve(
        port_operator(system, port, device),
        atol=1e-13,
        btol=1e-13,
        iter_lim=iter_lim,
        calc_var=True,
    )
    return _to_solution(port.key, device.name, res)


def _to_solution(port_key: str, device_name: str, res: LSQRResult
                 ) -> PortSolution:
    return PortSolution(
        port_key=port_key,
        device_name=device_name,
        x=res.x,
        se=standard_errors(res),
        itn=res.itn,
        r2norm=res.r2norm,
    )


def _one_to_one_slope(ref: np.ndarray, other: np.ndarray) -> float:
    """Least-squares slope of ``other`` vs ``ref`` through the origin."""
    denom = float(np.dot(ref, ref))
    if denom == 0.0:
        return 1.0 if float(np.dot(other, other)) == 0.0 else float("inf")
    return float(np.dot(ref, other) / denom)


def compare_solutions(
    reference: PortSolution,
    candidate: PortSolution,
    dims: SystemDims,
) -> ValidationComparison:
    """Compare a candidate port against the reference, per section.

    The production validation runs solve systems with no global
    section ("no global section, which has not been computed yet in
    production runs"); sections of width zero are skipped.
    """
    if reference.x.shape != candidate.x.shape:
        raise ValueError("reference and candidate sizes differ")
    sections = {}
    for name, sl in dims.section_slices().items():
        rx, cx = reference.x[sl], candidate.x[sl]
        rs, cs = reference.se[sl], candidate.se[sl]
        if rx.size == 0:
            continue
        dx = cx - rx
        ds = cs - rs
        # 1-sigma agreement on the combined uncertainty of the pair.
        sigma = np.sqrt(rs**2 + cs**2)
        safe = np.where(sigma > 0, sigma, np.inf)
        within = float(np.mean(np.abs(dx) <= np.maximum(safe, 1e-300)))
        sections[name] = SectionComparison(
            section=name,
            n=rx.size,
            max_abs_diff=float(np.max(np.abs(dx))),
            mean_diff_uas=float(np.mean(dx)) / MICROARCSEC_RAD,
            std_diff_uas=float(np.std(dx)) / MICROARCSEC_RAD,
            se_mean_diff_uas=float(np.mean(ds)) / MICROARCSEC_RAD,
            se_std_diff_uas=float(np.std(ds)) / MICROARCSEC_RAD,
            frac_within_1sigma=within,
            one_to_one_slope=_one_to_one_slope(rx, cx),
        )
    return ValidationComparison(
        port_key=candidate.port_key,
        device_name=candidate.device_name,
        sections=sections,
    )
