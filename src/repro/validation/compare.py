"""Solution and standard-error comparison machinery.

Fig. 6 of the paper plots, per astrometric unknown, the port's
solution (and its standard error) against the production solution,
with the one-to-one line as reference; the text requires (a) agreement
within 1 sigma and (b) the mean and standard deviation of the
standard-error differences below the 10 micro-arcsecond target.  The
functions here compute exactly those quantities, per solution section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aprod import AprodOperator
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


def _port_strategies(port: Port, device: DeviceSpec) -> dict[str, str]:
    """Kernel strategies a port's execution corresponds to.

    Ports whose atomics are native RMW reproduce the unordered-scatter
    summation order (``np.add.at``); CAS-loop ports retry in key order
    (``bincount``); tuned language-level ports additionally use the
    astrometric collision-free fast path on star-sorted data.  The
    numerical results differ only in floating-point rounding -- the
    very differences the §V-C validation is designed to bound.
    """
    mode = port.atomic_mode(device)
    scatter = "atomic" if mode is AtomicMode.RMW else "bincount"
    astro = "sorted" if port.framework in ("CUDA", "HIP", "SYCL") else scatter
    return {
        "gather_strategy": "vectorized",
        "scatter_strategy": scatter,
        "astro_scatter_strategy": astro,
    }


def solve_production_reference(
    system: GaiaSystem, *, iter_lim: int | None = None
) -> PortSolution:
    """The stand-in for the CUDA code in production on Leonardo.

    Runs the solver with the production kernel configuration (plain
    atomic scatter everywhere) to full convergence with variance
    accumulation.
    """
    res = lsqr_solve(
        AprodOperator(system, scatter_strategy="atomic",
                      astro_scatter_strategy="atomic"),
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
        AprodOperator(system, **_port_strategies(port, device)),
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
