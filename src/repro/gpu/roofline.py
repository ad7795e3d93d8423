"""Roofline analysis of the solver's kernels.

Places every kernel of one LSQR iteration on the roofline model:
arithmetic intensity (flops per byte actually moved, including the
transaction-amplified random accesses) against the device's ridge
point (`fp64_peak / bandwidth_peak`).  The AVU-GSR kernels sit far
left of every ridge -- the quantitative version of the paper's
"well-known, highly memory-bound operation" (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.workload import build_iteration_workload
from repro.system.structure import SystemDims


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position on one device's roofline."""

    kernel: str
    device: str
    arithmetic_intensity: float  # flop / byte moved
    ridge_point: float           # flop / byte where compute binds
    attainable_tflops: float     # min(peak, AI * BW)

    @property
    def memory_bound(self) -> bool:
        """True left of the ridge (bandwidth-limited)."""
        return self.arithmetic_intensity < self.ridge_point


@dataclass(frozen=True)
class RooflineReport:
    """All kernels of one iteration on one device."""

    device: str
    points: tuple[RooflinePoint, ...]

    def summary(self) -> str:
        """Text table of the roofline placement."""
        lines = [
            f"Roofline on {self.device} "
            f"(ridge at {self.points[0].ridge_point:.2f} flop/B)",
            f"{'kernel':<14}{'AI [flop/B]':>13}{'attainable':>13}"
            f"{'bound':>9}",
        ]
        for p in self.points:
            bound = "memory" if p.memory_bound else "compute"
            lines.append(
                f"{p.kernel:<14}{p.arithmetic_intensity:>13.4f}"
                f"{p.attainable_tflops:>11.2f}TF{bound:>9}"
            )
        return "\n".join(lines)

    @property
    def all_memory_bound(self) -> bool:
        """The §VI claim, checked."""
        return all(p.memory_bound for p in self.points)


def roofline_report(device: DeviceSpec, dims: SystemDims
                    ) -> RooflineReport:
    """Roofline placement of every kernel of one iteration."""
    workload = build_iteration_workload(dims)
    ridge = (device.fp64_tflops * 1e12) / device.peak_bandwidth_bytes
    points = []
    for w in workload.all_kernels:
        moved = w.streamed_bytes + (
            w.random_accesses * device.random_transaction_bytes
        )
        ai = w.flops / moved if moved else float("inf")
        attainable = min(
            device.fp64_tflops,
            ai * device.peak_bandwidth_bytes / 1e12,
        )
        points.append(RooflinePoint(
            kernel=w.name,
            device=device.name,
            arithmetic_intensity=ai,
            ridge_point=ridge,
            attainable_tflops=attainable,
        ))
    return RooflineReport(device=device.name, points=tuple(points))
