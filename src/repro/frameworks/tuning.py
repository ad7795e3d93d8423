"""Kernel-geometry autotuning (the §IV/§V-B tuning study).

The paper hand-tunes the CUDA/HIP/SYCL kernel geometry per platform
for "up to 40% reduction in iteration time", and notes that different
platforms need different tuning.  :func:`tune_port` reproduces that
search: sweep block sizes (and atomic-region grid caps) through the
execution model and report the best configuration and its gain over
the compiler default.

:func:`tune_host_kernels` is the same idea turned on the *host*
reproduction: given only the system shape it selects the aprod kernel
set (the compiled plan or the block kernels) via
:func:`repro.core.kernels.plan.select_strategies` and reports the
memory the compiled plan would hold.

Both sweeps are one-shot: called with explicit dims, they answer for
exactly that shape.  The *online* layer on top of them lives in
:mod:`repro.tuning` (see ``docs/tuning.md``): a
:class:`~repro.tuning.sweep.GeometrySweeper` runs these same
evaluations per (port, platform, size-class), a content-addressed
:class:`~repro.tuning.cache.TunedConfigCache` persists the results,
and the serve layer prices placements with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.kernels.plan import (
    StrategySelection,
    plan_workspace_bytes,
    select_strategies,
)
from repro.frameworks.base import GeometryPolicy, Port, VendorSupport
from repro.gpu.atomics import AtomicMode
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import grid_for
from repro.gpu.stream import StreamSchedule
from repro.gpu.timing import kernel_time
from repro.gpu.workload import build_iteration_workload
from repro.system.structure import SystemDims

#: Block sizes swept by the tuner.
CANDIDATE_BLOCK_SIZES = (32, 64, 128, 256, 512)

#: Atomic-region grid caps swept, as multiples of the SM count
#: (None = uncapped full grid).
CANDIDATE_GRID_CAPS = (None, 16, 8, 4, 2)


def geometry_candidates(
    device: DeviceSpec,
    n_obs: int,
    block_sizes: tuple[int, ...] = CANDIDATE_BLOCK_SIZES,
    grid_caps: tuple[int | None, ...] = CANDIDATE_GRID_CAPS,
) -> list[tuple[int, int | None]]:
    """The deduplicated ``(threads_per_block, atomic_cap)`` sweep grid.

    A cap of ``c`` limits the atomic-region grid to ``c * sm_count``
    blocks; when that bound meets or exceeds the full grid
    (``ceil(n_obs / tpb)`` blocks) the capped geometry is *identical*
    to the uncapped one, so evaluating it would time the same launch
    twice under two keys.  Such aliases collapse onto ``(tpb, None)``
    here, before anything is timed.
    """
    out: list[tuple[int, int | None]] = []
    for tpb in block_sizes:
        full_blocks = max(1, math.ceil(n_obs / tpb))
        for cap in grid_caps:
            if cap is not None and cap * device.sm_count >= full_blocks:
                continue  # alias of (tpb, None): cap never binds
            out.append((tpb, cap))
    return out


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one geometry sweep on one (port, device, dims)."""

    port_key: str
    device_name: str
    best_block_size: int
    best_atomic_cap: int | None
    best_time: float
    default_time: float
    sweep: dict[tuple[int, int | None], float]

    @property
    def gain(self) -> float:
        """Fractional iteration-time reduction vs. the default."""
        if self.default_time == 0:
            return 0.0
        return 1.0 - self.best_time / self.default_time


def _iteration_time_with_geometry(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
    block_size: int,
    atomic_cap: int | None,
) -> float:
    """Model one iteration with an explicit geometry choice."""
    overhead = port.overhead(device)
    workload = build_iteration_workload(dims)
    m = dims.n_obs
    plain = grid_for(m, block_size)
    capped = grid_for(
        m, block_size,
        max_blocks=None if atomic_cap is None else atomic_cap * device.sm_count,
    )
    total = sum(
        kernel_time(device, w, plain, atomic_mode=AtomicMode.NONE,
                    overhead_factor=overhead).total
        for w in workload.aprod1
    )
    schedule = StreamSchedule()
    for i, w in enumerate(workload.aprod2):
        mode = port.atomic_mode(device) if w.atomic_updates else (
            AtomicMode.NONE
        )
        cfg = capped if w.atomic_updates else plain
        schedule.submit(
            i if port.uses_streams else 0,
            kernel_time(device, w, cfg, atomic_mode=mode,
                        overhead_factor=overhead),
        )
    total += schedule.makespan()
    total += kernel_time(device, workload.vector_ops, plain,
                         atomic_mode=AtomicMode.NONE,
                         overhead_factor=overhead).total
    return total


#: Public name for the per-geometry evaluator -- the primitive the
#: online :class:`repro.tuning.sweep.GeometrySweeper` counts and calls.
iteration_time_with_geometry = _iteration_time_with_geometry


def tune_port(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
) -> TuningResult:
    """Sweep kernel geometry for a tunable port on one device.

    Raises ``ValueError`` for ports whose geometry cannot be set
    (PSTL -- "there is no specific directive to tune the number of
    threads and blocks", §IV-e).  The sweep grid is deduplicated by
    :func:`geometry_candidates`: a cap that cannot bind (``cap *
    sm_count >= full grid``) aliases the uncapped entry and is neither
    timed nor reported, so no two sweep keys name the same geometry.
    """
    support: VendorSupport = port.vendor_support(device)
    if support.geometry is GeometryPolicy.FIXED_256:
        raise ValueError(
            f"{port.key} kernels cannot be tuned (no geometry control)"
        )
    sweep: dict[tuple[int, int | None], float] = {}
    for tpb, cap in geometry_candidates(device, dims.n_obs):
        sweep[(tpb, cap)] = _iteration_time_with_geometry(
            port, device, dims, tpb, cap
        )
    (best_tpb, best_cap), best_time = min(sweep.items(),
                                          key=lambda kv: kv[1])
    default_time = sweep[(256, None)]
    return TuningResult(
        port_key=port.key,
        device_name=device.name,
        best_block_size=best_tpb,
        best_atomic_cap=best_cap,
        best_time=best_time,
        default_time=default_time,
        sweep=sweep,
    )


# ----------------------------------------------------------------------
# Host kernel-strategy selection (the CPU analogue of the sweep)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HostTuningResult:
    """Shape-driven host kernel-set selection plus the plan's footprint.

    Measured seconds and computed GB/s of either kernel set are
    ``bench/``'s ``aprod.aprod{1,2}_s`` / ``aprod.aprod{1,2}_gbs``.
    """

    selection: StrategySelection
    plan_workspace_bytes: int


def tune_host_kernels(dims: SystemDims) -> HostTuningResult:
    """Select the host aprod kernel set for one system shape.

    The decision itself is :func:`repro.core.kernels.plan.
    select_strategies` (so ``AprodOperator(..., "auto")`` and this
    report can never disagree).
    """
    return HostTuningResult(
        selection=select_strategies(dims),
        plan_workspace_bytes=plan_workspace_bytes(dims),
    )
