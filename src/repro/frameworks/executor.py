"""Run the LSQR iteration workload through a port on a device.

This is where system dimensions, port capabilities and the GPU
execution model meet: :func:`model_iteration` prices one LSQR
iteration exactly the way the paper describes the ports running --
aprod1 kernels back to back, aprod2 kernels overlapped on streams
(for the ports that manage streams), BLAS-1 vector updates, geometry
per the port's policy, atomics per the port's codegen -- and
:func:`run_modeled` wraps that into the paper's measurement protocol
(100 iterations, 3 repetitions, average iteration time).

Two variants of the CUDA port model the §V-B production comparison:

- ``variant="optimized"`` (default): hand-tuned geometry, capped
  atomic-region grids, stream overlap;
- ``variant="production"``: compiler-default geometry, full atomic
  grids, serialized aprod2 -- the code the optimized port is 2.0x
  faster than.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.frameworks.base import Port, UnsupportedPlatform
from repro.gpu.atomics import AtomicMode
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import DeviceMemory, DeviceOutOfMemory
from repro.gpu.profiler import KernelEvent, Profiler
from repro.obs.telemetry import Telemetry
from repro.gpu.stream import StreamSchedule
from repro.gpu.timing import KernelTiming, KernelWork, kernel_time
from repro.gpu.workload import build_iteration_workload
from repro.system.sizing import device_footprint_bytes, system_size_gb
from repro.system.structure import SystemDims

#: Fraction of capacity beyond which near-OOM pressure kicks in.
PRESSURE_THRESHOLD = 0.85

VARIANTS = ("optimized", "production")

#: Extra slowdown of the pre-optimization production solver over the
#: structural model: unpinned host staging, synchronous copies and
#: per-kernel synchronization that the §IV optimizations removed.
#: Together with the untuned geometry and serialized aprod2 kernels it
#: reproduces the 2.0x speed-up measured on Leonardo (§V-B).
PRODUCTION_PENALTY = 1.8

#: Global absolute-time calibration.  All figures of merit are ratios
#: (efficiencies, P, speed-ups), which this factor cancels out of; it
#: pins the absolute scale so a 100-iteration run of the well-behaved
#: ports lands inside the artifact's "should not exceed 5 minutes"
#: budget (appendix B2), as on the authors' clusters.
TIME_SCALE = 0.5


@dataclass(frozen=True)
class IterationModel:
    """Modeled breakdown of one LSQR iteration (seconds)."""

    port_key: str
    device_name: str
    aprod1_time: float
    aprod2_time: float
    vector_time: float
    pressure_factor: float
    residual_factor: float

    @property
    def total(self) -> float:
        """Modeled seconds per iteration."""
        base = self.aprod1_time + self.aprod2_time + self.vector_time
        return (base * self.pressure_factor * self.residual_factor
                * TIME_SCALE)


@dataclass
class ModeledRun:
    """One (port, device, size) measurement in the paper's protocol."""

    port_key: str
    device_name: str
    size_gb: float
    n_iterations: int
    repetition_means: list[float] = field(default_factory=list)
    model: IterationModel | None = None
    excluded_reason: str | None = None
    setup_time: float = 0.0

    @property
    def supported(self) -> bool:
        """True when the run produced timings."""
        return self.excluded_reason is None

    @property
    def mean_iteration_time(self) -> float:
        """Average iteration time over repetitions; inf when excluded."""
        if not self.supported or not self.repetition_means:
            return float("inf")
        return float(np.mean(self.repetition_means))

    @property
    def total_run_time(self) -> float:
        """Setup plus the full iteration budget -- the artifact's
        wall-clock for one ``solvergaiaSim`` execution."""
        if not self.supported:
            return float("inf")
        return self.setup_time + self.n_iterations * (
            self.mean_iteration_time
        )


def breakdown_table(
    ports,
    device: DeviceSpec,
    dims: SystemDims,
    *,
    size_gb: float | None = None,
) -> str:
    """Per-phase time breakdown of every supported port on one device.

    The per-kernel-phase view behind Fig. 4's bars: where each port's
    iteration time goes (aprod1 streams, aprod2 scatters+atomics,
    BLAS-1), and which multiplicative factors apply.
    """
    lines = [
        f"Iteration breakdown on {device.name}",
        f"{'port':<12}{'aprod1':>9}{'aprod2':>9}{'vector':>9}"
        f"{'press':>7}{'resid':>7}{'total':>9}",
    ]
    for port in ports:
        if not port.supports(device):
            lines.append(f"{port.key:<12}{'(unsupported)':>50}")
            continue
        m = model_iteration(port, device, dims, size_gb=size_gb)
        lines.append(
            f"{port.key:<12}"
            f"{m.aprod1_time * TIME_SCALE:>9.4f}"
            f"{m.aprod2_time * TIME_SCALE:>9.4f}"
            f"{m.vector_time * TIME_SCALE:>9.4f}"
            f"{m.pressure_factor:>7.2f}"
            f"{m.residual_factor:>7.2f}{m.total:>9.4f}"
        )
    return "\n".join(lines)


def memory_pressure_factor(
    port: Port, device: DeviceSpec, dims: SystemDims
) -> float:
    """Slowdown from running close to the device memory capacity.

    Above :data:`PRESSURE_THRESHOLD` utilization the allocator, TLB
    and (for USM-based ports) the migration machinery eat into
    bandwidth; ports declare their sensitivity.  30 GB on the 32 GB
    V100 is the study's pressured configuration.
    """
    util = device_footprint_bytes(dims) / device.memory_bytes
    if util <= PRESSURE_THRESHOLD:
        return 1.0
    excess = (util - PRESSURE_THRESHOLD) / (1.0 - PRESSURE_THRESHOLD)
    return 1.0 + port.pressure_sensitivity * excess


@dataclass(frozen=True)
class Launch:
    """One modeled kernel launch: its work, geometry, stream and time."""

    work: KernelWork
    config: LaunchConfig
    stream: int
    timing: KernelTiming


@dataclass(frozen=True)
class LaunchSequence:
    """The launches of one modeled iteration, in launch order."""

    aprod1: tuple[Launch, ...]
    aprod2: tuple[Launch, ...]
    #: Overlapped makespan of the aprod2 launches on their streams.
    aprod2_makespan: float
    vector: Launch
    #: Launches the vector-op bundle stands for.
    vector_launches: int


def _launch_sequence(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
    geometry: Callable[[bool], LaunchConfig],
    *,
    serialize_aprod2: bool = False,
) -> LaunchSequence:
    """Run the modeled iteration's launch sequence once.

    aprod1's four row-parallel kernels run back to back on stream 0;
    the colliding aprod2 kernels are overlapped on streams when the
    port manages streams (§IV) unless ``serialize_aprod2``; the BLAS-1
    vector updates close the iteration as one bundle.
    ``geometry(atomic_region)`` chooses each launch's config, so the
    port's own policy, an explicit sweep candidate and the ablation's
    compiler default all time the same launches.

    The only code that runs this sequence; its three readers are
    :func:`model_iteration`, the tuning sweep's per-candidate evaluator
    (:mod:`repro.tuning.sweep`) and the timeline view
    (:func:`repro.gpu.trace.trace_iteration`).
    """
    overhead = port.overhead(device)
    workload = build_iteration_workload(dims)

    def launch(work: KernelWork, stream: int) -> Launch:
        atomic = bool(work.atomic_updates)
        config = geometry(atomic)
        mode = port.atomic_mode(device) if atomic else AtomicMode.NONE
        return Launch(work, config, stream,
                      kernel_time(device, work, config, atomic_mode=mode,
                                  overhead_factor=overhead))

    aprod1 = tuple(launch(w, 0) for w in workload.aprod1)
    overlap = port.uses_streams and not serialize_aprod2
    aprod2 = tuple(launch(w, i if overlap else 0)
                   for i, w in enumerate(workload.aprod2))
    schedule = StreamSchedule()
    for a in aprod2:
        schedule.submit(a.stream, a.timing)
    return LaunchSequence(
        aprod1=aprod1,
        aprod2=aprod2,
        aprod2_makespan=schedule.makespan(),
        vector=launch(workload.vector_ops, 0),
        vector_launches=workload.vector_launches,
    )


def model_iteration(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
    *,
    tuned: bool = True,
    variant: str = "optimized",
    size_gb: float | None = None,
    profiler: Profiler | None = None,
    telemetry: Telemetry | None = None,
) -> IterationModel:
    """Model one LSQR iteration of ``port`` on ``device``.

    Raises :class:`~repro.frameworks.base.UnsupportedPlatform` when the
    toolchain cannot target the device and
    :class:`~repro.gpu.memory.DeviceOutOfMemory` when the problem does
    not fit -- the two exclusion modes of the paper's test matrix.

    With ``telemetry``, every modeled launch ticks the per-port
    ``executor.kernel_launches`` counter and feeds the
    ``executor.kernel_time_s`` modeled-time histogram (labeled with
    port, device and kernel name).
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    port.vendor_support(device)  # raises UnsupportedPlatform

    # Capacity check: the coefficient data plus solver vectors must fit.
    mem = DeviceMemory(device)
    mem.alloc("system+vectors", device_footprint_bytes(dims))

    if size_gb is None:
        size_gb = system_size_gb(dims)
    production = variant == "production"
    tuned = tuned and not production
    seq = _launch_sequence(
        port, device, dims,
        lambda atomic: port.geometry(device, dims.n_obs,
                                     atomic_region=atomic, tuned=tuned),
        serialize_aprod2=production,
    )
    for a in (*seq.aprod1, *seq.aprod2, seq.vector):
        if profiler is not None:
            profiler.record(KernelEvent(name=a.work.name, config=a.config,
                                        timing=a.timing))
        if telemetry is not None:
            labels = dict(port=port.key, device=device.name,
                          kernel=a.work.name)
            telemetry.counter("executor.kernel_launches", **labels).inc()
            telemetry.histogram("executor.kernel_time_s",
                                **labels).observe(a.timing.total)

    # The vector-op bundle pays its remaining short launches.
    t_vec = seq.vector.timing.total
    t_vec += (seq.vector_launches - 1) * device.launch_overhead_us * 1e-6

    residual = port.residual(device, size_gb)
    if production:
        residual *= PRODUCTION_PENALTY
    return IterationModel(
        port_key=port.key,
        device_name=device.name,
        aprod1_time=sum(a.timing.total for a in seq.aprod1),
        aprod2_time=seq.aprod2_makespan,
        vector_time=t_vec,
        pressure_factor=memory_pressure_factor(port, device, dims),
        residual_factor=residual,
    )


def model_setup(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
) -> float:
    """Seconds of the one-time setup before the iteration loop.

    §IV-a: the four submatrices, known terms and unknowns are copied
    to the device once (asynchronously, from pinned host memory) and
    stay resident; the solver also computes the column norms for the
    preconditioner (one pass over the coefficients).  Pragma/USM ports
    pay a modest first-touch migration overhead on the same traffic.
    """
    port.vendor_support(device)  # raises UnsupportedPlatform
    mem = DeviceMemory(device)
    nbytes = device_footprint_bytes(dims)
    mem.alloc("system+vectors", nbytes)  # raises DeviceOutOfMemory
    upload = mem.transfer_time(nbytes)
    # Preconditioner pass: stream the coefficient values once.
    precond = nbytes / (
        device.peak_bandwidth_bytes * device.stream_efficiency
    )
    return (upload + precond) * port.overhead(device)


def run_modeled(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
    *,
    size_gb: float | None = None,
    n_iterations: int = 100,
    repetitions: int = 3,
    jitter: float = 0.01,
    seed: int = 0,
    tuned: bool = True,
    variant: str = "optimized",
    telemetry: Telemetry | None = None,
) -> ModeledRun:
    """The paper's measurement protocol for one (port, device, size).

    100 iterations averaged, 3 repetitions, deterministic per-run
    jitter standing in for machine noise.  Exclusions (unsupported
    vendor, out of memory) are recorded, not raised -- they become the
    P-killing holes of Fig. 3.
    """
    if size_gb is None:
        size_gb = system_size_gb(dims)
    run = ModeledRun(
        port_key=port.key,
        device_name=device.name,
        size_gb=size_gb,
        n_iterations=n_iterations,
    )
    try:
        model = model_iteration(port, device, dims, tuned=tuned,
                                variant=variant, size_gb=size_gb,
                                telemetry=telemetry)
        run.setup_time = model_setup(port, device, dims)
    except UnsupportedPlatform as exc:
        run.excluded_reason = f"unsupported: {exc}"
        return run
    except DeviceOutOfMemory as exc:
        run.excluded_reason = f"out of memory: {exc}"
        return run
    run.model = model
    # crc32, not hash(): str hashes are salted per process.
    key = f"{port.key}|{device.name}|{round(size_gb, 3)}|{seed}"
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    for _ in range(repetitions):
        # Mean of n_iterations iid jittered iterations: the jitter of
        # the mean shrinks with sqrt(n).
        noise = rng.normal(0.0, jitter / np.sqrt(n_iterations))
        run.repetition_means.append(model.total * max(0.5, 1.0 + noise))
    return run
