"""The online tuning service: cache-fronted sweeps as background jobs.

:class:`TuningService` composes the sweeper and the cache into the
thing the serve layer actually talks to: :meth:`~TuningService.tune`
is "give me the tuned config for this cell, computing it at most
once", and :meth:`~TuningService.background_jobs` turns a covering set
of sweep specs into low-priority :class:`~repro.serve.job.ServeJob`
work that the existing :class:`~repro.serve.scheduler.Scheduler`
admits, places, and drains like any other traffic.

The admission class is the point.  Sweeps ride at
:data:`TUNING_PRIORITY` (far below interactive priority 0) with a
near-zero probe footprint, so on a contended device an interactive
job always outranks a pending sweep in the priority queue, and
backpressure sheds sweeps first.  They still occupy a lane while
running -- that is what exercises the scheduler's machinery -- but
the probe footprint means they never make an interactive job
*infeasible*, only briefly non-idle.

No module in :mod:`repro.tuning` imports :mod:`repro.serve` at module
scope (the serve cost model imports us); the ServeJob import below is
deliberately lazy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.api import PlacementConstraints, SolveRequest
from repro.gpu.platforms import device_by_name
from repro.obs.telemetry import Telemetry
from repro.tuning.cache import TunedConfigCache
from repro.tuning.sizeclass import size_class_for
from repro.tuning.sweep import (
    GeometrySweeper,
    SweepSpec,
    TunedConfig,
    default_spec,
    resolve_port,
)

#: Admission priority of background sweeps.  Priorities are ascending
#: (0 = most urgent interactive traffic); anything the load generator
#: emits sorts ahead of this.
TUNING_PRIORITY = 100

#: Nominal GB a sweep probe claims against device memory.  Sweeps run
#: the analytic model, not a solve, so the claim is a bookkeeping
#: token: small enough to be feasible on every device and to never
#: crowd out interactive footprints.
PROBE_GB = 0.001

#: Ports the covering set offers to every platform by default: the
#: roster order of the paper, restricted per-device to supported,
#: geometry-tunable entries.
DEFAULT_TUNABLE_PORTS = (
    "CUDA", "HIP", "SYCL+ACPP", "SYCL+DPCPP", "PSTL+EXEC",
)


@lru_cache(maxsize=1)
def _probe_system():
    """The (shared, tiny) system every sweep probe job carries.

    The solve request needs *a* system to be valid; the probe's work
    function never touches it.  One cached instance keeps N sweep jobs
    from costing N synthetic-system builds.
    """
    from repro.system.generator import make_system
    from repro.system.sizing import dims_from_gb

    return make_system(dims_from_gb(PROBE_GB), seed=0,
                       noise_sigma=1e-9)


def tunable_ports_for(platform: str,
                      ports: tuple[str, ...] = DEFAULT_TUNABLE_PORTS,
                      ) -> tuple[str, ...]:
    """The subset of ``ports`` that is sweepable on ``platform``.

    Sweepable = the port targets the device's vendor at all and is
    :meth:`~repro.frameworks.base.Port.tunable` there (compiler-default
    and fixed-256 ports have nothing to sweep).
    """
    device = device_by_name(platform)
    candidates = (resolve_port(key) for key in ports)
    return tuple(port.key for port in candidates
                 if port.supports(device) and port.tunable(device))


@dataclass
class TuningService:
    """Cache-fronted sweep evaluation plus background-job packaging."""

    cache: TunedConfigCache = field(default_factory=TunedConfigCache)
    sweeper: GeometrySweeper = None  # type: ignore[assignment]
    priority: int = TUNING_PRIORITY
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.sweeper is None:
            self.sweeper = GeometrySweeper(telemetry=self.telemetry)
        if self.priority <= 0:
            raise ValueError(
                f"tuning priority must be > 0 (below interactive), "
                f"got {self.priority}")

    # -- the service call --------------------------------------------
    def tune(self, spec: SweepSpec) -> TunedConfig:
        """The tuned config for one cell, computed at most once.

        Cache hit: zero model evaluations, the stored (byte-stable)
        config.  Miss: run the sweep, persist, return.
        """
        config = self.cache.get(spec)
        if config is not None:
            return config
        config = self.sweeper.sweep(spec)
        self.cache.put(config)
        return config

    # -- background-job packaging ------------------------------------
    def covering_specs(
        self,
        platforms: tuple[str, ...] | list[str],
        size_gbs: tuple[float, ...] | list[float],
        ports: tuple[str, ...] = DEFAULT_TUNABLE_PORTS,
    ) -> list[SweepSpec]:
        """Deterministic covering set of sweep cells for a pool + mix.

        One spec per (platform, size-class of a mix size, sweepable
        port), deduplicated (several mix sizes can share a class) and
        ordered platform-major so budget truncation drops whole tail
        cells rather than sampling randomly.
        """
        labels: list[str] = []
        for gb in size_gbs:
            label = size_class_for(gb).label
            if label not in labels:
                labels.append(label)
        specs: list[SweepSpec] = []
        for platform in platforms:
            for key in tunable_ports_for(platform, ports):
                for label in labels:
                    specs.append(default_spec(key, platform, label))
        return specs

    def background_jobs(self, specs: list[SweepSpec], *,
                        budget: int | None = None) -> list:
        """Package sweep specs as low-priority ServeJobs.

        Each job pins its spec's platform (the sweep is *about* that
        device, and running it there exercises contention against the
        interactive traffic it will later price), claims the probe
        footprint, and carries the sweep as its work function -- the
        scheduler's background-work path runs it on a lane and returns
        the :class:`~repro.tuning.sweep.TunedConfig` as the outcome
        result.  ``budget`` truncates the covering set (admission
        class + backpressure already bound the queue; the budget
        bounds total sweep *work* per run).
        """
        from repro.serve.job import ServeJob  # lazy: cycle avoidance

        if budget is not None:
            specs = specs[:budget]
        tel = Telemetry.or_null(self.telemetry)
        jobs = []
        for i, spec in enumerate(specs):
            request = SolveRequest(
                system=_probe_system(),
                iter_lim=1,
                seed=0,
                constraints=PlacementConstraints(
                    devices=(spec.platform,), priority=self.priority),
                job_id=f"tune-{i:03d}-{spec.port_key}"
                       f"-{spec.platform}-{spec.size_class}",
            )
            jobs.append(ServeJob(
                request=request,
                nominal_gb=PROBE_GB,
                priority=self.priority,
                job_id=request.job_id,
                work_fn=_SweepTask(self, spec),
            ))
        tel.counter("serve.tuning.background_submitted").inc(len(jobs))
        return jobs


@dataclass(frozen=True)
class _SweepTask:
    """Picklable-ish callable wrapper: one service.tune(spec) call.

    A named class (rather than a lambda) so placement logs and
    debuggers can see *which* sweep a background job carries.
    """

    service: TuningService
    spec: SweepSpec

    def __call__(self) -> TunedConfig:
        return self.service.tune(self.spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"sweep({self.spec.port_key}@{self.spec.platform}"
                f"/{self.spec.size_class})")
