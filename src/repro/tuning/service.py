"""The online tuning service: cache-fronted geometry sweeps.

:class:`TuningService` composes the sweeper and the cache into the
thing the serve layer actually talks to: :meth:`~TuningService.tune`
is "give me the tuned config for this cell, computing it at most
once", and :meth:`~TuningService.covering_specs` names the cells a
device pool and a load mix can ever price.  A tuning-enabled scenario
(:func:`repro.serve.scenario.build_scheduler`) tunes the whole covering
set before it serves -- the paper's tune-once-per-platform table
(§IV, §V-B) -- so every placement of the run prices from the filled
cache.

No module in :mod:`repro.tuning` imports :mod:`repro.serve` (the
serve cost model imports us).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.platforms import device_by_name
from repro.tuning.cache import TunedConfigCache
from repro.tuning.sizeclass import size_class_for
from repro.tuning.sweep import (
    GeometrySweeper,
    SweepSpec,
    TunedConfig,
    default_spec,
    resolve_port,
)

#: Ports the covering set offers to every platform by default: the
#: roster order of the paper, restricted per-device to supported,
#: geometry-tunable entries.
DEFAULT_TUNABLE_PORTS = (
    "CUDA", "HIP", "SYCL+ACPP", "SYCL+DPCPP", "PSTL+EXEC",
)


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
    """Cache-fronted sweep evaluation over covering sets of cells."""

    cache: TunedConfigCache = field(default_factory=TunedConfigCache)
    sweeper: GeometrySweeper = None  # type: ignore[assignment]
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.sweeper is None:
            self.sweeper = GeometrySweeper(telemetry=self.telemetry)

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

    def covering_specs(
        self,
        platforms: tuple[str, ...] | list[str],
        size_gbs: tuple[float, ...] | list[float],
        ports: tuple[str, ...] = DEFAULT_TUNABLE_PORTS,
    ) -> list[SweepSpec]:
        """Deterministic covering set of sweep cells for a pool + mix.

        One spec per (platform, size-class of a mix size, sweepable
        port), deduplicated (several mix sizes can share a class) and
        ordered platform-major.
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
