"""The geometry sweep: specs, tuned configs, and the one sweeper.

The paper hand-tunes the CUDA/HIP/SYCL kernel geometry per platform
for "up to 40% reduction in iteration time" (§V-B), and notes that
different platforms need different tuning.  :class:`GeometrySweeper`
reproduces that search: it times every deduplicated
``(threads_per_block, atomic_cap)`` candidate of
:func:`geometry_candidates` through the executor's one modeled launch
sequence and keeps the best against the out-of-the-box ``(256,
None)``.  (The host's own kernels are not tuned: every size runs the
compiled plan, :mod:`repro.core.kernels.plan`.)  Only a port whose geometry is its own to choose on the
platform (:meth:`~repro.frameworks.base.Port.tunable`) can be swept.

What the online service adds is *identity*.  A :class:`SweepSpec`
names one tuning cell -- port x platform x size-class x candidate
grid x model version -- and its :meth:`~SweepSpec.digest` is the
content address the :class:`~repro.tuning.cache.TunedConfigCache`
stores results under: same spec, same digest, same bytes, forever.
Bump :data:`MODEL_VERSION` whenever the analytic kernel model changes
meaning and every old entry silently becomes a miss instead of a lie.
The sweeper counts model evaluations (``tuning.model_evals``) so
tests -- and the acceptance criterion "second run is a pure cache
hit" -- can prove a repeat costs zero.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.frameworks.base import Port
from repro.frameworks.executor import _launch_sequence
from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.registry import PORTS_BY_KEY
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import grid_for
from repro.gpu.platforms import device_by_name
from repro.obs.telemetry import Telemetry
from repro.system.sizing import dims_from_gb
from repro.system.structure import SystemDims
from repro.tuning.sizeclass import size_class_by_label

#: Block sizes swept by the tuner.
CANDIDATE_BLOCK_SIZES = (32, 64, 128, 256, 512)

#: Atomic-region grid caps swept, as multiples of the SM count
#: (None = uncapped full grid).
CANDIDATE_GRID_CAPS = (None, 16, 8, 4, 2)

#: Version of the analytic kernel model the sweeps run through.  Part
#: of every sweep-spec digest: bumping it (when the model's meaning
#: changes) orphans all cached configs at once, which is exactly the
#: staleness semantics a content-addressed cache wants.
MODEL_VERSION = 1

#: Ports the sweeper can resolve that live outside the paper roster
#: (the projected C++26 executors port is servable, so it is tunable).
_EXTRA_PORTS: dict[str, Port] = {PSTL_EXECUTORS.key: PSTL_EXECUTORS}


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


def _candidate_time(port: Port, device: DeviceSpec, dims: SystemDims,
                    block_size: int, atomic_cap: int | None) -> float:
    """Unscaled seconds of one iteration at one candidate geometry.

    Every launch runs ``block_size`` threads per block, the atomic
    region's grid capped at ``atomic_cap`` blocks per SM.  The sum is
    aprod1 + aprod2 + the vector bundle, without the extra vector
    launches, pressure, residual or time scale of
    :func:`~repro.frameworks.executor.model_iteration`.
    """
    m = dims.n_obs
    plain = grid_for(m, block_size)
    cap_blocks = None if atomic_cap is None else atomic_cap * device.sm_count
    capped = grid_for(m, block_size, max_blocks=cap_blocks)
    seq = _launch_sequence(port, device, dims,
                           lambda atomic: capped if atomic else plain)
    return (sum(a.timing.total for a in seq.aprod1)
            + seq.aprod2_makespan + seq.vector.timing.total)


def resolve_port(port_key: str) -> Port:
    """Resolve any servable port key, roster or projected."""
    port = PORTS_BY_KEY.get(port_key) or _EXTRA_PORTS.get(port_key)
    if port is None:
        raise KeyError(
            f"unknown port {port_key!r}; expected one of "
            f"{sorted([*PORTS_BY_KEY, *_EXTRA_PORTS])}"
        )
    return port


@dataclass(frozen=True)
class SweepSpec:
    """Identity of one tuning cell.

    Everything that can change the sweep's answer is in here and
    nothing else is: no timestamps, no hostnames, no incidental state.
    That is what makes the digest a *content* address -- two runs that
    would compute the same thing share one cache entry.
    """

    port_key: str
    platform: str
    size_class: str
    block_sizes: tuple[int, ...] = CANDIDATE_BLOCK_SIZES
    grid_caps: tuple[int | None, ...] = CANDIDATE_GRID_CAPS
    model_version: int = MODEL_VERSION

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return json.dumps(
            {
                "port_key": self.port_key,
                "platform": self.platform,
                "size_class": self.size_class,
                "block_sizes": list(self.block_sizes),
                "grid_caps": list(self.grid_caps),
                "model_version": self.model_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical form -- the cache key."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def cell(self) -> tuple[str, str, str]:
        """The (port, platform, size-class) cell this spec tunes."""
        return (self.port_key, self.platform, self.size_class)


def default_spec(port_key: str, platform: str,
                 size_class: str) -> SweepSpec:
    """The spec for one cell with the default candidate grid.

    This is the lookup key the serve-side cost model uses: placement
    pricing never invents a custom grid, so a background sweep and a
    price query for the same cell always agree on the digest.
    """
    return SweepSpec(port_key=port_key, platform=platform,
                     size_class=size_class)


@dataclass(frozen=True)
class TunedConfig:
    """One cached sweep result: the winning geometry and its times.

    ``tuned_iteration_s / default_iteration_s`` is the ratio the
    placement cost model applies to its nominal (out-of-the-box)
    estimate.
    """

    spec: SweepSpec
    block_size: int
    atomic_cap: int | None
    tuned_iteration_s: float
    default_iteration_s: float
    model_evals: int

    @property
    def ratio(self) -> float:
        """tuned / default iteration time (<= 1 for a sane model)."""
        if self.default_iteration_s == 0:
            return 1.0
        return self.tuned_iteration_s / self.default_iteration_s

    @property
    def gain(self) -> float:
        """Fractional iteration-time reduction vs. out-of-the-box."""
        return 1.0 - self.ratio

    def to_json(self) -> str:
        """Canonical byte-reproducible serialization.

        Sorted keys, compact separators, floats via ``repr`` round-trip
        (json emits shortest-repr floats deterministically), and no
        volatile fields -- the acceptance criterion is that two runs of
        the same spec produce *byte-identical* files.
        """
        return json.dumps(
            {
                "spec": json.loads(self.spec.canonical_json()),
                "block_size": self.block_size,
                "atomic_cap": self.atomic_cap,
                "tuned_iteration_s": self.tuned_iteration_s,
                "default_iteration_s": self.default_iteration_s,
                "model_evals": self.model_evals,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "TunedConfig":
        """Parse :meth:`to_json`'s output; a key it no longer writes
        (a file from an older release) is ignored."""
        doc = json.loads(text)
        spec_doc = doc["spec"]
        spec = SweepSpec(
            port_key=spec_doc["port_key"],
            platform=spec_doc["platform"],
            size_class=spec_doc["size_class"],
            block_sizes=tuple(spec_doc["block_sizes"]),
            grid_caps=tuple(spec_doc["grid_caps"]),
            model_version=spec_doc["model_version"],
        )
        return cls(
            spec=spec,
            block_size=doc["block_size"],
            atomic_cap=doc["atomic_cap"],
            tuned_iteration_s=doc["tuned_iteration_s"],
            default_iteration_s=doc["default_iteration_s"],
            model_evals=doc["model_evals"],
        )


@dataclass
class GeometrySweeper:
    """Evaluates sweep specs through the analytic kernel model.

    Pure compute, no caching: every call to :meth:`sweep` runs the
    model.  The :class:`~repro.tuning.cache.TunedConfigCache` sits in
    front; ``model_evals`` is how tests prove it actually does.
    """

    telemetry: object = None
    #: Cumulative per-geometry model evaluations across all sweeps.
    model_evals: int = field(default=0)

    def sweep(self, spec: SweepSpec) -> TunedConfig:
        """Run one cell's sweep and return its tuned config.

        Raises ``ValueError`` for a port whose geometry is not its own
        to choose on the platform (PSTL's fixed 256, §IV-e; the
        compiler default of OpenMP on NVIDIA), ``UnsupportedPlatform``
        when it cannot target the platform, and ``KeyError`` for
        unknown ports, platforms, or size classes.
        """
        tel = Telemetry.or_null(self.telemetry)
        port = resolve_port(spec.port_key)
        device = device_by_name(spec.platform)
        cls = size_class_by_label(spec.size_class)
        if not port.tunable(device):
            raise ValueError(
                f"{port.key} kernels cannot be tuned on {device.name} "
                f"(no geometry control)"
            )
        dims = dims_from_gb(cls.representative_gb)

        with tel.span("tuning.sweep", port=spec.port_key,
                      platform=spec.platform,
                      size_class=spec.size_class):
            candidates = geometry_candidates(
                device, dims.n_obs,
                block_sizes=spec.block_sizes,
                grid_caps=spec.grid_caps,
            )
            # The out-of-the-box geometry is the baseline every gain
            # is measured against; make sure it is always present even
            # for custom candidate grids that omit (256, None).
            if (256, None) not in candidates:
                candidates = [*candidates, (256, None)]
            sweep = {(tpb, cap): _candidate_time(port, device, dims,
                                                 tpb, cap)
                     for tpb, cap in candidates}
            (best_tpb, best_cap), best_time = min(
                sweep.items(), key=lambda kv: kv[1])

        evals = len(candidates)
        self.model_evals += evals
        tel.counter("tuning.model_evals").inc(evals)
        return TunedConfig(
            spec=spec,
            block_size=best_tpb,
            atomic_cap=best_cap,
            tuned_iteration_s=best_time,
            default_iteration_s=sweep[(256, None)],
            model_evals=evals,
        )
