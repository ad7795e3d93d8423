"""Sweep specs, tuned configs, and the online geometry sweeper.

The one-shot sweep already exists
(:func:`repro.frameworks.tuning.tune_port`); what the online service
adds is *identity*.  A :class:`SweepSpec` names one tuning cell --
port x platform x size-class x candidate grid x model version -- and
its :meth:`~SweepSpec.digest` is the content address the
:class:`~repro.tuning.cache.TunedConfigCache` stores results under:
same spec, same digest, same bytes, forever.  Bump
:data:`MODEL_VERSION` whenever the analytic kernel model changes
meaning and every old entry silently becomes a miss instead of a lie.

:class:`GeometrySweeper` evaluates a spec: the deduplicated
``(threads_per_block, atomic_cap)`` grid from
:func:`repro.frameworks.tuning.geometry_candidates` through
:func:`repro.frameworks.tuning.iteration_time_with_geometry`, plus the
host-side plan selection from
:func:`repro.frameworks.tuning.tune_host_kernels`.  It counts model
evaluations (``tuning.model_evals``) so tests -- and the acceptance
criterion "second run is a pure cache hit" -- can prove a repeat
costs zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.frameworks.base import GeometryPolicy, Port
from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.registry import PORTS_BY_KEY
from repro.frameworks.tuning import (
    CANDIDATE_BLOCK_SIZES,
    CANDIDATE_GRID_CAPS,
    geometry_candidates,
    iteration_time_with_geometry,
    tune_host_kernels,
)
from repro.gpu.platforms import device_by_name
from repro.obs import Telemetry
from repro.system.sizing import dims_from_gb
from repro.tuning.sizeclass import size_class_by_label

#: Version of the analytic kernel model the sweeps run through.  Part
#: of every sweep-spec digest: bumping it (when the model's meaning
#: changes) orphans all cached configs at once, which is exactly the
#: staleness semantics a content-addressed cache wants.
MODEL_VERSION = 1

#: Ports the sweeper can resolve that live outside the paper roster
#: (the projected C++26 executors port is servable, so it is tunable).
_EXTRA_PORTS: dict[str, Port] = {PSTL_EXECUTORS.key: PSTL_EXECUTORS}


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
    estimate; ``host_kernels`` records the host kernel set
    :func:`~repro.frameworks.tuning.tune_host_kernels` selected for
    the size-class representative shape (``"compiled"`` or
    ``"blocks"``).
    """

    spec: SweepSpec
    block_size: int
    atomic_cap: int | None
    tuned_iteration_s: float
    default_iteration_s: float
    host_kernels: str
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
                "host_kernels": self.host_kernels,
                "model_evals": self.model_evals,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "TunedConfig":
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
            host_kernels=doc["host_kernels"],
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

        Raises ``ValueError`` for ports whose geometry is fixed (the
        plain PSTL ports; §IV-e), mirroring
        :func:`repro.frameworks.tuning.tune_port`, and ``KeyError``
        for unknown ports, platforms, or size classes.
        """
        tel = Telemetry.or_null(self.telemetry)
        port = resolve_port(spec.port_key)
        device = device_by_name(spec.platform)
        cls = size_class_by_label(spec.size_class)
        support = port.vendor_support(device)
        if support.geometry is GeometryPolicy.FIXED_256:
            raise ValueError(
                f"{port.key} kernels cannot be tuned "
                f"(no geometry control)"
            )
        dims = dims_from_gb(cls.representative_gb)

        with tel.span("tuning.sweep", port=spec.port_key,
                      platform=spec.platform,
                      size_class=spec.size_class):
            evals = 0
            sweep: dict[tuple[int, int | None], float] = {}
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
            for tpb, cap in candidates:
                sweep[(tpb, cap)] = iteration_time_with_geometry(
                    port, device, dims, tpb, cap)
                evals += 1
            (best_tpb, best_cap), best_time = min(
                sweep.items(), key=lambda kv: kv[1])
            host = tune_host_kernels(dims)

        self.model_evals += evals
        tel.counter("tuning.model_evals").inc(evals)
        return TunedConfig(
            spec=spec,
            block_size=best_tpb,
            atomic_cap=best_cap,
            tuned_iteration_s=best_time,
            default_iteration_s=sweep[(256, None)],
            host_kernels=host.selection.kernels,
            model_evals=evals,
        )
