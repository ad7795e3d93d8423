"""Pennycook P, tuned vs. out-of-the-box (the closing §V-B loop).

The paper's headline tuning claim -- "up to 40% iteration-time
reduction", differently shaped per platform -- changes more than raw
times: because application efficiency normalizes against the *best
port on each platform*, a field where everyone who can tune has tuned
redistributes P.  Ports with geometry control (CUDA, HIP, SYCL, the
projected executors) bank their per-platform gains; the ports that
cannot tune (OpenMP's compiler-chosen geometry, PSTL's fixed 256)
stand still while the normalizing baseline improves, so their P
*drops* out of the box.

:func:`run_tuning_study` computes both tables through the same
analytic model: out-of-the-box times via
``model_iteration(..., tuned=False)`` and tuned times by applying
each cell's cached sweep ratio from a
:class:`~repro.tuning.service.TuningService` -- the identical numbers
serve-side placement prices with, so the study and the scheduler can
never disagree about what tuning is worth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.frameworks.base import Port, UnsupportedPlatform
from repro.frameworks.executor import model_iteration
from repro.frameworks.registry import ALL_PORTS
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import DeviceOutOfMemory
from repro.gpu.platforms import ALL_DEVICES, DEVICES_BY_NAME
from repro.portability.metrics import (
    application_efficiency,
    pennycook_p,
)
from repro.portability.study import PAPER_SIZES, platforms_for_size
from repro.system.sizing import dims_from_gb
from repro.tuning.service import TuningService
from repro.tuning.sizeclass import size_class_for
from repro.tuning.sweep import default_spec

#: port -> platform -> seconds or None (the metrics module's table).
TimeTable = dict[str, dict[str, float | None]]


@dataclass
class TuningStudyResult:
    """Both time tables and the P they induce, per problem size."""

    sizes: tuple[float, ...]
    port_keys: tuple[str, ...]
    platforms_by_size: dict[float, tuple[str, ...]] = field(
        default_factory=dict)
    ootb_times: dict[float, TimeTable] = field(default_factory=dict)
    tuned_times: dict[float, TimeTable] = field(default_factory=dict)

    def p_scores(self, size_gb: float, *,
                 tuned: bool) -> dict[str, float]:
        """P of every port at one size, from one of the two tables."""
        platforms = self.platforms_by_size[size_gb]
        table = (self.tuned_times if tuned else self.ootb_times)[
            size_gb]
        eff = application_efficiency(table, platforms)
        return {port: pennycook_p(eff[port], platforms)
                for port in self.port_keys}

    def p_delta(self, size_gb: float) -> dict[str, float]:
        """tuned P minus out-of-the-box P, per port."""
        ootb = self.p_scores(size_gb, tuned=False)
        tuned = self.p_scores(size_gb, tuned=True)
        return {k: tuned[k] - ootb[k] for k in self.port_keys}

    def max_cell_gain(self) -> tuple[float, str, str, float]:
        """Largest per-cell iteration-time reduction applied.

        Returns ``(gain, port, platform, size_gb)`` -- the acceptance
        criterion's ">= 20% on at least one platform x size-class
        cell" witness.
        """
        best = (0.0, "-", "-", 0.0)
        for size in self.sizes:
            ootb = self.ootb_times[size]
            tuned = self.tuned_times[size]
            for port in self.port_keys:
                for platform in self.platforms_by_size[size]:
                    t0 = ootb[port].get(platform)
                    t1 = tuned[port].get(platform)
                    if t0 and t1 and t0 > 0:
                        gain = 1.0 - t1 / t0
                        if gain > best[0]:
                            best = (gain, port, platform, size)
        return best

    def as_dict(self) -> dict:
        """JSON-exportable summary (the bench artifact's shape)."""
        out: dict = {"sizes": list(self.sizes),
                     "ports": list(self.port_keys), "per_size": {}}
        for size in self.sizes:
            ootb = self.p_scores(size, tuned=False)
            tuned = self.p_scores(size, tuned=True)
            out["per_size"][f"{size:g}GB"] = {
                "platforms": list(self.platforms_by_size[size]),
                "p_ootb": ootb,
                "p_tuned": tuned,
                "p_delta": {k: tuned[k] - ootb[k] for k in ootb},
            }
        gain, port, platform, size = self.max_cell_gain()
        out["max_cell_gain"] = {
            "gain": gain, "port": port, "platform": platform,
            "size_gb": size,
        }
        return out


def run_tuning_study(
    service: TuningService | None = None,
    *,
    sizes: Sequence[float] = PAPER_SIZES,
    ports: Sequence[Port] = ALL_PORTS,
    devices: Sequence[DeviceSpec] = ALL_DEVICES,
) -> TuningStudyResult:
    """Compute tuned and out-of-the-box time tables and their P.

    ``service`` supplies (and fills, via its cache) the tuned sweep
    ratios; a fresh in-memory service is built when omitted.  Ports
    without geometry control on a platform keep their out-of-the-box
    time in the tuned table -- that *is* their tuned state.
    """
    if service is None:
        service = TuningService()
    result = TuningStudyResult(
        sizes=tuple(sizes),
        port_keys=tuple(p.key for p in ports),
    )
    for size in sizes:
        dims = dims_from_gb(size)
        platforms = platforms_for_size(size, devices)
        result.platforms_by_size[size] = platforms
        label = size_class_for(size).label
        ootb: TimeTable = {}
        tuned: TimeTable = {}
        for port in ports:
            ootb[port.key] = {}
            tuned[port.key] = {}
            for name in platforms:
                device = DEVICES_BY_NAME[name]
                try:
                    t0 = model_iteration(
                        port, device, dims, tuned=False,
                        size_gb=size).total
                except (UnsupportedPlatform, DeviceOutOfMemory):
                    ootb[port.key][name] = None
                    tuned[port.key][name] = None
                    continue
                ootb[port.key][name] = t0
                if port.tunable(device):
                    cfg = service.tune(
                        default_spec(port.key, name, label))
                    tuned[port.key][name] = t0 * cfg.ratio
                else:
                    tuned[port.key][name] = t0
        result.ootb_times[size] = ootb
        result.tuned_times[size] = tuned
    return result
