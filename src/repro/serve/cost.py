"""The placement cost model: estimated solve seconds per (job, device).

"Cheapest feasible device" needs a price.  This module turns the
portability study's efficiency machinery into one: for a job of
nominal size ``g`` GB on device ``d``, the cost is the modeled setup
plus ``n_iterations`` modeled LSQR iterations of the best supported
port on ``d`` -- exactly the §V-B per-cell measurement
(:func:`~repro.frameworks.executor.model_iteration` /
:func:`~repro.frameworks.executor.model_setup`), so the scheduler's
ranking of devices reproduces the paper's efficiency table ordering
(H100 fastest, MI250X next, the CAS-cliff ports penalized, ...).

A job may pin ``framework`` to one port key; otherwise the model
prices every port in the roster supported on the device and takes the
fastest.  With ``include_projected=True`` the hypothetical
C++26-executors port :data:`~repro.frameworks.executors_future.
PSTL_EXECUTORS` joins the candidate roster -- this is where the
"future outlook" port is wired into live machinery: a what-if pool
where tuned PSTL closes the geometry gap and changes placement
prices.

With a ``tuned_cache`` (a :class:`~repro.tuning.cache.
TunedConfigCache`), pricing becomes *tuning-aware*: the nominal price
is the out-of-the-box model (``tuned=False`` geometry -- what a port
does before anyone sweeps), and any (port, platform, size-class) cell
the cache holds a sweep for is discounted by its measured
tuned/default ratio, with ``CostEstimate.tuned`` recording the
provenance.  Lookups tick the cache's ``serve.tuning.hits`` /
``misses`` / ``stale`` counters.  Without a cache the model keeps its
historical behavior (the always-tuned §V-B table) byte for byte.

Estimates are deterministic (the executor model is analytic) and
memoized per ``(size, device, framework)``.  Tuning-aware memos also
record the cache *generation* they were priced under and recompute
when a sweep has landed in a shared cache since -- a stale price can
never outlive a newer tuned entry (see ``docs/tuning.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.frameworks.base import Port, UnsupportedPlatform
from repro.frameworks.executor import model_iteration, model_setup
from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.registry import ALL_PORTS
from repro.gpu.device import DeviceSpec
from repro.gpu.interconnect import allreduce_seconds, gang_link
from repro.gpu.memory import DeviceOutOfMemory
from repro.system.sizing import dims_from_gb, shard_footprint_gb
from repro.tuning.cache import TunedConfigCache
from repro.tuning.sizeclass import size_class_for
from repro.tuning.sweep import default_spec


@dataclass(frozen=True)
class CostEstimate:
    """Price of one job on one device: seconds and the port that wins.

    ``tuned`` is True when the winning port's price includes a cached
    sweep discount -- the provenance bit the scheduler copies onto the
    :class:`~repro.api.Placement` it logs.
    """

    seconds: float
    port_key: str
    device_name: str
    tuned: bool = False


@dataclass(frozen=True)
class GangEstimate:
    """Price of one solve sharded across R lanes, comm included.

    ``seconds`` is the gang's critical path: the slowest rank's modeled
    shard solve plus ``comm_s`` -- ``n_iterations`` times the two
    allreduce epochs every LSQR iteration performs (the dense
    length-``n`` partial sum and the scalar norm), priced on the gang's
    weakest link (:func:`repro.gpu.interconnect.gang_link`).  This is
    what lets the scheduler honestly compare "1×H100" against
    "4×T4 + comm" in one currency.
    """

    seconds: float
    ranks: int
    shard_gb: float
    comm_s: float
    link_name: str
    per_rank: tuple[CostEstimate, ...]

    @property
    def port_key(self) -> str:
        """The critical (slowest) rank's winning port."""
        return max(self.per_rank,
                   key=lambda e: (e.seconds, e.port_key)).port_key

    @property
    def tuned(self) -> bool:
        """True when every rank priced with a tuned-cache discount."""
        return all(e.tuned for e in self.per_rank)


class PlacementCostModel:
    """Deterministic (size, device) -> seconds estimator for placement."""

    def __init__(
        self,
        *,
        ports: tuple[Port, ...] = ALL_PORTS,
        include_projected: bool = False,
        n_iterations: int = 100,
        tuned_cache: TunedConfigCache | None = None,
    ) -> None:
        if include_projected:
            ports = tuple(ports) + (PSTL_EXECUTORS,)
        self.ports = tuple(ports)
        self._by_key = {p.key: p for p in self.ports}
        self.n_iterations = n_iterations
        self.tuned_cache = tuned_cache
        #: (size, device, framework) -> (cache generation at pricing
        #: time, estimate).  Generation is always 0 for the cacheless
        #: model, so its memo never expires (nothing can land).
        self._memo: dict[tuple[float, str, str | None],
                         tuple[int, CostEstimate | None]] = {}
        self._gang_memo: dict[
            tuple[float, tuple[str, ...], str | None],
            tuple[int, "GangEstimate | None"]] = {}

    def candidate_ports(self, framework: str | None) -> tuple[Port, ...]:
        """The ports priced for a job (one when pinned, else all)."""
        if framework is None:
            return self.ports
        port = self._by_key.get(framework)
        if port is None:
            raise KeyError(
                f"framework {framework!r} not in the cost model roster "
                f"{sorted(self._by_key)}"
            )
        return (port,)

    @property
    def _generation(self) -> int:
        return (self.tuned_cache.generation
                if self.tuned_cache is not None else 0)

    def estimate(
        self,
        nominal_gb: float,
        device: DeviceSpec,
        *,
        framework: str | None = None,
    ) -> CostEstimate | None:
        """Cheapest supported port's modeled solve time, or None.

        None means the device cannot run the job at all -- no candidate
        toolchain targets it or the nominal problem does not fit its
        memory (the study's two exclusion modes).
        """
        key = (round(nominal_gb, 9), device.name, framework)
        cached = self._memo.get(key)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        generation = self._generation
        best = self._price(nominal_gb, device, framework)
        self._memo[key] = (generation, best)
        return best

    def estimate_gang(
        self,
        nominal_gb: float,
        devices: Sequence[DeviceSpec],
        *,
        framework: str | None = None,
    ) -> GangEstimate | None:
        """Price one solve row-sharded across ``devices``, or None.

        Each rank holds ``1/R`` of the rows plus the replicated
        unknown-space vectors (:func:`~repro.system.sizing.
        shard_footprint_gb`); its compute is priced like a solve of the
        equivalent per-shard nominal size on its device.  None when any
        rank is unpriceable (no supported port, or the shard still
        exceeds the device) -- a gang is all-or-nothing in pricing just
        as in admission.
        """
        ranks = len(devices)
        if ranks < 2:
            raise ValueError(f"a gang needs >= 2 ranks, got {ranks}")
        key = (round(nominal_gb, 9),
               tuple(d.name for d in devices), framework)
        cached = self._gang_memo.get(key)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        generation = self._generation
        estimate = self._price_gang(nominal_gb, tuple(devices), framework)
        self._gang_memo[key] = (generation, estimate)
        return estimate

    def _price_gang(
        self,
        nominal_gb: float,
        devices: tuple[DeviceSpec, ...],
        framework: str | None,
    ) -> GangEstimate | None:
        ranks = len(devices)
        dims = dims_from_gb(nominal_gb)
        shard_gb = shard_footprint_gb(dims, ranks)
        # Per-rank compute: a shard behaves like a solve whose stored
        # coefficient data is 1/R of the nominal (the replicated
        # vectors are memory, not iteration traffic).
        per_rank = []
        for spec in devices:
            if shard_gb > spec.memory_gb:
                return None
            est = self.estimate(nominal_gb / ranks, spec,
                                framework=framework)
            if est is None:
                return None
            per_rank.append(est)
        link = gang_link(devices)
        # Two allreduce epochs per iteration: the dense length-n
        # partial-sum exchange and the 8-byte scalar norm.
        dense = allreduce_seconds(8 * dims.n_params, ranks, link)
        scalar = allreduce_seconds(8, ranks, link)
        comm_s = self.n_iterations * (dense + scalar)
        seconds = max(e.seconds for e in per_rank) + comm_s
        return GangEstimate(
            seconds=seconds, ranks=ranks, shard_gb=shard_gb,
            comm_s=comm_s, link_name=link.name,
            per_rank=tuple(per_rank),
        )

    def _price(
        self,
        nominal_gb: float,
        device: DeviceSpec,
        framework: str | None,
    ) -> CostEstimate | None:
        dims = dims_from_gb(nominal_gb)
        aware = self.tuned_cache is not None
        size_class = size_class_for(nominal_gb).label if aware else None
        best: CostEstimate | None = None
        for port in self.candidate_ports(framework):
            try:
                iteration = model_iteration(
                    port, device, dims, size_gb=nominal_gb,
                    tuned=not aware)
                iteration_s = iteration.total
                setup_s = model_setup(port, device, dims)
            except (UnsupportedPlatform, DeviceOutOfMemory):
                continue
            tuned = False
            if aware and port.tunable(device):
                cfg = self.tuned_cache.get(
                    default_spec(port.key, device.name, size_class))
                if cfg is not None:
                    iteration_s *= cfg.ratio
                    tuned = True
            seconds = setup_s + self.n_iterations * iteration_s
            if best is None or (seconds, port.key) < (best.seconds,
                                                      best.port_key):
                best = CostEstimate(seconds=seconds, port_key=port.key,
                                    device_name=device.name,
                                    tuned=tuned)
        return best
