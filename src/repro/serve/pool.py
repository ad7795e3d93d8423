"""The heterogeneous device pool the scheduler places jobs onto.

Each :class:`DeviceLane` wraps one :class:`~repro.gpu.device.
DeviceSpec` from :mod:`repro.gpu.platforms` with the serving-side
state the spec itself does not carry: tracked free memory and a FIFO
work lane of the jobs currently resident.  A :class:`DevicePool` is an
ordered collection of lanes -- possibly several of the same platform
("4 x H100") -- with feasibility/placement queries and per-device
utilization accounting.

The pool itself is *not* locked: the scheduler serializes every
mutation under its own condition variable, which is also what makes
single-worker runs bit-deterministic.  By default the pool resolves
platform names through :func:`~repro.gpu.platforms.placement_devices`
with ``per_gcd=True``, so an ``MI250X`` lane gets the 64 GB single-GCD
memory that one solve can actually address (the paper's 60 GB problem
occupies ~63.7 GiB of it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.gpu.device import DeviceSpec
from repro.gpu.platforms import placement_devices
from repro.obs.telemetry import Telemetry

#: Boundary tolerance for memory comparisons, about one byte in GiB
#: units.  Pins the exact-fit semantics: a job sized exactly at a
#: device's memory (or at its current free memory) is *admissible and
#: reservable*, even after float residue from earlier reserve/release
#: cycles has nudged ``free_gb`` an epsilon below the true value.
#: Admission (``holds``) and reservation (``fits_now``/``reserve``)
#: use the same comparison, so a job that passes admission on an empty
#: lane can always be placed on that lane once it drains -- the
#: scheduler's "queued jobs can never be placed" invariant relies on
#: this agreement.
MEMORY_EPSILON_GB = 1.0 / 2**30


@dataclass
class DeviceLane:
    """One pool slot: a device spec plus tracked serving state."""

    spec: DeviceSpec
    lane_id: str
    free_gb: float = field(default=0.0)
    #: Job ids currently resident, oldest first (FIFO).
    lane: deque[str] = field(default_factory=deque)
    busy_s: float = 0.0
    jobs_run: int = 0

    def __post_init__(self) -> None:
        if self.free_gb <= 0:
            self.free_gb = self.spec.memory_gb

    @property
    def used_gb(self) -> float:
        """Memory currently reserved by resident jobs."""
        return self.spec.memory_gb - self.free_gb

    def holds(self, footprint_gb: float) -> bool:
        """Can this device *ever* hold the footprint (empty device)?"""
        return footprint_gb <= self.spec.memory_gb + MEMORY_EPSILON_GB

    def fits_now(self, footprint_gb: float) -> bool:
        """Does the footprint fit the currently free memory?"""
        return footprint_gb <= self.free_gb + MEMORY_EPSILON_GB


class DevicePool:
    """An ordered pool of device lanes with memory-aware queries."""

    def __init__(
        self,
        devices: Sequence[DeviceSpec] | Sequence[str] | None = None,
        *,
        per_gcd: bool = True,
        telemetry: Telemetry | None = None,
    ) -> None:
        if devices is None or all(isinstance(d, str) for d in devices or ()):
            specs = placement_devices(
                tuple(devices) if devices else None, per_gcd=per_gcd)
        else:
            specs = tuple(devices)  # already-resolved DeviceSpecs
        if not specs:
            raise ValueError("device pool must not be empty")
        self._tel = Telemetry.or_null(telemetry)
        counts: dict[str, int] = {}
        self.lanes: list[DeviceLane] = []
        names = [s.name for s in specs]
        for spec in specs:
            n = counts.get(spec.name, 0)
            counts[spec.name] = n + 1
            # Suffix only when the pool holds duplicates of a platform.
            lane_id = (f"{spec.name}#{n}"
                       if names.count(spec.name) > 1 else spec.name)
            self.lanes.append(DeviceLane(spec=spec, lane_id=lane_id))
        self._by_id = {lane.lane_id: lane for lane in self.lanes}
        for lane in self.lanes:
            self._gauge(lane)

    # -- queries --------------------------------------------------------
    def lane(self, lane_id: str) -> DeviceLane:
        """Look a lane up by id, with a helpful error."""
        try:
            return self._by_id[lane_id]
        except KeyError:
            raise KeyError(
                f"unknown lane {lane_id!r}; pool has "
                f"{sorted(self._by_id)}"
            ) from None

    def feasible(self, footprint_gb: float, *,
                 devices: Iterable[str] | None = None,
                 ) -> list[DeviceLane]:
        """Lanes that could ever hold the footprint (admission test).

        ``devices`` restricts to a :class:`~repro.api.
        PlacementConstraints` allow-list of platform names.
        """
        allowed = None if devices is None else set(devices)
        return [
            lane for lane in self.lanes
            if lane.holds(footprint_gb)
            and (allowed is None or lane.spec.name in allowed)
        ]

    def placeable(self, footprint_gb: float, *,
                  devices: Iterable[str] | None = None,
                  exclude: Iterable[str] = ()) -> list[DeviceLane]:
        """Lanes whose *current* free memory holds the footprint."""
        excluded = set(exclude)
        return [
            lane for lane in self.feasible(footprint_gb, devices=devices)
            if lane.fits_now(footprint_gb)
            and lane.lane_id not in excluded
        ]

    # -- mutations (caller holds the scheduler lock) --------------------
    def reserve(self, lane_id: str, footprint_gb: float,
                job_id: str) -> None:
        """Charge a job's footprint against a lane and join its FIFO."""
        lane = self.lane(lane_id)
        if not lane.fits_now(footprint_gb):
            raise ValueError(
                f"cannot reserve {footprint_gb:.2f} GB on {lane_id}: "
                f"only {lane.free_gb:.2f} GB free"
            )
        lane.free_gb = max(0.0, lane.free_gb - footprint_gb)
        lane.lane.append(job_id)
        self._gauge(lane)

    def release(self, lane_id: str, footprint_gb: float, job_id: str,
                busy_s: float = 0.0) -> None:
        """Return a job's memory and record its device-busy time.

        Snaps back to exactly ``memory_gb`` when the lane is within
        :data:`MEMORY_EPSILON_GB` of full, so float residue from
        reserve/release cycles cannot accumulate and strand an
        exact-fit job that already passed admission.
        """
        lane = self.lane(lane_id)
        free = min(lane.spec.memory_gb, lane.free_gb + footprint_gb)
        if lane.spec.memory_gb - free <= MEMORY_EPSILON_GB:
            free = lane.spec.memory_gb
        lane.free_gb = free
        lane.lane.remove(job_id)
        lane.busy_s += busy_s
        lane.jobs_run += 1
        self._gauge(lane)

    def reserve_gang(self, lane_ids: Sequence[str], footprint_gb: float,
                     job_id: str) -> None:
        """All-or-nothing reservation of one shard footprint per lane.

        Either every lane in ``lane_ids`` ends up charged
        ``footprint_gb`` for ``job_id``, or -- when any lane cannot fit
        its shard -- every already-charged lane is released again
        before the error propagates (deadlock-free backout: the caller
        holds the scheduler lock for the whole call, so no other
        reservation can interleave with the backout and observe a
        partial gang).
        """
        if len(set(lane_ids)) != len(lane_ids):
            raise ValueError(
                f"gang lanes must be distinct, got {list(lane_ids)}")
        done: list[str] = []
        for lane_id in lane_ids:
            if not self.lane(lane_id).fits_now(footprint_gb):
                free = self.lane(lane_id).free_gb
                for undo in reversed(done):
                    self.release(undo, footprint_gb, job_id)
                raise ValueError(
                    f"cannot gang-reserve {footprint_gb:.2f} GB on "
                    f"{lane_id}: only {free:.2f} GB free "
                    f"(backed out {len(done)} lane(s))"
                )
            self.reserve(lane_id, footprint_gb, job_id)
            done.append(lane_id)
        self._tel.counter("serve.gang.reservations").inc()

    # -- reporting ------------------------------------------------------
    def utilization(self, wall_s: float) -> dict[str, float]:
        """Fraction of the wall clock each lane spent solving."""
        if wall_s <= 0:
            return {lane.lane_id: 0.0 for lane in self.lanes}
        return {lane.lane_id: min(1.0, lane.busy_s / wall_s)
                for lane in self.lanes}

    def _gauge(self, lane: DeviceLane) -> None:
        self._tel.gauge("serve.device.free_gb",
                        device=lane.lane_id).set(lane.free_gb)
        self._tel.gauge("serve.device.lane_depth",
                        device=lane.lane_id).set(len(lane.lane))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lanes = ", ".join(
            f"{lane.lane_id}({lane.free_gb:.0f}/"
            f"{lane.spec.memory_gb:.0f} GB)"
            for lane in self.lanes
        )
        return f"DevicePool[{lanes}]"


__all__ = ["DeviceLane", "DevicePool", "MEMORY_EPSILON_GB"]
