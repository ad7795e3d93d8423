"""Serving-layer job records and admission decisions.

A :class:`ServeJob` wraps one :class:`~repro.api.SolveRequest` with
the two quantities the scheduler needs that the request itself does
not carry: a *nominal* problem size in GB -- the paper-scale footprint
the job claims against device memory, even when the system actually
solved is a scaled-down replica -- and a priority.  Admission control
answers with an :class:`AdmissionDecision`.

The nominal/actual split mirrors how every experiment in this repo
treats the paper's 10/30/60 GB problems: placement and capacity follow
the nominal dimensions (``dims_from_gb(nominal_gb)`` through
``device_footprint_gb``, the same accounting that excludes the T4 at
30 GB and everything below H100/MI250X at 60 GB in §V-B), while the
numerics run on an affordable scaled system.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from repro.api import PlacementConstraints, SolveRequest
from repro.serve.cache import fusion_key
from repro.system.sizing import (
    device_footprint_gb,
    dims_from_gb,
    shard_footprint_gb,
)

_JOB_COUNTER = itertools.count()


class AdmissionDecision(enum.Enum):
    """Outcome of admission control for one submitted job."""

    ADMITTED = "admitted"
    #: No device in the pool can ever hold the job's footprint (or a
    #: pinned device/framework is absent/unsupported) -- the §V-B
    #: exclusion, surfaced at submit time instead of as a deep OOM.
    REJECTED_TOO_LARGE = "rejected_too_large"
    #: The queue is at its backpressure bound; shed load instead of
    #: growing latency without bound.
    REJECTED_BACKPRESSURE = "rejected_backpressure"
    #: The scheduler is draining (or aborted): no new work is
    #: admitted during graceful shutdown.
    REJECTED_CLOSED = "rejected_closed"


@dataclass
class ServeJob:
    """One unit of schedulable work.

    ``priority`` is ascending (0 is most urgent); ties break by
    submission order, so a single-priority workload is FIFO.
    ``footprint_gb`` defaults to the device-resident footprint of the
    nominal dimensions (coefficients + solver vectors) and is what
    admission and placement charge against ``DeviceSpec.memory_gb``.
    ``arrival_s`` is an optional open-loop arrival offset relative to
    the start of the run (0 = already queued).
    """

    request: SolveRequest
    nominal_gb: float
    priority: int = 0
    arrival_s: float = 0.0
    job_id: str = ""
    footprint_gb: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.nominal_gb <= 0:
            raise ValueError(
                f"nominal_gb must be > 0, got {self.nominal_gb}")
        if self.arrival_s < 0:
            raise ValueError(
                f"arrival_s must be >= 0, got {self.arrival_s}")
        if not self.job_id:
            self.job_id = (self.request.job_id
                           or f"job-{next(_JOB_COUNTER):04d}")
        if self.footprint_gb <= 0:
            self.footprint_gb = device_footprint_gb(
                dims_from_gb(self.nominal_gb))
        # A job built without an explicit priority adopts the one its
        # request's constraints carry (the new single vocabulary).
        if self.priority == 0:
            self.priority = self.constraints.priority

    def sort_key(self, seq: int) -> tuple[int, int]:
        """Deterministic queue order: priority, then submission seq."""
        return (self.priority, seq)

    @property
    def constraints(self) -> PlacementConstraints:
        """The request's normalized placement constraints."""
        return self.request.placement_constraints

    @property
    def reserve_gb(self) -> float:
        """What placement actually charges against a lane: the
        footprint plus the constraints' memory headroom."""
        return self.footprint_gb * (1.0 + self.constraints.memory_headroom)

    @property
    def gang_compatible(self) -> bool:
        """Can this job run as a gang of CommReduction ranks at all?

        Gang execution rewrites ``ranks`` to the shard count, so the
        request must not already be distributed, and must carry nothing
        the distributed engine forbids (``damp``/``x0``) or that the
        gang path manages itself (``checkpoint_path`` -- migration owns
        the checkpoint file).
        """
        r = self.request
        return (r.ranks == 1
                and r.damp == 0.0
                and r.x0 is None
                and r.checkpoint_path is None
                and r.resume_from is None)

    def shard_reserve_gb(self, n_ranks: int) -> float:
        """Per-lane charge of an ``n_ranks`` gang (headroom included)."""
        shard = shard_footprint_gb(dims_from_gb(self.nominal_gb), n_ranks)
        return shard * (1.0 + self.constraints.memory_headroom)

    @property
    def fusible(self) -> bool:
        """Can this job ride in a fused many-RHS batch at all?

        Only plain serial solves fuse: distributed runs, resilient
        (fault-injected) runs, per-iteration callbacks, mid-solve
        checkpointing, checkpoint resumes and per-request telemetry
        sinks all need the solo driver (their side effects cannot be
        demultiplexed from a shared batched sweep, which always starts
        cold).
        """
        r = self.request
        return (r.ranks == 1
                and r.resilience is None
                and r.callback is None
                and r.checkpoint_every is None
                and r.checkpoint_path is None
                and r.resume_from is None
                and r.telemetry is None)

    @property
    def preemptible(self) -> bool:
        """Can the scheduler run this job as checkpointed slices?

        The sliced path (``docs/sessions.md``) re-executes the request
        on the driver it dispatches to in ``preempt_slice``-iteration
        segments, each resuming the previous one's
        :class:`~repro.core.engine.EngineState` archive, so a more
        urgent arrival can park it mid-solve.  Only a *plain* serial
        request is admitted -- a :attr:`fusible` one without
        ``damp``/``x0``: a caller-provided resilience config would
        change the numerics (each slice restart would reset its fault
        streams), callbacks / telemetry / explicit checkpointing need
        the solo driver's side channels, and ``damp``/``x0``/``ranks > 1``
        jobs have not been let in yet.
        """
        return (self.fusible and self.request.damp == 0.0
                and self.request.x0 is None)

    @property
    def fusion_shape(self) -> tuple:
        """The placement half of :meth:`fusion_key`: footprint,
        framework and constraints -- cheap, no hashing."""
        return (self.nominal_gb, self.footprint_gb,
                self.request.framework, self.constraints)

    def fusion_key(self) -> tuple:
        """The coalescing compatibility key (requires :attr:`fusible`).

        Two queued jobs with equal keys solve the same matrix under
        the same shared engine configuration, claim the same
        footprint, and pin the same device/framework -- everything the
        scheduler needs to run them as one batched solve on one lane.
        The matrix half reads the request's digest pair
        (:attr:`repro.api.SolveRequest.digests`); the key is memoized
        per job.
        """
        cached = getattr(self, "_fusion_key", None)
        if cached is None:
            cached = self._fusion_key = (fusion_key(self.request)
                                         + self.fusion_shape)
        return cached
