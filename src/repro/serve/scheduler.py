"""The multi-tenant solve scheduler.

One :class:`Scheduler` turns a stream of :class:`~repro.serve.job.
ServeJob` submissions into completed :class:`~repro.api.SolveReport`
instances.  :meth:`Scheduler.submit` is **admission control**: a job
whose nominal footprint fits no device in the pool -- and cannot
shard across several as a gang -- is rejected immediately (the
paper's "60 GB fits only H100/MI250X" constraint, enforced at the
door), and a full queue sheds load (``max_queue_depth`` backpressure
bound).  Admission also takes the job's one digest pass
(:attr:`~repro.api.SolveRequest.digests`), before the lock and only
when some stage will read it.  Admitted jobs wait in ascending
``(priority, submission order)``.  From there ``workers`` dispatcher
threads push every job, whatever it is, through one four-stage
pipeline:

- **place** (under the lock) -- take the highest-priority queued job
  that fits some lane's *current* free memory, on the cheapest lane
  by the :class:`~repro.serve.cost.PlacementCostModel` (§V-B
  efficiency ordering, queueing-aware), and reserve its footprint; a
  gang-eligible job no single lane can *ever* hold reserves an
  all-or-nothing gang of lanes instead.  The stage also names the
  job's *route* and gathers what the route needs from shared state:
  fusion siblings (``max_fuse > 1``: queued jobs sharing the leader's
  :meth:`~repro.serve.job.ServeJob.fusion_key`, reserved on the same
  lane) or the parked progress of a preempted solve.
- **open** -- the one place that accounts queue wait, builds the
  :class:`~repro.api.Placement` of an attempt and appends it to the
  placement log.
- **run** -- the only route-specific stage: four small attempt bodies
  under one retry loop.  A *solo* solve
  (:class:`~repro.serve.cache.ResultCache` lookup, single-flight
  coalescing, session warm start); a *sliced* solve
  (``preempt_slice``: checkpointed iteration slices that a starved
  more-urgent arrival can park mid-solve, resumed later -- possibly
  on another device -- bit-for-bit, ``docs/sessions.md``); an R-rank
  *gang* (``ranks`` rewritten to the lane count; the distributed
  engine's row decomposition is the sharding); a K-member *fused
  batch* (one :func:`repro.api.solve_batch` many-RHS sweep
  demultiplexed per member, a member that aborts mid-batch retried
  alone).  A DEGRADED/ABORTED attempt is *relocated* -- the blamed
  lanes swapped for the cheapest spares all-or-nothing, the fault
  seed re-derived -- and run again: a solo job on a different device,
  a gang resuming from its checkpoint archive (the re-placement path
  of ``docs/resilience.md``, lifted from ranks to devices).  Solves execute through a pluggable
  :class:`~repro.serve.worker` backend: ``backend="thread"``
  (default) calls :func:`repro.api.solve` (or an injected
  ``solve_fn``) on the dispatcher, ``backend="process"`` ships
  picklable request specs and right-hand sides to a pool of spawned
  solve processes that attach the matrix zero-copy from the
  shared-memory :class:`~repro.serve.shm.SystemStore` by segment
  name.
- **deliver** -- one ``finally``-guarded epilogue for every route and
  every way out of it: deposit clean solutions in the
  :class:`~repro.sessions.SessionStore`, drop the gang checkpoint
  directory and the park file, release every reservation (busy time
  charged once per lane), then either park-and-requeue a preempted
  job or append one :class:`JobOutcome` per member and wake the
  waiters.  A solve that *raises* -- a worker-process traceback, a
  buggy injected hook -- is contained here, not propagated: the
  members get failed outcomes (``serve.job_failures`` counter,
  :attr:`ServeReport.failed`) and the dispatcher keeps serving, so
  one poisoned request can neither shrink the dispatcher pool nor
  strand a drain.

The stage x route table, with every deliberate bypass (which routes
skip the cache, which results are never cached or recorded), is in
``docs/serving.md`` ("Execution pipeline").

The submission front end is asynchronous: :meth:`Scheduler.submit`
returns the admission decision immediately, :meth:`Scheduler.start`
spins the dispatchers up, and :meth:`Scheduler.drain` performs the
graceful shutdown -- stop admitting (late submissions get
``REJECTED_CLOSED``), let in-flight jobs finish, join every
dispatcher with a bounded timeout, and *surface* workers that never
came back (``serve.workers_stuck`` counter,
:attr:`ServeReport.stuck_workers`) instead of hanging the caller.
:meth:`Scheduler.run` is the batch convenience wrapping all three,
plus the open-loop arrival process.

Determinism: with ``workers=1`` the placement log and cache hit/miss
sequence are a pure function of the submission sequence -- the queue
order, the placement tie-breaks and the cost model are all
deterministic -- which is what ``tests/test_serve.py`` locks down.
The process backend preserves the numerics bitwise: the solve is a
pure function of the request, wherever it runs
(``tests/test_serve_mp.py``).  Telemetry lands under ``serve.*``
(admission counters, queue-depth gauge, per-job spans, wait/exec
histograms; see ``docs/observability.md`` conventions), and worker
processes stream their span/metric buffers back for merge into the
parent registry.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from repro.api import (
    Placement,
    ShardPlacement,
    SolveReport,
    SolveRequest,
    derive_seed,
)
from repro.api import solve as api_solve
from repro.api import solve_batch as api_solve_batch
from repro.core.engine import StopReason
from repro.obs.telemetry import Telemetry
from repro.serve.cache import ResultCache
from repro.serve.cost import CostEstimate, GangEstimate, PlacementCostModel
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.pool import MEMORY_EPSILON_GB, DeviceLane, DevicePool
from repro.serve.shm import SystemStore
from repro.serve.worker import (
    BackendAborted,
    ProcessBackend,
    ThreadBackend,
)
from repro.sessions.store import SessionStore
from repro.sessions.warmstart import (
    record_if_clean,
    seed_request,
    stamp_warm_start,
)

#: Worker-backend names accepted by :class:`Scheduler`.
BACKENDS = ("thread", "process")

#: Stop reasons that trigger a re-placement attempt on another device.
REPLACE_ON: tuple[StopReason, ...] = (StopReason.DEGRADED,
                                     StopReason.ABORTED_FAULTS)

#: How often one sliced solve may be parked before it runs to the end
#: uninterrupted (``docs/sessions.md``): the starvation bound.
MAX_PREEMPTIONS = 8

#: Stream tag for deriving the fault-plan seed of a re-placed attempt
#: (a different physical device sees a different fault realization).
_STREAM_REPLACEMENT = 3


@dataclass
class _Flight:
    """One in-progress solve other identical jobs can wait on."""

    done: threading.Event = field(default_factory=threading.Event)
    report: SolveReport | None = None


@dataclass
class _Member:
    """One job riding a dispatch, with what deliver needs to close it."""

    job: ServeJob
    enqueued_at: float
    wait_s: float = 0.0
    #: One placement per attempt; ``log_index`` locates the latest in
    #: :attr:`Scheduler.placement_log` (a cache hit re-marks it there).
    placements: list[Placement] = field(default_factory=list)
    log_index: int = -1
    report: SolveReport | None = None
    #: Deposit ``report`` in the session store at deliver.
    record: bool = False


@dataclass
class _Dispatch:
    """One trip through place -> open -> run -> deliver.

    ``lanes`` holds one lane id per rank (a single entry off the gang
    route); every member reserved ``charge`` GB on each of them.
    """

    route: str
    members: list[_Member]
    lanes: list[str]
    est: CostEstimate | GangEstimate
    charge: float
    attempt: int = 0
    previous: tuple[str, ...] = ()
    batch_id: str | None = None
    #: Every lane id this dispatch has held; relocation never returns.
    tried: set[str] = field(default_factory=set)
    #: Relocation state: the re-derived fault seed of the current
    #: attempt, the ranks lost so far (their scheduled deaths must not
    #: replay on a replacement lane), and rank -> the lane the latest
    #: relocation moved it off.
    seed: int = 0
    dead: set[int] = field(default_factory=set)
    migrated: dict[int, str] = field(default_factory=dict)
    ckpt_dir: str | None = None
    #: Sliced route: iterations completed, and whether this dispatch
    #: ends parked (re-queued) instead of delivered.
    done_itn: int = 0
    parked: bool = False

    @property
    def job(self) -> ServeJob:
        """The leading (for most routes: the only) job."""
        return self.members[0].job


@dataclass
class JobOutcome:
    """Terminal record of one submitted job."""

    job: ServeJob
    decision: AdmissionDecision
    report: SolveReport | None = None
    placements: tuple[Placement, ...] = ()
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    #: Why an admitted job produced no report (a solve that raised --
    #: e.g. a worker-process traceback); None for clean outcomes.
    error: str | None = None

    @property
    def placement(self) -> Placement | None:
        """The placement that produced the final report."""
        return self.placements[-1] if self.placements else None


@dataclass
class ServeReport:
    """Aggregate statistics of one scheduler run."""

    outcomes: list[JobOutcome]
    wall_s: float
    utilization: dict[str, float]
    cache_stats: dict[str, int]
    placement_log: list[Placement] = field(default_factory=list)
    #: Which worker backend executed the run.
    backend: str = "thread"
    #: Dispatcher threads that outlived the drain timeout (each still
    #: holds its lane reservation; see ``serve.workers_stuck``).
    stuck_workers: tuple[str, ...] = ()
    #: How many times a sliced low-priority solve was parked mid-run
    #: to unblock a more urgent job (``docs/sessions.md``).
    preemptions: int = 0

    @property
    def completed(self) -> list[JobOutcome]:
        """Outcomes that produced a report."""
        return [o for o in self.outcomes if o.report is not None]

    @property
    def rejected(self) -> list[JobOutcome]:
        """Outcomes shed by admission control."""
        return [o for o in self.outcomes
                if o.decision is not AdmissionDecision.ADMITTED]

    @property
    def failed(self) -> list[JobOutcome]:
        """Admitted outcomes whose solve raised instead of reporting."""
        return [o for o in self.outcomes
                if o.decision is AdmissionDecision.ADMITTED
                and o.report is None]

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return len(self.completed) / self.wall_s

    def wait_percentile(self, q: float) -> float:
        """Queue-latency percentile over completed jobs (seconds)."""
        waits = [o.queue_wait_s for o in self.completed]
        if not waits:
            return 0.0
        return float(np.percentile(np.asarray(waits), q))

    def summary(self) -> str:
        """Human-readable run report (the CLI's serve output)."""
        done, rej = self.completed, self.rejected
        hits = self.cache_stats.get("hits", 0)
        misses = self.cache_stats.get("misses", 0)
        lines = [
            f"jobs: {len(done)} completed, {len(rej)} rejected "
            f"in {self.wall_s:.3f} s "
            f"({self.throughput_jobs_per_s:.2f} jobs/s)",
            f"queue latency: p50={self.wait_percentile(50) * 1e3:.1f} ms "
            f"p99={self.wait_percentile(99) * 1e3:.1f} ms",
            f"cache: {hits} hits / {misses} misses"
            + (f" ({hits / (hits + misses):.0%} hit rate)"
               if hits + misses else ""),
            "device utilization: " + ", ".join(
                f"{dev}={u:.0%}" for dev, u in self.utilization.items()),
        ]
        replaced = [o for o in done if len(o.placements) > 1]
        if replaced:
            lines.append(
                f"re-placed after degraded/aborted solve: "
                f"{len(replaced)} job(s)")
        fused = [p for p in self.placement_log
                 if p.batch_id is not None]
        if fused:
            batches = len({p.batch_id for p in fused})
            lines.append(
                f"request fusion: {len(fused)} job(s) solved in "
                f"{batches} fused batch(es)")
        tuned = sum(1 for p in self.placement_log if p.tuned)
        if tuned:
            lines.append(
                f"tuned placement prices: {tuned}/"
                f"{len(self.placement_log)} placement(s)")
        warm = [o for o in done
                if o.report is not None
                and o.report.warm_start is not None]
        if warm:
            saved = sum(o.report.warm_start.iterations_saved
                        for o in warm)
            lines.append(
                f"session warm starts: {len(warm)} solve(s) seeded "
                f"from the store ({saved:+d} iterations vs their "
                f"source solves)")
        if self.preemptions:
            lines.append(
                f"preempt/park/resume: {self.preemptions} "
                f"preemption(s) of sliced low-priority solves")
        failed = self.failed
        if failed:
            lines.append(
                f"WARNING: {len(failed)} job(s) failed: "
                + ", ".join(o.job.job_id for o in failed[:5])
                + (" ..." if len(failed) > 5 else ""))
        if self.stuck_workers:
            lines.append(
                "WARNING: worker(s) stuck past the drain timeout: "
                + ", ".join(self.stuck_workers))
        return "\n".join(lines)


class Scheduler:
    """Admission control + placement + execution over a device pool."""

    def __init__(
        self,
        pool: DevicePool,
        *,
        workers: int = 4,
        cache: ResultCache | None = None,
        cost_model: PlacementCostModel | None = None,
        max_queue_depth: int = 64,
        max_replacements: int = 1,
        max_fuse: int = 1,
        backend: str = "thread",
        drain_timeout: float = 60.0,
        mp_workers: int | None = None,
        sessions: SessionStore | None = None,
        preempt_slice: int | None = None,
        telemetry: Telemetry | None = None,
        solve_fn: Callable[[SolveRequest], SolveReport] = api_solve,
        batch_solve_fn: Callable[[list[SolveRequest]],
                                 list[SolveReport]] = api_solve_batch,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_fuse < 1:
            raise ValueError(f"max_fuse must be >= 1, got {max_fuse}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"one of {BACKENDS}")
        if drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {drain_timeout}")
        if mp_workers is not None and mp_workers < 1:
            raise ValueError(
                f"mp_workers must be >= 1, got {mp_workers}")
        if preempt_slice is not None and preempt_slice < 1:
            raise ValueError(
                f"preempt_slice must be >= 1, got {preempt_slice}")
        if preempt_slice is not None and sessions is None:
            raise ValueError(
                "preempt_slice requires a sessions store: preempted "
                "solves park their checkpoint in it")
        self.pool = pool
        self.workers = workers
        self.cache = cache
        self.cost_model = cost_model or PlacementCostModel()
        self.max_queue_depth = max_queue_depth
        self.max_replacements = max_replacements
        self.max_fuse = max_fuse
        self.backend = backend
        self.drain_timeout = drain_timeout
        self.tel = Telemetry.or_null(telemetry)
        self.solve_fn = solve_fn
        self.batch_solve_fn = batch_solve_fn
        #: Session-lifecycle store (``docs/sessions.md``): warm-start
        #: resolution for plain serial jobs, solution recording, and
        #: the parking lot for preempted sliced solves.
        self.sessions = sessions
        #: With a slice length, preemptible jobs of priority > 0 run
        #: as checkpointed ``preempt_slice``-iteration segments so a
        #: more urgent starved arrival can park them mid-solve.
        self.preempt_slice = preempt_slice
        #: True when the scheduler created the sessions store itself
        #: and must close it on drain/abort (set by
        #: :func:`repro.serve.scenario.build_scheduler`).
        self._own_sessions = False
        self._preemptions = 0
        #: The process backend's shared-memory segments; the scheduler
        #: owns the store and closes it at drain/abort.
        self._store = SystemStore() if backend == "process" else None
        if backend == "process":
            # Dispatch width (``workers``: admission, placement, queue
            # management) and execution width (how many solves actually
            # run at once) are decoupled: by default the solve-process
            # pool is sized to the physical cores, because running more
            # CPU-bound solves than cores just interleaves them through
            # each other's caches.  The thread backend cannot make this
            # distinction -- its solves run *in* the dispatchers.
            self.mp_workers = (mp_workers if mp_workers is not None
                               else max(1, min(workers,
                                               os.cpu_count() or 1)))
            self._backend = ProcessBackend(self, workers=self.mp_workers,
                                           store=self._store)
        else:
            self.mp_workers = None
            self._backend = ThreadBackend(self)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._drained = False
        self._t_start: float | None = None
        #: Injectable arrival sleep (tests interrupt it).
        self._sleep = time.sleep

        self._cond = threading.Condition()
        #: Single-flight table: cache key -> in-progress solve, so N
        #: concurrent identical jobs cost one solve (the followers
        #: wait and share the leader's report).
        self._inflight: dict[object, _Flight] = {}
        #: (sort_key, job, enqueue time) in arrival order; scanned in
        #: priority order at dispatch.
        self._queue: list[tuple[tuple[int, int], ServeJob, float]] = []
        self._seq = 0
        self._in_flight = 0
        self._closed = False
        self.outcomes: list[JobOutcome] = []
        self.placement_log: list[Placement] = []

    # -- admission ------------------------------------------------------
    def submit(self, job: ServeJob) -> AdmissionDecision:
        """Admit a job to the queue, or reject it at the door.

        Asynchronous: returns the admission decision immediately; the
        outcome arrives via :attr:`outcomes` (wait with
        :meth:`wait_for_outcomes` or collect everything with
        :meth:`drain`).  After :meth:`drain`/:meth:`abort` every
        submission answers ``REJECTED_CLOSED``.
        """
        priced = self._priced(job)
        # Gang fallback: only when NO single lane can ever hold the
        # footprint does a gang-eligible job shard across lanes -- the
        # §V-B exclusion becomes a decomposition instead of a
        # rejection.
        gang = None
        if not priced and self._gang_eligible(job):
            gang = next(self._gangs(job, now=False), None)
        if self._reads_digests(job, priced) and not job.request.hashed:
            # The job's one digest pass, taken here, before the lock:
            # every later reader (cache key, fusion key, publish,
            # session record) finds it on the request.
            job.request.digests
            self.tel.counter("serve.digest_passes").inc()
        with self._cond:
            if self._closed:
                decision = AdmissionDecision.REJECTED_CLOSED
            elif not priced and gang is None:
                decision = AdmissionDecision.REJECTED_TOO_LARGE
            elif len(self._queue) >= self.max_queue_depth:
                decision = AdmissionDecision.REJECTED_BACKPRESSURE
            else:
                decision = AdmissionDecision.ADMITTED
            self.tel.counter("serve.admission",
                             decision=decision.value).inc()
            if decision is not AdmissionDecision.ADMITTED:
                self.outcomes.append(JobOutcome(job=job,
                                                decision=decision))
                self._cond.notify_all()
                return decision
            if not priced:
                self.tel.counter("serve.gang.admitted",
                                 ranks=str(gang[1].ranks)).inc()
            self._enqueue(job)
            self._cond.notify()
            return decision

    # -- execution ------------------------------------------------------
    def start(self) -> None:
        """Spin up the backend and the dispatcher threads (idempotent).

        Separate from :meth:`run` so callers can pay the backend
        startup cost (process spawn + imports) outside a measured
        window, then feed the scheduler with :meth:`submit`.
        """
        if self._started:
            return
        self._started = True
        self._t_start = time.perf_counter()
        self._backend.start()
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-w{i}",
                             daemon=True)
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the backend's workers are warm (see backend)."""
        self.start()
        return self._backend.wait_ready(timeout)

    def reset_clock(self) -> None:
        """Restart the measured wall-clock window at *now*.

        For benchmark drivers that pre-start the backend (process
        spawn + imports) and must not charge the warmup to the run:
        :attr:`ServeReport.wall_s` counts from the latest of
        :meth:`start`, :meth:`run` entry and this call.
        """
        self._t_start = time.perf_counter()

    def wait_for_outcomes(self, n: int,
                          timeout: float | None = None) -> bool:
        """Block until at least ``n`` outcomes exist (True on success).

        The closed-loop load driver's primitive: outstanding work is
        ``submitted - len(outcomes)`` (rejections resolve at submit,
        completions when a dispatcher finishes the job).
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self.outcomes) >= n, timeout)

    def run(self, jobs: list[ServeJob] | None = None) -> ServeReport:
        """Submit ``jobs``, run them all, drain, and report.

        Jobs with a positive ``arrival_s`` are submitted open-loop at
        their offsets; the rest are enqueued immediately.  Returns
        when every admitted job has completed (or, if a worker wedges,
        when the bounded drain gives up on it -- see :meth:`drain`).
        An exception during the arrival loop (``KeyboardInterrupt``
        included) aborts the run: backend killed, store unlinked, no
        orphaned processes or segments.
        """
        start = time.perf_counter()
        pending = sorted(jobs or [], key=lambda j: j.arrival_s)
        for job in (j for j in pending if j.arrival_s == 0.0):
            self.submit(job)
        arrivals = [j for j in pending if j.arrival_s > 0.0]

        self.start()
        # The measured window starts here even when the backend was
        # pre-started: spawn cost is a fixed setup fee, not throughput.
        self._t_start = start
        try:
            for job in arrivals:  # open-loop arrival process
                delay = start + job.arrival_s - time.perf_counter()
                if delay > 0:
                    self._sleep(delay)
                self.submit(job)
        except BaseException:
            self.abort()
            raise
        return self.drain()

    def drain(self, timeout: float | None = None) -> ServeReport:
        """Graceful shutdown: close admission, finish, join bounded.

        Stops admitting (late :meth:`submit` calls answer
        ``REJECTED_CLOSED``), lets queued and in-flight jobs complete,
        then joins every dispatcher thread against one shared deadline
        (``timeout``, default the scheduler's ``drain_timeout``).  A
        thread that misses the deadline -- a wedged solve, a worker
        process that stopped answering -- is *reported* (the
        ``serve.workers_stuck`` counter and
        :attr:`ServeReport.stuck_workers`) instead of hanging the
        caller forever, and the backend is then stopped forcefully so
        its pending call fails rather than leaking.
        """
        timeout = self.drain_timeout if timeout is None else timeout
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        deadline = time.perf_counter() + timeout
        stuck: list[str] = []
        for t in self._threads:
            t.join(max(0.0, deadline - time.perf_counter()))
            if t.is_alive():
                stuck.append(t.name)
        if stuck:
            self.tel.counter("serve.workers_stuck").inc(len(stuck))
        if not self._drained:
            self._drained = True
            self._backend.stop(force=bool(stuck))
            self._close_stores()
        t0 = self._t_start if self._t_start is not None \
            else time.perf_counter()
        wall = time.perf_counter() - t0
        return ServeReport(
            outcomes=list(self.outcomes),
            wall_s=wall,
            utilization=self.pool.utilization(wall),
            cache_stats=(self.cache.stats() if self.cache is not None
                         else {}),
            placement_log=list(self.placement_log),
            backend=self.backend,
            stuck_workers=tuple(stuck),
            preemptions=self._preemptions,
        )

    def abort(self) -> None:
        """Immediate teardown (interrupt path): kill, unlink, unblock.

        Closes admission, kills the backend (terminating worker
        processes), and unlinks the segment store, so an interrupted
        run leaves no orphaned processes and no leaked shared-memory
        segments.  Dispatcher threads blocked on a backend call wake
        with :class:`~repro.serve.worker.BackendAborted` and exit.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if not self._drained:
            self._drained = True
            self._backend.kill()
            self._close_stores()

    def _close_stores(self) -> None:
        """Unlink the segment store and close an owned session store."""
        if self._store is not None:
            self._store.close()
        if self._own_sessions and self.sessions is not None:
            self.sessions.close()

    # -- stage 1: place (lock held, except for submit's capacity test) ---
    def _reads_digests(self, job: ServeJob, priced: list) -> bool:
        """Will any stage read this job's digest pair?

        The process backend's publish does on every route; the result
        cache, fusion and the session store do off the gang route (a
        job no single lane prices), which bypasses all three.
        """
        if self._backend.publishes(job.request):
            return True
        return bool(priced) and (
            self.cache is not None or self.sessions is not None
            or (self.max_fuse > 1 and job.fusible))

    def _priced(self, job: ServeJob, *, ranks: int = 1,
                now: bool = False, exclude: Iterable[str] = ()
                ) -> list[tuple[DeviceLane, CostEstimate]]:
        """Lanes that can hold and price the job, with their estimates.

        The one "priced feasible lanes" filter.  ``ranks > 1`` asks
        about one shard of an R-rank gang instead of the whole job.
        By default a lane qualifies on its *total* memory (admission:
        could it ever run there?); with ``now`` on its *current* free
        memory, minus the ``exclude`` lane ids (placement).
        """
        if ranks == 1:
            charge, nominal_gb = job.reserve_gb, job.nominal_gb
        else:
            charge = job.shard_reserve_gb(ranks)
            nominal_gb = job.nominal_gb / ranks
        devices = job.constraints.devices
        lanes = (self.pool.placeable(charge, devices=devices,
                                     exclude=exclude) if now
                 else self.pool.feasible(charge, devices=devices))
        priced = []
        for lane in lanes:
            est = self.cost_model.estimate(
                nominal_gb, lane.spec, framework=job.request.framework)
            if est is not None:
                priced.append((lane, est))
        return priced

    def _cheapest(self, job: ServeJob, *, ranks: int = 1,
                  exclude: Iterable[str] = ()
                  ) -> list[tuple[DeviceLane, CostEstimate]]:
        """Lanes the job fits on right now, cheapest first.

        The one ranking key.  Queueing-aware price: a lane already
        running k jobs finishes a new one ~(k+1)x later, so a slower
        idle device can beat the fastest busy one.  Ties break by raw
        cost then lane id -- fully deterministic.
        """
        return sorted(
            self._priced(job, ranks=ranks, now=True, exclude=exclude),
            key=lambda le: (le[1].seconds * (1 + len(le[0].lane)),
                            le[1].seconds, le[0].lane_id))

    def _gang_eligible(self, job: ServeJob) -> bool:
        """Did the job opt in to gang sharding, and can it gang at all?"""
        cons = job.constraints
        return (cons.allow_gang and cons.max_shards >= 2
                and job.gang_compatible)

    def _gangs(self, job: ServeJob, *, now: bool):
        """Each feasible gang: ``(lanes, gang_estimate, per_lane_charge)``.

        For every rank count R up to the constraints' shard budget, R
        lanes that hold a shard (plus headroom) -- on their *total*
        memory in pool order (admission: could the job ever gang?) or,
        with ``now``, the R cheapest by :meth:`_cheapest` on their
        *current* free memory (placement) -- priced as one solve by
        :meth:`~repro.serve.cost.PlacementCostModel.estimate_gang`
        (slowest shard + modeled allreduce comm).  Admission takes the
        first gang, placement the cheapest: more ranks shrink the
        shards but grow the comm term, so the link model arbitrates.
        Both ask the same question, so an admitted gang job can always
        eventually place once the pool drains.
        """
        for ranks in range(2, job.constraints.max_shards + 1):
            priced = (self._cheapest(job, ranks=ranks) if now
                      else self._priced(job, ranks=ranks))
            lanes = [lane for lane, _ in priced[:ranks]]
            if len(lanes) < ranks:
                continue
            gang_est = self.cost_model.estimate_gang(
                job.nominal_gb, tuple(lane.spec for lane in lanes),
                framework=job.request.framework)
            if gang_est is not None:
                yield lanes, gang_est, job.shard_reserve_gb(ranks)

    def _next_placeable(self):
        """Highest-priority queued job that fits free memory somewhere.

        Returns ``(index, lanes, estimate, per_lane_charge)`` or None:
        one lane with its :class:`~repro.serve.cost.CostEstimate`, or
        a gang of lanes with their
        :class:`~repro.serve.cost.GangEstimate`.  Skipping over a head
        job that does not currently fit lets small jobs flow around a
        large one waiting for H100-class memory (bounded head-of-line
        blocking); the skip order is still deterministic because both
        the scan and the tie-breaks are.  A job only places as a gang
        when no single lane could *ever* hold it -- sharding is the
        escape hatch from the §V-B exclusion, not a load-balancing
        device.
        """
        order = sorted(range(len(self._queue)),
                       key=lambda i: self._queue[i][0])
        for idx in order:
            job = self._queue[idx][1]
            ranked = self._cheapest(job)
            if ranked:
                lane, est = ranked[0]
                return idx, [lane], est, job.reserve_gb
            if self._gang_eligible(job) and not self._priced(job):
                gang = min(self._gangs(job, now=True), default=None,
                           key=lambda g: g[1].seconds)
                if gang is not None:
                    return (idx,) + gang
        return None

    def _sliceable(self, job: ServeJob) -> bool:
        """Should this job run as preemptible checkpointed slices?

        Priority 0 is the most-urgent class -- nothing outranks it,
        so slicing it would pay checkpoint overhead for a preemption
        that can never be demanded; every lower class rides the
        sliced route whenever the scheduler has a slice length and a
        session store to park in.
        """
        return (self.preempt_slice is not None
                and self.sessions is not None
                and job.priority > 0
                and job.preemptible)

    def _collect_siblings(self, leader: ServeJob, lane: DeviceLane
                          ) -> list[_Member]:
        """Pull queued fusion-compatible jobs onto ``lane``.

        Scans the queue in priority order, taking up to
        ``max_fuse - 1`` jobs whose :meth:`~repro.serve.job.ServeJob.
        fusion_key` matches the leader's and whose footprint still
        fits the lane's free memory; each taken sibling is reserved on
        the lane under its own job id (the fusion key pins the
        footprint, so every member charges the leader's amount).  The
        cheap placement half of the key is compared first: a candidate
        shaped like the leader prices like it, so admission already
        took its digest pass and no matrix is hashed under the lock.
        """
        shape, key = leader.fusion_shape, leader.fusion_key()
        picked: list[tuple[int, _Member]] = []
        order = sorted(range(len(self._queue)),
                       key=lambda i: self._queue[i][0])
        for qi in order:
            if len(picked) + 1 >= self.max_fuse:
                break
            _, cand, enq = self._queue[qi]
            if (cand.fusible and cand.fusion_shape == shape
                    and cand.fusion_key() == key
                    and lane.fits_now(cand.reserve_gb)):
                self.pool.reserve(lane.lane_id, cand.reserve_gb,
                                  cand.job_id)
                picked.append((qi, _Member(cand, enq)))
        for qi in sorted((qi for qi, _ in picked), reverse=True):
            del self._queue[qi]
        return [member for _, member in picked]

    def _enqueue(self, job: ServeJob) -> None:
        """Queue a job at *now* (admission, or a parked job's return)."""
        self._queue.append((job.sort_key(self._seq), job,
                            time.perf_counter()))
        self._seq += 1
        self.tel.gauge("serve.queue_depth").set(len(self._queue))

    def _place(self) -> _Dispatch | None:
        """Dequeue the next placeable job, reserve it, name its route.

        Blocks until some queued job fits; returns None once the
        scheduler is closed and idle.  Everything a route needs from
        shared state is gathered here, under the lock: the gang's
        all-or-nothing reservation, a fusible leader's siblings, a
        sliceable job's parked progress.
        """
        choice = self._next_placeable()
        while choice is None:
            if self._closed and self._in_flight == 0:
                if not self._queue:
                    return None
                # Nothing running will ever free memory; the queue
                # head passed admission, so this cannot happen unless
                # a caller mutated the pool.
                raise RuntimeError(
                    "queued jobs can never be placed: "
                    + ", ".join(j.job_id for _, j, _ in self._queue))
            self._cond.wait()
            choice = self._next_placeable()
        idx, lanes, est, charge = choice
        _, job, enqueued_at = self._queue.pop(idx)
        d = _Dispatch(route="solo", members=[_Member(job, enqueued_at)],
                      lanes=[lane.lane_id for lane in lanes],
                      est=est, charge=charge)
        d.tried.update(d.lanes)
        if len(lanes) > 1:
            d.route = "gang"
            self.pool.reserve_gang(d.lanes, charge, job.job_id)
            self.tel.counter("serve.gang.placed",
                             ranks=str(est.ranks)).inc()
        else:
            self.pool.reserve(d.lanes[0], charge, job.job_id)
            if self._sliceable(job):
                d.route = "sliced"
                parked = self.sessions.claim(job.job_id)
                if parked is not None:
                    d.done_itn, d.attempt = parked.itn, parked.attempt
                    d.previous = parked.devices
            elif self.max_fuse > 1 and job.fusible:
                d.members += self._collect_siblings(job, lanes[0])
                if len(d.members) > 1:
                    d.route = "batch"
                    d.batch_id = f"fuse-{job.job_id}"
        self._in_flight += len(d.members)
        self.tel.gauge("serve.queue_depth").set(len(self._queue))
        return d

    # -- the pipeline ----------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                d = self._place()
            if d is None or not self._dispatch(d):
                return

    def _dispatch(self, d: _Dispatch) -> bool:
        """open -> run -> deliver for one placed dispatch.

        A solve that fails outright -- a worker-process traceback, a
        buggy injected ``solve_fn`` -- is contained: deliver gives the
        members failed outcomes and this dispatcher keeps serving
        (letting the exception fly would silently shrink the
        dispatcher pool and leave ``drain()``/``wait_for_outcomes()``
        waiting for outcomes that will never arrive).  Returns False
        when the backend died underneath us (abort/forced stop): the
        run is being torn down and the dispatcher exits.
        """
        # Pessimistic until the run stage returns: a BaseException that
        # is not ours to contain (KeyboardInterrupt in a dispatcher)
        # still passes through deliver as a failure, then propagates.
        error: str | None = "dispatch interrupted"
        alive = True
        t0 = time.perf_counter()
        try:
            self._run(d)
            error = None
        except BackendAborted:
            alive = False
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._deliver(d, t0, error, alive)
        return alive

    # -- stage 2: open ---------------------------------------------------
    def _open(self, d: _Dispatch) -> None:
        """Account the wait and log the placement of one attempt.

        The only site that observes ``serve.queue_wait_s``, constructs
        a :class:`~repro.api.Placement` or appends to the placement
        log.  The wait is measured once per member, at its first
        attempt; each member remembers where its placement sits in
        the log so a cache hit can re-mark it without searching.
        """
        now = time.perf_counter()
        shards: tuple[ShardPlacement, ...] = ()
        if d.route == "gang":
            shards = tuple(
                ShardPlacement(
                    rank=rank, device=lane_id, footprint_gb=d.charge,
                    port_key=d.est.per_rank[rank].port_key,
                    estimated_s=d.est.per_rank[rank].seconds,
                    migrated_from=d.migrated.get(rank))
                for rank, lane_id in enumerate(d.lanes))
        for m in d.members:
            if not m.placements:
                m.wait_s = now - m.enqueued_at
                self.tel.histogram("serve.queue_wait_s").observe(m.wait_s)
            m.placements.append(Placement(
                job_id=m.job.job_id,
                device="+".join(d.lanes),
                nominal_gb=m.job.nominal_gb,
                footprint_gb=m.job.footprint_gb,
                queue_wait_s=m.wait_s,
                estimated_s=d.est.seconds,
                port_key=d.est.port_key,
                attempt=d.attempt,
                previous_devices=d.previous,
                batch_id=d.batch_id,
                batch_size=len(d.members),
                tuned=d.est.tuned,
                shards=shards,
            ))
        with self._cond:
            for m in d.members:
                m.log_index = len(self.placement_log)
                self.placement_log.append(m.placements[-1])

    def _mark_hit(self, m: _Member) -> None:
        """Flip the member's latest placement to a cache hit."""
        hit = replace(m.placements[-1], cache_hit=True)
        m.placements[-1] = hit
        with self._cond:
            self.placement_log[m.log_index] = hit

    # -- stage 3: run ----------------------------------------------------
    def _run(self, d: _Dispatch) -> None:
        """Open and run attempts until one stands.

        Each route's attempt body returns the ranks whose lanes its
        result blames (none: the result stands).  While the
        re-placement budget lasts those lanes are relocated and the
        route runs again.
        """
        attempt = getattr(self, "_attempt_" + d.route)
        while True:
            self._open(d)
            lost = attempt(d)
            if (not lost or d.attempt >= self.max_replacements
                    or not self._relocate(d, lost)):
                return

    def _relocate(self, d: _Dispatch, lost: list[int]) -> bool:
        """Move the lost ranks' reservations to spare lanes, all or none.

        The re-placement step of ``docs/resilience.md`` for every
        route that has one: a solo job leaves the device that degraded
        it, a gang moves each dead rank's shard.  Every spare is
        *chosen* first -- the cheapest lanes by :meth:`_cheapest` on
        the per-lane price, never one this dispatch has already held
        -- and only when all lost ranks have one does any reservation
        move.  Otherwise nothing is mutated and the caller delivers
        the degraded result as-is rather than stranding a
        half-migrated gang.  A relocated attempt runs on different
        hardware, so its fault/retry streams re-derive from
        ``(seed, attempt)``: the injected-fault realization must not
        replay.
        """
        job = d.job
        gang = d.route == "gang"
        if not gang:
            self.tel.counter("serve.replacement",
                             from_device=d.lanes[0]).inc()
        ranks = sorted({min(r, len(d.lanes) - 1) for r in lost})
        with self._cond:
            spares = self._cheapest(job, ranks=len(d.lanes),
                                    exclude=d.tried)[:len(ranks)]
            if len(spares) < len(ranks):
                return False
            d.previous += ("+".join(d.lanes),)
            d.migrated = {}
            for rank, (lane, est) in zip(ranks, spares):
                self.pool.release(d.lanes[rank], d.charge, job.job_id)
                self.pool.reserve(lane.lane_id, d.charge, job.job_id)
                d.migrated[rank] = d.lanes[rank]
                d.lanes[rank] = lane.lane_id
                d.tried.add(lane.lane_id)
                if not gang:
                    d.est = est
            self._cond.notify_all()
        if gang:
            self.tel.counter("serve.gang.migrations").inc(len(ranks))
        d.attempt += 1
        d.dead.update(lost)
        d.seed = derive_seed(job.request.seed,
                             _STREAM_REPLACEMENT + d.attempt)
        return True

    def _attempt_solo(self, d: _Dispatch) -> list[int] | None:
        """One solve: cache and single-flight lookup, warm start, solve."""
        m = d.members[0]
        request = m.job.request
        m.record = False
        key = self.cache.key(request) if self.cache is not None else None
        with self.tel.span("serve.job", job_id=m.job.job_id,
                           device=d.lanes[0], attempt=d.attempt):
            flight = leader = shared = None
            if key is not None:
                with self._cond:
                    shared = self.cache.get(key)
                    if shared is None:
                        leader = self._inflight.get(key)
                        if leader is None:
                            flight = self._inflight[key] = _Flight()
            if leader is not None:
                # An identical job is solving right now: coalesce
                # instead of recomputing (request single-flight).  A
                # leader that failed leaves no report; then we solve
                # ourselves.
                self.tel.counter("serve.coalesced").inc()
                leader.done.wait()
                shared = leader.report
            if shared is not None:
                m.report = shared
                self._mark_hit(m)
                return None
            if d.attempt > 0 and request.resilience is not None:
                request = request.derive(seed=d.seed)
            warm = None
            if self.sessions is not None:
                request, warm = seed_request(self.sessions, request)
            # Only a clean first attempt is publishable: re-placed
            # attempts ran under a redrawn fault seed, degraded/
            # aborted results must not be served to future twins, and
            # a warm-started solve answered a *seeded* request -- its
            # bits differ from the cold solve the cache key promises
            # (the solution itself is equally valid and still feeds
            # the session store).
            publishable = False
            try:
                report = self._backend.solve(request)
                publishable = (d.attempt == 0 and warm is None
                               and report.stop not in REPLACE_ON)
            finally:
                if flight is not None:
                    with self._cond:
                        self._inflight.pop(key, None)
                    if publishable:
                        flight.report = replace(report, job_id=None,
                                                placement=None)
                    flight.done.set()
            if publishable and key is not None:
                self.cache.put(key, report)
            m.record = d.attempt == 0
            m.report = stamp_warm_start(report, warm)
        return [0] if report.stop in REPLACE_ON else None

    def _preempt_wanted(self, job: ServeJob, lane_id: str) -> bool:
        """Is a strictly more urgent queued job starved for this lane?

        True when some queued job with a lower priority value cannot
        place on any lane's *current* free memory, but could place if
        this job's reservation were returned -- i.e. parking would
        actually unblock the urgent job, not just thrash a
        checkpoint.  Called between slices with the scheduler lock
        held.
        """
        for _, queued, _ in self._queue:
            if queued.priority >= job.priority:
                continue
            if self._cheapest(queued):
                continue  # places without our help; no preemption
            for cand, _ in self._priced(queued):
                free = cand.free_gb + (
                    job.reserve_gb if cand.lane_id == lane_id else 0.0)
                if queued.reserve_gb <= free + MEMORY_EPSILON_GB:
                    return True
        return False

    def _attempt_sliced(self, d: _Dispatch) -> None:
        """Run one solve as preemptible checkpointed slices.

        The request re-executes on the driver it dispatches to anyway
        (the serial ``lsqr_solve``: :attr:`ServeJob.preemptible`
        admits nothing else) in ``preempt_slice``-iteration segments:
        each segment resumes from the previous one's
        :class:`~repro.core.engine.EngineState` archive, written once,
        at the segment's last iteration, straight into the session
        store's parking file.  Between segments -- under the scheduler
        lock -- the dispatcher asks :meth:`_preempt_wanted`; if a more
        urgent queued job is starved for this lane's memory, the
        dispatch ends *parked*: deliver releases the lane, registers
        the checkpoint and its progress in the store and re-queues the
        job, to be resumed by a later dispatch, possibly on a
        different lane (device migration).  Checkpoint/resume is
        bit-for-bit and the engine's stop tests are
        iteration-limit-independent, so the finished report is the
        uninterrupted serial report in every field (locked down by
        ``tests/test_serve_sessions.py``).

        Sliced jobs bypass the result cache and single-flight: the
        executed request differs from the submitted one (same
        reasoning as the gang route), so publishing under the original
        key would poison future twins.  The completed solution still
        lands in the session store for warm starts.
        """
        m = d.members[0]
        job, base = m.job, m.job.request
        total = (base.iter_lim if base.iter_lim is not None
                 else 2 * base.system.dims.n_params)
        ckpt = str(self.sessions.park_path(job.job_id))
        while True:
            request = base.derive(
                checkpoint_every=self.preempt_slice,
                iter_lim=min(d.done_itn + self.preempt_slice, total),
                checkpoint_path=ckpt,
                resume_from=ckpt if d.done_itn > 0 else None)
            with self.tel.span("serve.slice", job_id=job.job_id,
                               device=d.lanes[0], start_itn=d.done_itn):
                report = self._backend.solve(request)
            d.done_itn = report.itn
            if (report.stop is not StopReason.ITERATION_LIMIT
                    or d.done_itn >= total):
                m.report, m.record = report, True
                return
            with self._cond:
                if (d.attempt < MAX_PREEMPTIONS
                        and self._preempt_wanted(job, d.lanes[0])):
                    d.parked = True
                    return

    def _attempt_gang(self, d: _Dispatch) -> list[int] | None:
        """Run one solve sharded across a gang of reserved lanes.

        The request's ``ranks`` is rewritten to the gang's rank count
        and solved through the normal backend -- the distributed
        engine's row decomposition (:mod:`repro.dist.decomposition`)
        *is* the sharding, each rank standing for one lane.  Because
        the executed request differs from the submitted one, gang jobs
        bypass the result cache and single-flight entirely (publishing
        an R-rank result under the ranks=1 digest would poison future
        twins) and are not recorded in the session store.

        Resilience fusion: with a :class:`~repro.api.ResilienceConfig`
        the gang checkpoints into a private directory, and a solve
        that ends DEGRADED/ABORTED having lost ranks asks for those
        ranks' shards to be relocated; the next attempt resumes from
        the last :class:`~repro.core.engine.EngineState` archive with the
        fired rank-death entries dropped from the fault plan (the dead
        lane's faults must not replay on its replacement).
        """
        m = d.members[0]
        request = m.job.request.derive(ranks=len(d.lanes))
        ckpt: str | None = None
        if request.resilience is not None:
            if d.ckpt_dir is None:
                d.ckpt_dir = tempfile.mkdtemp(
                    prefix=f"gang-{m.job.job_id}-")
            ckpt = os.path.join(d.ckpt_dir, "gang-ckpt.npz")
            request = request.derive(checkpoint_path=ckpt)
            if d.attempt > 0:
                kept_deaths = tuple(
                    death for death in request.resilience.rank_deaths
                    if death[0] not in d.dead)
                request = request.derive(
                    seed=d.seed, resume_from=ckpt,
                    resilience=replace(request.resilience,
                                       rank_deaths=kept_deaths))
        with self.tel.span("serve.gang", job_id=m.job.job_id,
                           ranks=len(d.lanes), attempt=d.attempt):
            m.report = report = self._backend.solve(request)
        if (report.stop in REPLACE_ON and report.resilience is not None
                and ckpt is not None and os.path.exists(ckpt)):
            return sorted(set(report.resilience.ranks_lost))
        return None

    def _attempt_batch(self, d: _Dispatch) -> None:
        """Solve a fused batch on one lane and demultiplex the results.

        Per member: a cache lookup first (hits leave the batch), then
        exact-duplicate members share one solve, then the remaining
        representatives run through ``batch_solve_fn`` as a single
        many-RHS sweep.  Each member gets its own report, its own
        placement (tagged with the shared ``batch_id``), its own cache
        entry and its own session record.  A member stopping
        DEGRADED/ABORTED -- or a batch-solve failure -- falls back to
        individual ``solve_fn`` calls so one poisoned member never
        takes its siblings down.  Members do not warm start: a seed
        per member would make the fused sweep's iteration counts
        diverge, which is what fusion exists to avoid.
        """
        lane_id = d.lanes[0]
        self.tel.counter("serve.fusion.batches").inc()
        self.tel.counter("serve.fusion.members").inc(len(d.members))
        with self.tel.span("serve.batch", batch_id=d.batch_id,
                           device=lane_id, members=len(d.members)):
            # Cache hits leave the batch before it solves; exact
            # duplicates (equal full cache key) share one solve --
            # the batch-side analogue of single-flight.
            groups: dict[object, list[_Member]] = {}
            for m in d.members:
                key = (self.cache.key(m.job.request)
                       if self.cache is not None else None)
                cached = (self.cache.get(key)
                          if key is not None else None)
                if cached is not None:
                    m.report = cached
                    self._mark_hit(m)
                    continue
                if key is None:
                    key = ("nocache", m.job.job_id)
                groups.setdefault(key, []).append(m)
            requests = [group[0].job.request
                        for group in groups.values()]
            dupes = sum(len(group) - 1 for group in groups.values())
            if dupes:
                self.tel.counter("serve.coalesced").inc(dupes)

            solved: list[SolveReport] = []
            if len(requests) == 1:
                solved = [self._backend.solve(requests[0])]
            elif requests:
                try:
                    solved = self._backend.solve_batch(requests)
                except BackendAborted:
                    raise
                except Exception:
                    # The fused sweep itself failed: de-fuse and
                    # run every representative alone.
                    self.tel.counter("serve.fusion.fallback").inc()
                    solved = [self._backend.solve(request)
                              for request in requests]

            publishable: list[tuple[object, SolveReport]] = []
            for (key, group), report in zip(groups.items(), solved):
                if report.stop in REPLACE_ON:
                    # One member went bad inside the batch (e.g.
                    # the engine's non-finite guard fired): retry
                    # it alone, siblings keep their results.
                    self.tel.counter("serve.fusion.member_retry").inc()
                    report = self._backend.solve(group[0].job.request)
                if (self.cache is not None
                        and report.stop not in REPLACE_ON):
                    publishable.append((key, report))
                group[0].record = True
                for m in group:
                    with self.tel.span(
                            "serve.job", job_id=m.job.job_id,
                            device=lane_id, attempt=0,
                            batch_id=d.batch_id):
                        m.report = report
            if publishable:
                self.cache.put_many(publishable)

    # -- stage 4: deliver ------------------------------------------------
    def _deliver(self, d: _Dispatch, t0: float, error: str | None,
                 alive: bool) -> None:
        """The one epilogue: record, clean up, release, report.

        Runs for every route and every way out of the run stage --
        clean return, a parked slice, a raised solve (``error``), a
        torn-down backend (``alive`` False: nothing is reported, the
        lanes are still returned).  In order: clean solutions go to
        the session store where the route's contract allows (solo
        first attempts, finished sliced solves, solved fused members;
        never gang results); the gang checkpoint directory and -- for
        a sliced solve that is not parking -- the park file are
        dropped; then, under one lock hold, every reservation is
        released (busy time charged once per lane), a preempted job
        is parked and re-queued *before* any dispatcher can dequeue
        it, the terminal outcomes are appended and waiters are woken.
        """
        ok = alive and error is None
        if ok and self.sessions is not None:
            for m in d.members:
                if m.record and m.report is not None:
                    record_if_clean(self.sessions, m.job.request,
                                    m.report)
        if d.ckpt_dir is not None:
            shutil.rmtree(d.ckpt_dir, ignore_errors=True)
        if d.route == "sliced" and not d.parked:
            self.sessions.discard(d.job.job_id)
        busy = time.perf_counter() - t0
        outcomes = [] if d.parked or not alive else [
            JobOutcome(
                job=m.job, decision=AdmissionDecision.ADMITTED,
                report=(replace(m.report, job_id=m.job.job_id,
                                placement=m.placements[-1])
                        if ok and m.report is not None else None),
                placements=tuple(m.placements),
                queue_wait_s=m.wait_s, exec_s=busy,
                error=error)
            for m in d.members]
        with self._cond:
            for lane_id in d.lanes:
                for m in d.members:
                    self.pool.release(
                        lane_id, d.charge, m.job.job_id,
                        busy_s=busy if m is d.members[0] else 0.0)
            if d.parked:
                self.sessions.park(d.job.job_id, itn=d.done_itn,
                                   attempt=d.attempt + 1,
                                   devices=d.previous + (d.lanes[0],))
                self._preemptions += 1
                self.tel.counter("serve.sessions.preemption").inc()
                self._enqueue(d.job)
            self.outcomes.extend(outcomes)
            self._in_flight -= len(d.members)
            self._cond.notify_all()
        for _ in d.members:
            self.tel.histogram("serve.exec_s").observe(busy)
        if error is not None:
            self.tel.counter("serve.job_failures").inc(len(d.members))
