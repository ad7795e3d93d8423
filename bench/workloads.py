"""The four benchmark workloads: seeded inputs, set-up, measured window.

Each workload generates every input from ``--seed`` (the program under
test only ever sees the generated systems and requests), builds what the
requests run against (``setup``), and then drives the request stream
through one public entry point of the program (``run``).  System
*sizes* are fixed by :data:`FULL`; the request *count* is a fixed
function of ``--seconds`` (nominal requests per second times seconds),
so counts repeat exactly for a given ``(seed, seconds)`` and the window
lasts about ``--seconds`` on the reference host (twice that on the open
loop).

Why these four -- they stress different layers, and for each
optimisation the roadmap names, one workload exercises its mechanism
and another bypasses it:

``solve_cold``
    Closed loop, 1 client, ``repro.api.solve`` on *distinct* systems:
    every request pays plan build + preconditioner + iterations, and a
    digest- or pattern-keyed cache is bypassed (so a cache that adds a
    per-solve digest shows here as a cost).
``serve_repeat_rhs``
    Closed loop, 2 clients, process backend: three matrices recur with
    different right-hand sides at a size where solve >> dispatch, so
    per-request work on an already-seen matrix (operator build, digest,
    shm attach, report pickling) is paid on every job.
``serve_small_mixed``
    Open loop (independent tenants do not wait for each other) on a
    fixed-rate schedule, thread backend, small mixed sizes against a
    cache smaller than the identity set: admission, placement, priority
    queueing, cache get/put/evict, single-flight and per-iteration
    Python overhead decide latency; kernel bandwidth work shows nothing.
``session_chain``
    Closed loop, 1 client, ``api.solve(..., sessions=store)`` along
    growing-system chains: warm-started short solves on a new matrix
    each step, so fixed per-request cost (plan build, scaling, digest,
    npz I/O) is a large share, and all of an exact-hit re-solve.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.api import SolveReport, SolveRequest
from repro.api import solve as api_solve
from repro.serve import (
    AdmissionDecision,
    DevicePool,
    ResultCache,
    Scheduler,
    ServeJob,
)
from repro.sessions import SessionStore
from repro.system.generator import make_observation_block, make_system
from repro.system.merge import append_observations
from repro.system.sizing import dims_from_gb
from repro.system.sparse import GaiaSystem

import check
import tracer as tr

#: Known-term noise of every generated system (the serving load
#: generator's and the sessions benchmark's value).
NOISE_SIGMA = 1e-9

#: Seed of the served streams' shape (see ``_Serve._jobs``).
SHAPE_SEED = 2024

#: Hard cap on one measured window; a run that passes it is wedged.
WINDOW_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sizing:
    """System sizes of one benchmark flavour (never scaled by time)."""

    cold_gb: float
    repeat_gb: float
    #: nominal GB -> actually allocated GB of the small mixed classes.
    small_gb: tuple[tuple[float, float], ...]
    chain_gb: float
    warmup_gb: float
    probe_gb: float


#: The benchmark.  223 696 / 134 218 / 8 948-26 844-53 687 / 89 478 obs.
FULL = Sizing(cold_gb=0.05, repeat_gb=0.03,
              small_gb=((10.0, 0.002), (30.0, 0.006), (60.0, 0.012)),
              chain_gb=0.02, warmup_gb=0.002, probe_gb=0.01)

#: Self-test flavour only (``--smoke``): same code paths, toy systems.
SMOKE = Sizing(cold_gb=0.003, repeat_gb=0.002,
               small_gb=((10.0, 0.0005), (30.0, 0.001), (60.0, 0.0015)),
               chain_gb=0.002, warmup_gb=0.0005, probe_gb=0.001)


@dataclass
class Rec:
    """One request of the measured stream and what became of it."""

    rid: str
    identity: int
    system: GaiaSystem
    request: SolveRequest
    due: float = 0.0
    submit: float = 0.0
    submit_end: float = 0.0
    done: float | None = None
    #: sent -> ok | failed | rejected (a failed check also sets failed).
    status: str = "sent"
    report: SolveReport | None = None
    cache_hit: bool = False
    fused: bool = False
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    error: str | None = None

    @property
    def latency(self) -> float | None:
        return None if self.done is None else self.done - self.due


@dataclass
class Context:
    """Everything one pass of a workload runs against."""

    requests: list = field(default_factory=list)
    tracer: tr.Tracer | None = None
    scheduler: Scheduler | None = None
    pool: DevicePool | None = None
    store: SessionStore | None = None
    store_dir: Path | None = None
    solve: object = None
    #: seconds of each make_system / append call made during set-up.
    generate_s: list[float] = field(default_factory=list)
    append_s: list[float] = field(default_factory=list)
    spawn_ready_s: float = 0.0
    #: Filled by ``close``: the drained scheduler's report, the session
    #: store's final counters and any checkpoint still parked in it.
    serve_report: object = None
    store_stats: dict = field(default_factory=dict)
    parked: tuple[str, ...] = ()


def _timed(sink: list[float], fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    sink.append(time.perf_counter() - t0)
    return out


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    """``n`` system seeds of one workload, a pure function of ``seed``."""
    rng = np.random.default_rng((seed, tag))
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _warm_up(sizing: Sizing) -> None:
    """One untimed tiny solve: imports, allocator and BLAS are warm."""
    api_solve(SolveRequest(
        system=make_system(dims_from_gb(sizing.warmup_gb), seed=0,
                           noise_sigma=NOISE_SIGMA), iter_lim=5))


def stream_digest(requests) -> str:
    """Content hash of a request stream (ids, due offsets, rhs bytes)."""
    h = hashlib.sha256()
    for item in requests:
        job = item if isinstance(item, ServeJob) else None
        request = job.request if job is not None else item
        h.update(repr((request.job_id, request.system.dims,
                       request.iter_lim, request.seed,
                       job.arrival_s if job is not None else 0.0,
                       job.priority if job is not None else 0)).encode())
        h.update(np.ascontiguousarray(request.system.known_terms).tobytes())
    return h.hexdigest()


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    why = ""
    loop = "closed"
    clients = 1
    #: Latency limit of ``slo_met_share`` (seconds).  On the closed
    #: loops, twice the slowest request of the calibration runs: with
    #: 4-15 requests a share cannot sit below 1 without jumping a whole
    #: request between runs, so there it trips only on a gross stall
    #: or a failed request.
    slo_s = 0.0
    #: Nominal requests per second of ``--seconds`` on the reference host.
    rate = 1.0
    min_requests = 2
    #: True when every request must stop on a convergence test.
    converges = False
    #: Platform names of the device pool (served workloads).
    devices: tuple[str, ...] = ()

    def n_requests(self, seconds: float) -> int:
        return max(self.min_requests, round(seconds * self.rate))

    def group(self, rec: "Rec") -> str:
        """Which kind of request this is (the ledger is cut by it)."""
        return "all"

    def setup(self, seed: int, seconds: float, sizing: Sizing,
              tracer: tr.Tracer | None = None) -> Context:
        raise NotImplementedError

    def run(self, ctx: Context) -> list[Rec]:
        raise NotImplementedError

    def deep_check(self, recs: list[Rec]) -> list[str]:
        """The workload's own contract that costs extra solves."""
        return []

    def close(self, ctx: Context, *, abort: bool = False) -> None:
        """Release everything ``setup`` made (idempotent).

        ``abort`` (the failure path) kills the scheduler instead of
        draining it.
        """
        if ctx.scheduler is not None and ctx.serve_report is None:
            if abort:
                ctx.scheduler.abort()
            else:
                ctx.serve_report = ctx.scheduler.drain()
        if ctx.store is not None:
            ctx.store_stats = ctx.store.stats()
            ctx.parked = ctx.store.parked_keys()
            ctx.store.close()
            ctx.store = None
        if ctx.store_dir is not None:
            shutil.rmtree(ctx.store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Direct (api.solve) workloads
# ----------------------------------------------------------------------
class _Direct(Workload):
    converges = True

    def run(self, ctx: Context) -> list[Rec]:
        recs: list[Rec] = []
        deadline = time.perf_counter() + WINDOW_TIMEOUT_S
        for identity, request in ctx.requests:
            rec = Rec(rid=request.job_id, identity=identity,
                      system=request.system, request=request)
            recs.append(rec)
            if time.perf_counter() > deadline:
                rec.status, rec.error = "failed", "window timed out"
                continue
            rec.due = rec.submit = rec.submit_end = time.perf_counter()
            try:
                if ctx.tracer is not None:
                    with ctx.tracer.span(tr.ROOT, rec.rid):
                        rec.report = ctx.solve(request)
                else:
                    rec.report = ctx.solve(request)
                rec.status = "ok"
            except Exception:
                # One bad request must not end the run: it is counted.
                rec.status, rec.error = "failed", traceback.format_exc()
            rec.done = time.perf_counter()
        return recs


class SolveCold(_Direct):
    name = "solve_cold"
    why = ("distinct systems through api.solve: plan build + "
           "preconditioner + iterations on every request, every "
           "digest- or pattern-keyed cache bypassed")
    slo_s = 8.0
    rate = 0.36

    def setup(self, seed, seconds, sizing, tracer=None):
        ctx = Context(tracer=tracer)
        dims = dims_from_gb(sizing.cold_gb)
        for i, s in enumerate(_seeds(seed, 1, self.n_requests(seconds))):
            system = _timed(ctx.generate_s, make_system, dims, seed=s,
                            noise_sigma=NOISE_SIGMA)
            ctx.requests.append((i, SolveRequest(
                system=system, iter_lim=400, job_id=f"cold-{i:03d}")))
        ctx.solve = (api_solve if tracer is None
                     else lambda r: tr.traced_solve(r, tracer))
        _warm_up(sizing)
        return ctx


class SessionChain(_Direct):
    name = "session_chain"
    why = ("growing-system chains through api.solve(sessions=): warm "
           "starts on a new matrix each step plus exact-digest "
           "re-solves, store writes beside reads; fixed per-request "
           "cost dominates")
    slo_s = 4.0
    #: chains per second; a chain is 4 steps plus 1 exact re-solve.
    rate = 0.25
    min_requests = 1
    steps = 4
    growth = 0.25
    budget_bytes = 256 * 2**20

    def setup(self, seed, seconds, sizing, tracer=None):
        ctx = Context(tracer=tracer)
        dims = dims_from_gb(sizing.chain_gb)
        chains = []
        for s in _seeds(seed, 4, self.n_requests(seconds)):
            chain = [_timed(ctx.generate_s, make_system, dims, seed=s,
                            noise_sigma=NOISE_SIGMA)]
            for step in range(1, self.steps):
                chain.append(_timed(ctx.append_s, self._grow, chain[-1],
                                    s + step))
            chains.append(chain)
        # Step-major, so a parent is recorded before its child resolves;
        # then every chain's last step once more (exact-digest hit).
        order = [(c, k) for k in range(self.steps)
                 for c in range(len(chains))]
        order += [(c, self.steps - 1) for c in range(len(chains))]
        seen: dict[tuple[int, int], int] = {}
        for c, k in order:
            n = seen[(c, k)] = seen.get((c, k), 0) + 1
            ctx.requests.append((c * self.steps + k, SolveRequest(
                system=chains[c][k], iter_lim=400,
                job_id=f"chain{c}-s{k}" + ("-again" if n > 1 else ""))))
        ctx.store_dir = Path(tempfile.mkdtemp(prefix="sessions-"))
        if tracer is None:
            ctx.store = SessionStore(ctx.store_dir,
                                     budget_bytes=self.budget_bytes)
            ctx.solve = lambda r: api_solve(r, sessions=ctx.store)
        else:
            ctx.store = tr.TracedSessionStore(
                tracer, ctx.store_dir, budget_bytes=self.budget_bytes)
            ctx.solve = lambda r: tr.traced_session_solve(
                r, ctx.store, tracer)
        _warm_up(sizing)
        return ctx

    def deep_check(self, recs):
        return check.check_chain(recs, self.steps)

    def group(self, rec):
        if rec.rid.endswith("-again"):
            return "exact_hit"
        return "cold_step" if rec.rid.endswith("-s0") else "warm_step"

    def _grow(self, parent: GaiaSystem, seed: int) -> GaiaSystem:
        n_new = max(1, round(parent.dims.n_obs * self.growth))
        return append_observations(
            parent, make_observation_block(parent, n_new, seed=seed))


# ----------------------------------------------------------------------
# Serve (Scheduler) workloads
# ----------------------------------------------------------------------
class _Serve(Workload):
    backend = "thread"
    max_fuse = 1
    cache_capacity = 64
    iter_lim = 60
    rhs_variants = 1
    priorities: tuple[int, ...] = (0,)
    arrival_hz: float | None = None
    dispatchers = 2

    def slots(self, sizing: Sizing) -> list[tuple[float, float]]:
        """(nominal GB, allocated GB) of each distinct matrix."""
        raise NotImplementedError

    def _jobs(self, ctx: Context, seed: int, n: int,
              sizing: Sizing) -> list[tuple[int, ServeJob]]:
        """The stream: a fixed shape filled with seeded content.

        Which matrix, right-hand-side variant and priority sits at each
        position, and when it is due, is dealt once (``SHAPE_SEED``) and
        is the same for every ``--seed``; the seed draws the matrices
        and the right-hand sides.  Matrices are dealt a deck at a time
        (every run of ``len(slots)`` jobs holds each matrix once), so
        the 0.5/0.3/0.2 size mix is exact and large jobs do not pile up
        by chance.  A stream whose *shape* also followed the seed moved
        the cache-hit count of 48 jobs between 9 and 20 and every
        latency statistic by 35-70 % between seeds (measured): the
        benchmark would have compared dice.
        """
        shape = np.random.default_rng((SHAPE_SEED, n))
        rng = np.random.default_rng((seed, 2))
        slots = self.slots(sizing)
        slot_seeds = rng.integers(0, 2**31, size=len(slots))
        bases = [
            _timed(ctx.generate_s, make_system, dims_from_gb(gb),
                   seed=int(s), noise_sigma=NOISE_SIGMA)
            for (_, gb), s in zip(slots, slot_seeds)]
        blocks = -(-n // len(slots))
        deck = np.concatenate([shape.permutation(len(slots))
                               for _ in range(blocks)])[:n]
        prio = np.resize(shape.permutation(np.asarray(self.priorities)), n)
        shape.shuffle(prio)
        picks = shape.integers(self.rhs_variants, size=n)
        variants: dict[tuple[int, int], GaiaSystem] = {}
        # An open-loop schedule: one arrival in every 1 / arrival_hz
        # slot, uniformly placed inside it.  Poisson arrivals were
        # measured first: over a window this short their bursts decide
        # the queue, and the median latency moved 0.21-0.73 s between
        # seeds.
        due = ((np.arange(n) + shape.uniform(size=n)) / self.arrival_hz
               if self.arrival_hz else np.zeros(n))
        jobs = []
        for i in range(n):
            slot, v, arrival = int(deck[i]), int(picks[i]), float(due[i])
            system = variants.get((slot, v))
            if system is None:
                base = bases[slot]
                system = base if v == 0 else replace(
                    base, known_terms=base.known_terms
                    + np.random.default_rng((int(slot_seeds[slot]), v))
                    .normal(scale=NOISE_SIGMA,
                            size=base.known_terms.shape))
                variants[(slot, v)] = system
            job_id = f"job-{i:03d}"
            jobs.append((slot * self.rhs_variants + v, ServeJob(
                request=SolveRequest(
                    system=system, iter_lim=self.iter_lim,
                    seed=int(slot_seeds[slot]), job_id=job_id),
                nominal_gb=slots[slot][0], priority=int(prio[i]),
                arrival_s=arrival, job_id=job_id)))
        return jobs

    def deep_check(self, recs):
        # Every identity of the cheap open-loop stream, two of the other.
        return check.check_served(
            recs, sample=None if self.loop == "open" else 2)

    def setup(self, seed, seconds, sizing, tracer=None):
        ctx = Context(tracer=tracer)
        ctx.requests = self._jobs(ctx, seed, self.n_requests(seconds),
                                  sizing)
        ctx.pool = DevicePool(self.devices, per_gcd=True)
        common = dict(workers=self.dispatchers, max_fuse=self.max_fuse)
        if tracer is None:
            ctx.scheduler = Scheduler(
                ctx.pool, backend=self.backend, mp_workers=(
                    2 if self.backend == "process" else None),
                cache=ResultCache(self.cache_capacity), **common)
        else:
            # An injected solve_fn runs inline by contract, so the
            # traced pass is always on the thread backend.
            ctx.scheduler = Scheduler(
                ctx.pool, backend="thread",
                cache=tr.TracedCache(tracer, self.cache_capacity),
                solve_fn=lambda r: tr.traced_solve(r, tracer),
                batch_solve_fn=lambda rs: tr.traced_solve_batch(
                    rs, tracer),
                **common)
        t0 = time.perf_counter()
        ctx.scheduler.start()
        if not ctx.scheduler.wait_ready(timeout=60.0):
            ctx.scheduler.abort()
            raise RuntimeError("worker processes never became ready")
        ctx.spawn_ready_s = time.perf_counter() - t0
        _warm_up(sizing)
        return ctx

    def run(self, ctx: Context) -> list[Rec]:
        sched, tracer = ctx.scheduler, ctx.tracer
        jobs = ctx.requests
        base = len(sched.outcomes)
        stamps: dict[int, float] = {}
        stop = threading.Event()

        def collect() -> None:
            # Completion is stamped here, outside the program, when the
            # outcome count moves.
            seen = base
            while seen < base + len(jobs) and not stop.is_set():
                if not sched.wait_for_outcomes(seen + 1, timeout=0.25):
                    continue
                now = time.perf_counter()
                upto = len(sched.outcomes)
                for i in range(seen, upto):
                    stamps[i] = now
                seen = upto

        collector = threading.Thread(target=collect, name="bench-collect",
                                     daemon=True)
        recs = [Rec(rid=job.job_id, identity=identity,
                    system=job.request.system, request=job.request)
                for identity, job in jobs]
        sched.reset_clock()
        collector.start()
        t0 = time.perf_counter()
        deadline = t0 + WINDOW_TIMEOUT_S
        try:
            for i, ((_, job), rec) in enumerate(zip(jobs, recs)):
                if self.arrival_hz:
                    rec.due = t0 + job.arrival_s
                    delay = rec.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    if not sched.wait_for_outcomes(
                            base + i - self.clients + 1,
                            timeout=max(0.0, deadline
                                        - time.perf_counter())):
                        break  # wedged: the unsent rest count as failed
                    rec.due = time.perf_counter()
                rec.submit = time.perf_counter()
                if tracer is not None:
                    with tracer.span("scheduler.submit", rec.rid):
                        sched.submit(job)
                else:
                    sched.submit(job)
                rec.submit_end = time.perf_counter()
            sched.wait_for_outcomes(
                base + len(jobs),
                timeout=max(0.0, deadline - time.perf_counter()))
        finally:
            stop.set()
            collector.join(5.0)
        outcomes = list(sched.outcomes)
        by_id = {o.job.job_id: (o, stamps.get(base + i))
                 for i, o in enumerate(outcomes[base:])}
        for rec in recs:
            found = by_id.get(rec.rid)
            if found is None:
                rec.status = "failed"
                rec.error = rec.error or "no outcome inside the window"
                continue
            outcome, stamp = found
            rec.done = stamp if stamp is not None else time.perf_counter()
            rec.queue_wait_s = outcome.queue_wait_s
            rec.exec_s = outcome.exec_s
            if outcome.decision is not AdmissionDecision.ADMITTED:
                rec.status, rec.error = "rejected", outcome.decision.value
            elif outcome.report is None:
                rec.status, rec.error = "failed", outcome.error
            else:
                rec.status, rec.report = "ok", outcome.report
                placement = outcome.placement
                rec.cache_hit = bool(placement and placement.cache_hit)
                rec.fused = bool(placement and placement.batch_id)
        if tracer is not None:
            _attach_serve_spans(tracer, recs)
        return recs


def _attach_serve_spans(tracer: tr.Tracer, recs: list[Rec]) -> None:
    """Give each served request a root and hang its spans under it.

    Queue wait and execution are intervals the scheduler reports on the
    outcome (``queue_wait_s``/``exec_s``); they become spans here, and
    the spans recorded on dispatcher threads for that request (cache
    calls, the decomposed solve) become children of the execution span.
    """
    loose: dict[str, list[tr.Span]] = {}
    for span in tracer.spans:
        if span.parent is None and span.request_id is not None:
            loose.setdefault(span.request_id, []).append(span)
    for rec in recs:
        if rec.done is None:
            continue
        root = tracer.add(tr.ROOT, rec.due, rec.done, request_id=rec.rid)
        if rec.status == "rejected":
            continue
        wait = tracer.add("scheduler.queue_wait", rec.submit_end,
                          rec.submit_end + rec.queue_wait_s,
                          parent=root.id, request_id=rec.rid)
        run = tracer.add("scheduler.exec", wait.end,
                         wait.end + rec.exec_s, parent=root.id,
                         request_id=rec.rid)
        for span in loose.get(rec.rid, ()):
            span.parent = (root.id if span.name == "scheduler.submit"
                           else run.id)


class ServeRepeatRhs(_Serve):
    name = "serve_repeat_rhs"
    why = ("three matrices recur with different right-hand sides on the "
           "process backend at solve >> dispatch: per-request work on an "
           "already-seen matrix is paid on every job")
    clients = 2
    slo_s = 6.0
    rate = 1.2
    min_requests = 4
    devices = ("A100", "H100")
    backend = "process"
    rhs_variants = 64

    def slots(self, sizing):
        return [(30.0, sizing.repeat_gb)] * 3


class ServeSmallMixed(_Serve):
    name = "serve_small_mixed"
    why = ("open-loop fixed-rate arrivals of small mixed jobs against a "
           "cache smaller than the identity set: admission, placement, "
           "queueing, cache and Python overhead decide latency, not "
           "kernels")
    loop = "open"
    # Latencies fall in three groups: cache hits and small solves under
    # 0.1 s, medium solves near 0.2 s, large solves (a sixth of the
    # stream) at 0.3-0.45 s.  The limit sits between the last two, so
    # slo_met_share reads about 0.82 and falls as soon as queueing or
    # per-request overhead pushes medium requests past it, while a host
    # running 20 % slow for a few minutes (it does) moves it by under
    # 5 %.  Mean latency was measured as the gate first: the same slow
    # spell moved it by 23-28 %, the whole bound.
    slo_s = 0.3
    # 3 arrivals/s is about 40 % of what the one dispatcher sustains
    # (0.12 CPU s per job).  The issue's 4/s (60 %) was measured first:
    # there a request's queue wait is service time minus arrival gap, a
    # difference of two like numbers, so a host running 7 % slow read
    # 20-30 % more latency.
    arrival_hz = 3.0
    # The window is 2 x --seconds: this is the cheapest run by far (no
    # set-up to speak of), and a share needs the 72 samples.
    rate = 2 * arrival_hz
    min_requests = 8
    # One dispatcher thread.  Two share the interpreter lock, and which
    # solves overlap then flips on microsecond timing: the same seed's
    # median latency read 0.08-0.20 s run to run, CPU per job +-17 %
    # (measured).  With one, a request's latency follows from the
    # stream; dispatch concurrency is serve_repeat_rhs's business.
    dispatchers = 1
    devices = ("V100", "A100", "H100", "MI250X")
    max_fuse = 4
    cache_capacity = 8
    rhs_variants = 4
    priorities = (0, 1)
    # Below the 45-60 iterations these systems converge in, so that
    # every solve runs exactly 40 and the work does not follow the seed.
    iter_lim = 40

    def slots(self, sizing):
        # The 0.5 / 0.3 / 0.2 mix of the paper's 10 / 30 / 60 GB classes,
        # dealt exactly: 3 + 2 + 1 of 6 matrices.
        (a, b, c) = sizing.small_gb
        return [a, a, a, b, b, c]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SolveCold(), ServeRepeatRhs(), ServeSmallMixed(),
                        SessionChain())
}
