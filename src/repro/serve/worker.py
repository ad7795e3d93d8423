"""Pluggable execution backends for the scheduler's worker pool.

The :class:`~repro.serve.scheduler.Scheduler` owns admission,
placement, caching and re-placement; *how a placed request actually
runs* is this module's job, behind one small surface:

- :class:`ThreadBackend` -- today's behaviour, unchanged: the
  scheduler's worker threads call ``scheduler.solve_fn`` /
  ``scheduler.batch_solve_fn`` directly in-process.  Zero overhead,
  full fidelity (callbacks, injected solve functions, telemetry
  sinks), but concurrent numpy solves contend on the GIL.
- :class:`ProcessBackend` -- a persistent pool of spawned worker
  processes.  Requests travel as picklable
  :class:`~repro.api.RequestSpec` values plus a *segment name* and the
  right-hand side (``known_terms`` and the constraint rhs values, about
  1 MiB at 134 218 observations); each worker maps every matrix once
  from the shared-memory :mod:`~repro.serve.shm` store, builds the
  job's system over those read-only views plus the task's right-hand
  side, solves with the same :func:`repro.api.solve`, and streams back
  the
  :class:`~repro.api.SolveReport` (minus ``raw``) plus a serialized
  :mod:`repro.obs` dump that the parent merges into its registry.
  Identical numerics (the solve is a pure
  function of the request), no GIL contention -- and the pool's width
  is independent of the scheduler's dispatch width, so execution
  parallelism can match the physical cores while admission/placement
  concurrency stays as wide as the serving load needs.

A request the process pool cannot ship -- a live ``callback`` or
``telemetry`` object, or a scheduler with an injected ``solve_fn`` --
runs inline in the parent (counted by ``serve.mp.inline``), so the
process backend is always *correct*, merely less parallel for those
jobs.

Shutdown contract: :meth:`stop` is graceful (sentinel per worker,
bounded join, then terminate leftovers); :meth:`kill` is immediate
(abort path).  Both fail still-pending calls with
:class:`BackendAborted` so no scheduler thread waits forever on a
solve that will never return, and both release the two queues once
the workers are gone, so their named semaphores (``/dev/shm/sem.*``)
go with them instead of outliving the pool.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import threading
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.api import RequestSpec, SolveReport, SolveRequest
from repro.api import solve as api_solve
from repro.api import solve_batch as api_solve_batch
from repro.obs.telemetry import Telemetry
from repro.serve import shm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.scheduler import Scheduler


class BackendAborted(RuntimeError):
    """The backend was stopped/killed while this call was pending."""


class ThreadBackend:
    """In-process execution: delegate to the scheduler's solve hooks.

    Reads ``scheduler.solve_fn`` at call time (not construction), so
    tests that swap the hook on a live scheduler keep working.
    """

    name = "thread"

    def __init__(self, scheduler: "Scheduler") -> None:
        self._scheduler = scheduler

    def start(self) -> None:
        """Nothing to spin up."""

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Always ready."""
        return True

    def publishes(self, request: SolveRequest) -> bool:
        """Nothing is published: the solve reads the caller's arrays."""
        return False

    def solve(self, request: SolveRequest) -> SolveReport:
        """One solve on the calling thread."""
        return self._scheduler.solve_fn(request)

    def solve_batch(self, requests: list[SolveRequest]
                    ) -> list[SolveReport]:
        """One fused batch on the calling thread."""
        return self._scheduler.batch_solve_fn(requests)

    def stop(self, force: bool = False) -> None:
        """Nothing to tear down."""

    def kill(self) -> None:
        """Nothing to kill."""


class _Call:
    """Parent-side slot for one in-flight worker call."""

    __slots__ = ("event", "result", "error", "aborted")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: str | None = None
        self.aborted = False


class ProcessBackend:
    """A persistent pool of spawned solve processes.

    The parent keeps one task queue and one result queue; a router
    thread resolves results back to the waiting scheduler thread by
    call id.  Workers attach matrices from the shared-memory store by
    segment name (zero-copy) and keep the attachment, so a hot matrix
    is mapped once per worker, not once per job -- whatever right-hand
    side each job brings.
    """

    name = "process"

    def __init__(self, scheduler: "Scheduler", *, workers: int,
                 store: "shm.SystemStore") -> None:
        self._scheduler = scheduler
        self._store = store
        self._workers = workers
        self._ctx = mp.get_context("spawn")
        self._procs: list[mp.process.BaseProcess] = []
        self._task_q = None
        self._result_q = None
        self._router: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending: dict[int, _Call] = {}
        self._next_call = 0
        self._ready = threading.Event()
        self._ready_count = 0
        self._stopping = False
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and the result router (idempotent)."""
        if self._started:
            return
        self._started = True
        self._task_q = self._ctx.Queue()
        # A task write into a pipe with no reader left fails quietly
        # and ends the feeder thread (see _teardown).
        self._task_q._ignore_epipe = True
        self._result_q = self._ctx.Queue()
        self._procs = [
            self._ctx.Process(
                target=worker_main, name=f"serve-mp{i}",
                args=(i, self._task_q, self._result_q), daemon=True)
            for i in range(self._workers)
        ]
        for p in self._procs:
            p.start()
        self._router = threading.Thread(target=self._route,
                                        name="serve-mp-router",
                                        daemon=True)
        self._router.start()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every worker finished importing (or timeout).

        Spawned workers pay a cold interpreter + import cost;
        benchmarks call this so the measured window covers steady-state
        serving, not process startup.
        """
        return self._ready.wait(timeout)

    # -- execution ------------------------------------------------------
    def publishes(self, request: SolveRequest) -> bool:
        """Would this request run in a worker, over a published matrix?

        Publishing keys segments by the request's matrix digest, so
        the scheduler takes the request's digest pass up front for
        exactly these requests.
        """
        return (request.callback is None
                and request.telemetry is None
                and self._scheduler.solve_fn is api_solve)

    def solve(self, request: SolveRequest) -> SolveReport:
        """One solve in a worker process (or inline if unshippable)."""
        if not self.publishes(request):
            self._scheduler.tel.counter("serve.mp.inline").inc()
            return self._scheduler.solve_fn(request)
        name = self._store.publish(request.system, request.digests[1])
        collect = isinstance(self._scheduler.tel, Telemetry)
        try:
            report, tel_dump = self._call(
                ("solve", RequestSpec.from_request(request), name,
                 shm.rhs_of(request.system), collect))
        finally:
            self._store.release(name)
        self._scheduler.tel.absorb(tel_dump, track_prefix="mp/")
        return report

    def solve_batch(self, requests: list[SolveRequest]
                    ) -> list[SolveReport]:
        """One fused many-RHS batch in a worker process."""
        if (self._scheduler.batch_solve_fn is not api_solve_batch
                or not all(self.publishes(r) for r in requests)):
            self._scheduler.tel.counter("serve.mp.inline").inc()
            return self._scheduler.batch_solve_fn(requests)
        names = [self._store.publish(r.system, r.digests[1])
                 for r in requests]
        specs = [RequestSpec.from_request(r) for r in requests]
        rhs = [shm.rhs_of(r.system) for r in requests]
        collect = isinstance(self._scheduler.tel, Telemetry)
        try:
            reports, tel_dump = self._call(
                ("batch", specs, names, rhs, collect))
        finally:
            for name in names:
                self._store.release(name)
        self._scheduler.tel.absorb(tel_dump, track_prefix="mp/")
        return reports

    def _call(self, task: tuple):
        """Dispatch one task and block until its result routes back."""
        call = _Call()
        with self._lock:
            # The liveness check and the _pending insert are one
            # atomic step: stop()/kill() flip _stopping under this
            # lock before failing _pending, so a racing call either
            # registers in time to be failed or is rejected here --
            # it can never register *after* _fail_pending ran and
            # then wait forever.
            if not self._started or self._stopping:
                raise BackendAborted("process backend is not running")
            call_id = self._next_call
            self._next_call += 1
            self._pending[call_id] = call
            task_q = self._task_q
        try:
            task_q.put((call_id,) + task)
        except (OSError, ValueError):
            # Teardown closed the queue between our registration and
            # the put; unregister and fail like any aborted call.
            with self._lock:
                self._pending.pop(call_id, None)
            raise BackendAborted(
                "process backend stopped while dispatching the call")
        call.event.wait()
        if call.aborted:
            raise BackendAborted(
                "process backend stopped while the call was pending")
        if call.error is not None:
            raise RuntimeError(
                f"worker solve failed:\n{call.error}")
        return call.result

    # -- result routing -------------------------------------------------
    def _route(self) -> None:
        result_q = self._result_q  # teardown drops the attribute
        while True:
            try:
                msg = result_q.get(timeout=0.1)
            except queue_mod.Empty:
                dead = bool(self._procs) and all(
                    not p.is_alive() for p in self._procs)
                with self._lock:
                    done = self._stopping and not self._pending
                    orphaned = (list(self._pending.values())
                                if dead else [])
                    if dead:
                        self._pending.clear()
                for call in orphaned:
                    call.error = ("every worker process died before "
                                  "answering")
                    call.event.set()
                if done or dead:
                    return
                continue
            except (OSError, EOFError, ValueError):  # torn/closed queue
                return
            kind = msg[0]
            if kind == "ready":
                self._ready_count += 1
                if self._ready_count >= self._workers:
                    self._ready.set()
                continue
            if kind == "exit":
                continue
            _, call_id, status, body = msg
            with self._lock:
                call = self._pending.pop(call_id, None)
            if call is None:
                continue
            if status == "ok":
                call.result = body
            else:
                call.error = body
            call.event.set()

    # -- shutdown -------------------------------------------------------
    def stop(self, force: bool = False, timeout: float = 5.0) -> None:
        """Graceful shutdown: sentinels, bounded join, then terminate.

        ``force=True`` skips the grace period (a stuck parent worker
        was already detected; its in-flight call will never be
        consumed).
        """
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
        if not force:
            for _ in self._procs:
                try:
                    self._task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    break
            for p in self._procs:
                p.join(timeout)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(1.0)
        self._fail_pending()
        self._teardown()

    def kill(self) -> None:
        """Immediate teardown (abort path): terminate everything."""
        with self._lock:
            if not self._started:
                return
            self._stopping = True
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(1.0)
        self._fail_pending()
        self._teardown()

    def _fail_pending(self) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for call in pending:
            call.aborted = True
            call.event.set()

    def _teardown(self) -> None:
        """Close and release both queues (the workers are gone).

        Each queue holds three named semaphores that live exactly as
        long as the queue object and its feeder thread.  The task
        queue's feeder may be blocked writing a task larger than the
        pipe buffer that no worker will ever read -- and the parent's
        own, never-used reader end keeps that pipe open.  Closing it
        (the move :mod:`concurrent.futures` makes on terminate) fails
        the write with EPIPE, which the queue ignores since
        :meth:`start`, so the feeder exits.  Every join is bounded: a
        worker that outlived its terminate still holds a reader end,
        and its queue is abandoned rather than waited on.  The router
        drops its reference when the closed result queue fails its
        next read.
        """
        task_q, result_q = self._task_q, self._result_q
        self._task_q = self._result_q = None
        if task_q is not None:
            # Before close(): the feeder closes this same reader once it
            # meets the sentinel close() queues, and must find it closed.
            task_q._reader.close()
            task_q.close()
            task_q.cancel_join_thread()  # never an unbounded join at exit
            if task_q._thread is not None:
                task_q._thread.join(1.0)
        if result_q is not None:
            result_q.close()
        if self._router is not None:
            self._router.join(1.0)

    @property
    def alive_workers(self) -> int:
        """How many worker processes are currently alive."""
        return sum(1 for p in self._procs if p.is_alive())


def worker_main(worker_id: int, task_q, result_q) -> None:
    """Entry point of one spawned solve worker.

    Attaches matrices from the shared-memory store by segment name,
    one mapping per segment for the worker's lifetime (each new mapping
    ticks ``serve.mp.attach``), builds each job's system over the
    read-only views plus the right-hand side its task carries -- and
    validates it, since that input crossed a process boundary -- runs
    the exact same
    :func:`repro.api.solve` / :func:`repro.api.solve_batch` the thread
    backend runs, and ships back the report dataclasses -- without
    ``raw``, the driver's result object, whose workspaces and engine
    internals have no business crossing a process boundary -- plus an
    optional telemetry dump.  A failing task answers with the
    traceback and the worker keeps serving; only the ``None`` sentinel
    (or a terminate) ends it.
    """
    # The parent owns interrupt handling; a Ctrl-C must not tear the
    # pool down underneath a graceful drain.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        pass
    attached: dict[str, shm.AttachedMatrix] = {}
    result_q.put(("ready", worker_id, None, None))

    def _system(name: str, rhs: tuple, tel: Telemetry | None):
        matrix = attached.get(name)
        if matrix is None:
            matrix = attached[name] = shm.attach(name)
            Telemetry.or_null(tel).counter("serve.mp.attach").inc()
        return matrix.system(*rhs)

    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            call_id, kind = task[0], task[1]
            try:
                tel = Telemetry() if task[-1] else None
                if kind == "solve":
                    _, _, spec, name, rhs, _ = task
                    request = spec.to_request(_system(name, rhs, tel),
                                              telemetry=tel)
                    body = replace(api_solve(request), raw=None)
                else:
                    _, _, specs, names, rhs, _ = task
                    requests = [
                        spec.to_request(_system(name, member, tel),
                                        telemetry=tel)
                        for spec, name, member in zip(specs, names, rhs)
                    ]
                    body = [replace(r, raw=None)
                            for r in api_solve_batch(requests)]
                dump = tel.dump() if tel is not None else None
                result_q.put(("result", call_id, "ok", (body, dump)))
            except BaseException:
                result_q.put(("result", call_id, "err",
                              traceback.format_exc()))
    finally:
        for att in attached.values():
            att.close()
        try:
            result_q.put(("exit", worker_id, None, None))
        except (OSError, ValueError):  # pragma: no cover
            pass


__all__ = [
    "BackendAborted",
    "ProcessBackend",
    "ThreadBackend",
    "worker_main",
]
