"""The benchmark's own tracer: spans recorded from *outside* the program.

Nothing in ``src/repro`` is edited or monkey-patched.  Every span wraps
a call into a public function or method of one layer:

- :class:`TimedAprod` is a proxy over the ``Aprod`` protocol that the
  step engine drives, so each ``aprod1``/``aprod2`` call becomes a span;
- :func:`traced_solve` rebuilds ``repro.api.solve``'s serial path from
  the same public pieces (``AprodOperator`` -> ``ColumnScaling`` ->
  ``lsqr_solve(operator, b, precondition=False)``) with a span around
  each piece.  The checker requires its ``x`` to be bitwise the untraced
  ``api.solve``'s, which is what makes the ledger a ledger of the same
  program;
- :class:`TracedCache` / :class:`TracedSessionStore` are subclasses
  handed to the scheduler / ``api.solve`` in place of the plain objects.

Spans live in memory (``{name, start, end, parent, request_id}``) and
are written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part its direct children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from repro.api import SolveReport, SolveRequest, WarmStartInfo
from repro.core.aprod import AprodOperator
from repro.core.lsqr import lsqr_solve, lsqr_solve_batch
from repro.core.precond import ColumnScaling, PreconditionedAprod
from repro.serve.cache import ResultCache
from repro.sessions import SessionStore, record_solution, resolve_warm_start
from repro.system.digest import system_digest

#: Span name of a request's root (due/submit -> completion).
ROOT = "request"


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic in CPython

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        return next(self._ids)

    def span(self, name: str, request_id: str | None = None) -> "_Open":
        """Context manager recording one span on the calling thread."""
        return _Open(self, name, request_id)

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None,
            request_id: str | None = None) -> Span:
        """Record a span whose interval was measured by the caller."""
        span = Span(self._next_id(), name, start, end, parent, request_id)
        self.spans.append(span)
        return span

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        with open(path, "w") as fh:
            json.dump([{"id": s.id, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent,
                        "request_id": s.request_id}
                       for s in self.spans], fh)


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: Tracer, name: str,
                 request_id: str | None) -> None:
        parent = tracer.current()
        if request_id is None and parent is not None:
            request_id = parent.request_id
        self.tracer = tracer
        self.span = Span(tracer._next_id(), name, 0.0, 0.0,
                         parent.id if parent is not None else None,
                         request_id)

    def __enter__(self) -> Span:
        self.tracer._stack().append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)


# ----------------------------------------------------------------------
# Proxies handed to the program
# ----------------------------------------------------------------------
class TimedAprod:
    """``Aprod``/``BatchedAprod`` proxy: one span per product call."""

    def __init__(self, op, tracer: Tracer) -> None:
        self.op = op
        self._tracer = tracer

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    def _timed(self, name: str, fn, arg, out):
        tracer = self._tracer
        parent = tracer.current()
        t0 = time.perf_counter()
        result = fn(arg, out=out)
        t1 = time.perf_counter()
        tracer.add(name, t0, t1,
                   parent=parent.id if parent is not None else None,
                   request_id=(parent.request_id
                               if parent is not None else None))
        return result

    def aprod1(self, x, out=None):
        return self._timed("aprod.aprod1", self.op.aprod1, x, out)

    def aprod2(self, y, out=None):
        return self._timed("aprod.aprod2", self.op.aprod2, y, out)

    def aprod1_batch(self, X, out=None):
        return self._timed("aprod.aprod1_batch", self.op.aprod1_batch,
                           X, out)

    def aprod2_batch(self, Y, out=None):
        return self._timed("aprod.aprod2_batch", self.op.aprod2_batch,
                           Y, out)


class TracedCache(ResultCache):
    """``ResultCache`` whose key/get/put calls are spans.

    ``key`` is the first cache call the scheduler makes for a job, on
    the dispatcher thread that then runs it, so it also names the
    request the later ``get``/``put`` spans on that thread belong to.
    """

    def __init__(self, tracer: Tracer, capacity: int) -> None:
        super().__init__(capacity=capacity)
        self._tracer = tracer
        self._rid = threading.local()

    def key(self, request):
        self._rid.value = request.job_id
        with self._tracer.span("cache.key", request.job_id):
            return super().key(request)

    def get(self, key):
        with self._tracer.span("cache.get",
                               getattr(self._rid, "value", None)):
            return super().get(key)

    def put(self, key, report):
        with self._tracer.span("cache.put",
                               getattr(self._rid, "value", None)):
            super().put(key, report)


class TracedSessionStore(SessionStore):
    """``SessionStore`` whose put/get calls are spans."""

    def __init__(self, tracer: Tracer, root, *, budget_bytes: int) -> None:
        super().__init__(root, budget_bytes=budget_bytes)
        self._tracer = tracer

    def put(self, digest, x, **kwargs):
        with self._tracer.span("sessions.put"):
            super().put(digest, x, **kwargs)

    def get(self, digest):
        with self._tracer.span("sessions.get"):
            return super().get(digest)


# ----------------------------------------------------------------------
# The decomposed solve
# ----------------------------------------------------------------------
def traced_solve(request: SolveRequest, tracer: Tracer) -> SolveReport:
    """``repro.api.solve`` for a plain serial request, layer by layer.

    Mirrors ``api._solve_serial`` -> ``lsqr_solve`` step for step so the
    arithmetic -- and therefore every bit of ``x`` -- is the untraced
    solve's: the operator and scaling are built by the same public
    constructors, the warm-start shift and the fold back to physical
    units are the same expressions, and the iteration runs in the same
    ``lsqr_solve`` over the same ``PreconditionedAprod`` (reached
    through the timing proxy).
    """
    system = request.system
    gather, scatter = request.strategies
    with tracer.span("api.solve", request.job_id):
        with tracer.span("aprod.plan_build"):
            op = AprodOperator(system, gather_strategy=gather,
                               scatter_strategy=scatter)
        if request.precondition:
            with tracer.span("precond.build"):
                scaling = ColumnScaling.from_operator(op)
        else:
            scaling = ColumnScaling.identity(op.shape[1])
        timed = TimedAprod(PreconditionedAprod(op, scaling), tracer)
        b = system.rhs().astype(np.float64, copy=True)
        x_offset = np.zeros(op.shape[1])
        with tracer.span("engine.lsqr"):
            if request.x0 is not None:
                x_offset = np.asarray(request.x0, dtype=np.float64).copy()
                b -= timed.aprod1(scaling.to_preconditioned(x_offset))
            result = lsqr_solve(
                timed, b, damp=request.damp, atol=request.atol,
                btol=(request.btol if request.btol is not None
                      else request.atol),
                conlim=request.conlim, iter_lim=request.iter_lim,
                precondition=False, calc_var=request.calc_var)
        x = scaling.to_physical(result.x) + x_offset
        var = (scaling.scale_variance(result.var)
               if result.var is not None else None)
    return SolveReport(
        x=x, stop=result.istop, itn=result.itn, r2norm=result.r2norm,
        ranks=1, m=result.m, n=result.n, var=var, acond=result.acond,
        mean_iteration_time=result.mean_iteration_time, raw=result,
        job_id=request.job_id)


def traced_solve_batch(requests: list[SolveRequest],
                       tracer: Tracer) -> list[SolveReport]:
    """``repro.api.solve_batch`` decomposed the same way (fused jobs)."""
    first = requests[0]
    gather, scatter = first.strategies
    k = len(requests)
    with tracer.span("api.solve_batch", first.job_id):
        with tracer.span("aprod.plan_build"):
            op = AprodOperator(first.system, gather_strategy=gather,
                               scatter_strategy=scatter, batch_hint=k)
        with tracer.span("precond.build"):
            scaling = ColumnScaling.from_operator(op)
        timed = TimedAprod(PreconditionedAprod(op, scaling), tracer)
        B = np.stack([r.system.rhs().astype(np.float64)
                      for r in requests])
        with tracer.span("engine.lsqr"):
            results = lsqr_solve_batch(
                timed, B, damps=[r.damp for r in requests],
                atol=first.atol,
                btol=(first.btol if first.btol is not None
                      else first.atol),
                conlim=first.conlim, iter_lim=first.iter_lim,
                precondition=False, calc_var=first.calc_var)
    return [
        SolveReport(
            x=scaling.to_physical(res.x), stop=res.istop, itn=res.itn,
            r2norm=res.r2norm, ranks=1, m=res.m, n=res.n,
            var=(scaling.scale_variance(res.var)
                 if res.var is not None else None),
            acond=res.acond,
            mean_iteration_time=res.mean_iteration_time, raw=res,
            job_id=req.job_id)
        for req, res in zip(requests, results)
    ]


def traced_session_solve(request: SolveRequest, store: SessionStore,
                         tracer: Tracer) -> SolveReport:
    """``api.solve(request, sessions=store)`` layer by layer.

    The same sequence as ``api._solve_with_sessions``: digest, warm
    start resolution, solve, record back.
    """
    with tracer.span("api.solve_sessions", request.job_id):
        with tracer.span("system.digest"):
            digest = system_digest(request.system)
        with tracer.span("sessions.resolve"):
            warm = resolve_warm_start(store, request.system,
                                      digest=digest)
        if warm is not None:
            request = replace(request, x0=warm.x0)
        report = traced_solve(request, tracer)
        with tracer.span("sessions.record"):
            record_solution(store, request.system, report, digest=digest)
    if warm is not None:
        report.warm_start = WarmStartInfo(
            source_digest=warm.source_digest, exact=warm.exact,
            depth=warm.depth, prior_itn=warm.prior_itn,
            iterations_saved=warm.prior_itn - report.itn)
    return report


# ----------------------------------------------------------------------
# Ledger arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part direct children cover."""
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            overlap = min(s.end, parent.end) - max(s.start, parent.start)
            covered[parent.id] += max(0.0, overlap)
    return {s.id: max(0.0, s.duration - covered[s.id]) for s in spans}


def ledger(spans: list[Span], only=None) -> tuple[dict[str, float], float]:
    """Per-layer share of request latency, and the trace coverage.

    Shares are self time summed by span name over every span that
    belongs to a request (to one of the request ids in ``only``, when
    given), divided by the summed duration of those requests' root
    spans; coverage is the summed share of everything but the roots'
    own self time (time inside a request no layer span claims).
    """
    selfs = self_times(spans)
    mine = [s for s in spans if s.request_id is not None
            and (only is None or s.request_id in only)]
    total = sum(s.duration for s in mine if s.name == ROOT)
    if total <= 0:
        return {}, 0.0
    by_name: dict[str, float] = defaultdict(float)
    for s in mine:
        by_name[s.name] += selfs[s.id]
    unclaimed = by_name.pop(ROOT, 0.0)
    shares = {name: t / total for name, t in sorted(by_name.items())}
    return shares, 1.0 - unclaimed / total


def span_stats(spans: list[Span], name: str) -> tuple[int, float]:
    """(count, summed duration) of the spans called ``name``."""
    durations = [s.duration for s in spans if s.name == name]
    return len(durations), float(sum(durations))
