"""Deterministic result cache for the serving layer.

Two requests that name the same system content and the same solver
configuration produce bit-identical solutions (the whole repo is built
on that reproducibility contract), so the serving layer may answer the
second one from memory.  The key is ``(system digest, config
digest)``:

- the *system digest* is a SHA-256 over the dimension tuple and the
  raw bytes of every coefficient/index/known-term/constraint array --
  content addressed, so two separately generated but identical systems
  hit;
- the *config digest* covers every request field that changes the
  numerics (tolerances, limits, strategy, ranks, seed, resilience
  rates...), and none that do not (telemetry, callbacks, job ids).

Request *fusion* (batching compatible queued jobs into one
many-RHS solve) needs a coarser pair of hashes: the
:func:`~repro.system.digest.matrix_digest` covers the matrix only --
coefficients, indices and constraint *rows*, excluding the right-hand
side (``known_terms`` and constraint rhs values) -- and the
:func:`shared_config_digest` covers exactly the engine parameters every
batch member must agree on (excluding the per-member
``damp``/``seed``/``x0``).  Two requests
with equal :func:`fusion_key` may solve as one
:func:`repro.api.solve_batch` batch; their full cache keys still
differ, so each member caches individually.  Both keys read the
request's one digest pass (:attr:`repro.api.SolveRequest.digests`),
so a job whose fusion key was taken pays nothing more for its cache
key.

Eviction is LRU with a fixed capacity; hits, misses and evictions tick
``serve.cache.*`` counters.  All methods are thread-safe.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Iterable

from repro.api import SolveReport, SolveRequest
from repro.obs.telemetry import Telemetry

CacheKey = tuple[str, str]
FusionKey = tuple[str, str]


def config_digest(request: SolveRequest) -> str:
    """Hash of every request field that affects the solution."""
    r = request
    fields = (
        r.ranks, r.atol, r.btol, r.conlim, r.iter_lim, r.damp,
        r.precondition, r.calc_var, r.strategy, r.seed,
        None if r.x0 is None else hashlib.sha256(r.x0.tobytes())
        .hexdigest(),
        None if r.resilience is None else r.resilience,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def shared_config_digest(request: SolveRequest) -> str:
    """Hash of the engine parameters all fused members must share.

    Exactly the fields :func:`repro.api.batch_incompatibility` compares
    -- ``damp``, ``seed`` and ``x0`` are per-member and deliberately
    absent, so requests differing only in those still fuse.
    """
    r = request
    fields = (r.ranks, r.atol, r.btol, r.conlim, r.iter_lim,
              r.precondition, r.calc_var, r.strategy)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def request_key(request: SolveRequest) -> CacheKey:
    """The cache key of one request (reads its digest pair)."""
    return (request.digests[0], config_digest(request))


def fusion_key(request: SolveRequest) -> FusionKey:
    """The compatibility key for many-RHS request fusion.

    Requests with equal fusion keys solve the same matrix under the
    same shared engine configuration and may be coalesced into one
    batched solve; see ``docs/serving.md`` ("request fusion").
    """
    return (request.digests[1], shared_config_digest(request))


class ResultCache:
    """Thread-safe LRU cache of :class:`~repro.api.SolveReport`.

    Reports only: solution vectors kept for *warm starts* live in the
    disk-persisted :class:`~repro.sessions.SessionStore`, which also
    records convergence metadata and parent-digest lineage
    (``docs/sessions.md``).
    """

    def __init__(self, capacity: int = 128,
                 telemetry: Telemetry | None = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._tel = Telemetry.or_null(telemetry)
        self._lock = threading.Lock()
        self._store: OrderedDict[CacheKey, SolveReport] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def key(self, request: SolveRequest) -> CacheKey:
        """Alias of :func:`request_key` for call-site symmetry."""
        return request_key(request)

    def get(self, key: CacheKey) -> SolveReport | None:
        """The cached report (marked most recently used), or None.

        The returned report is a fresh :class:`SolveReport` instance
        sharing the (by-convention immutable) solution arrays, so the
        caller may attach its own ``job_id``/``placement`` without
        mutating the cached record.
        """
        with self._lock:
            report = self._store.get(key)
            if report is None:
                self.misses += 1
                self._tel.counter("serve.cache.miss").inc()
                return None
            self._store.move_to_end(key)
            self.hits += 1
            self._tel.counter("serve.cache.hit").inc()
            return replace(report, job_id=None, placement=None)

    def put(self, key: CacheKey, report: SolveReport) -> None:
        """Insert (or refresh) one report, evicting the LRU entry."""
        if self.capacity == 0:
            return
        with self._lock:
            self._store[key] = replace(report, job_id=None,
                                       placement=None)
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1
                self._tel.counter("serve.cache.eviction").inc()

    def put_many(self, items: Iterable[tuple[CacheKey, SolveReport]]
                 ) -> None:
        """Insert every (key, report) pair.

        Used by the fused-batch execution path so each member of a
        batched solve is cached under its own full request key and a
        later identical single request hits, even though the member
        never solved alone.
        """
        for key, report in items:
            self.put(key, report)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counts plus the current size."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._store)}
