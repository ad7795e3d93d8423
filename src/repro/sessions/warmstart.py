"""Warm-start resolution against the session store.

LSQR iterates on the residual of the current estimate, so a starting
vector close to the solution removes iterations one-for-one with the
information it carries: re-solving an *unchanged* system from its own
prior solution converges almost immediately, and re-solving an
incrementally grown system (same unknown space, more observation
rows) from its parent's solution skips the early iterations that
would re-derive what the parent already knew.

Resolution order is exact digest first, then the ``lineage`` meta
chain nearest-ancestor-first (stamped by
:func:`repro.system.merge.append_observations`).  Records whose
solution length does not match the request's unknown count are
skipped -- lineage guarantees a shared unknown space, but the store
may hold foreign records when callers share one directory across
scenario families.

The protocol around a session-aware solve -- who is *eligible* for a
seed, how the seed lands on the request, which outcomes may be
*recorded* back, and how the seed's provenance is *stamped* on the
report -- lives here too (:func:`seed_request`,
:func:`record_if_clean`, :func:`stamp_warm_start`), so
``api.solve(..., sessions=)`` and the serve scheduler run one
implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api import SolveReport, SolveRequest, WarmStartInfo
from repro.core.engine import StopReason
from repro.sessions.store import SessionStore
from repro.system.digest import system_digest
from repro.system.sparse import GaiaSystem


@dataclass(frozen=True)
class WarmStart:
    """A resolved starting vector and where it came from."""

    x0: np.ndarray
    source_digest: str
    #: True when the store held this exact system (a pure re-solve);
    #: False when the seed came from a lineage ancestor.
    exact: bool
    #: Lineage distance to the source (0 = exact, 1 = parent, ...).
    depth: int
    #: Iterations the source solve spent -- the cold-start cost this
    #: warm start is trying to beat.
    prior_itn: int


def resolve_warm_start(store: SessionStore, system: GaiaSystem, *,
                       digest: str | None = None) -> WarmStart | None:
    """Find the best stored starting vector for one system.

    Checks the exact content digest, then walks the system's
    ``lineage`` meta nearest-ancestor-first.  Returns ``None`` (and
    ticks the miss counter) when nothing usable is stored.
    """
    if digest is None:
        digest = system_digest(system)
    n = system.dims.n_params
    record = store.get(digest)
    if record is not None and record.x.shape == (n,):
        store.note_lookup("hit")
        return WarmStart(x0=record.x, source_digest=digest, exact=True,
                         depth=0, prior_itn=record.itn)
    for depth, ancestor in enumerate(
            system.meta.get("lineage", ()), start=1):
        record = store.get(ancestor)
        if record is not None and record.x.shape == (n,):
            store.note_lookup("ancestor_hit")
            return WarmStart(x0=record.x, source_digest=ancestor,
                             exact=False, depth=depth,
                             prior_itn=record.itn)
    store.note_lookup("miss")
    return None


def record_solution(store: SessionStore, system: GaiaSystem,
                    report: SolveReport, *,
                    digest: str | None = None) -> str | None:
    """Deposit one finished solve's solution under its system digest.

    The parent link comes from the system's ``parent_digest`` meta
    (stamped by ``append_observations``), so chains of grown systems
    form a lineage inside the store.  Returns the digest recorded
    under, or ``None`` when the report carries no solution vector.
    """
    if report.x is None:
        return None
    if digest is None:
        digest = system_digest(system)
    store.put(digest, report.x, itn=report.itn, r2norm=report.r2norm,
              stop=report.stop.name,
              parent=system.meta.get("parent_digest"))
    return digest


def seed_request(store: SessionStore, request: SolveRequest
                 ) -> tuple[SolveRequest, WarmStart | None]:
    """Seed an eligible request's ``x0`` from the store.

    Only a *plain serial* request is eligible: the distributed and
    recovery drivers take no ``x0``, a caller-provided ``x0`` wins
    over the store, and a ``resume_from`` solve continues its own
    checkpoint.  Returns the (possibly seeded) request and the
    resolved :class:`WarmStart`, ``None`` when the request is
    ineligible or nothing usable is stored.  The store is looked up
    under the request's own digest pair
    (:attr:`~repro.api.SolveRequest.digests`), which the seeded
    request carries on.
    """
    if (request.ranks != 1 or request.resilience is not None
            or request.x0 is not None
            or request.resume_from is not None):
        return request, None
    warm = resolve_warm_start(store, request.system,
                              digest=request.digests[0])
    if warm is None:
        return request, None
    return request.derive(x0=warm.x0), warm


def record_if_clean(store: SessionStore, request: SolveRequest,
                    report: SolveReport) -> str | None:
    """:func:`record_solution` of the request's system under its
    digest pair, guarded by the "clean stop" test.

    A DEGRADED / ABORTED_FAULTS solution reflects injected faults, not
    the system, and must never seed a future solve.
    """
    if report.stop in (StopReason.DEGRADED, StopReason.ABORTED_FAULTS):
        return None
    return record_solution(store, request.system, report,
                           digest=request.digests[0])


def stamp_warm_start(report: SolveReport,
                     warm: WarmStart | None) -> SolveReport:
    """The report with the seed's provenance on ``warm_start``.

    Returns a copy (the input may be shared with a cache or a
    single-flight follower); ``report`` itself when ``warm`` is None.
    """
    if warm is None:
        return report
    return replace(report, warm_start=WarmStartInfo(
        source_digest=warm.source_digest, exact=warm.exact,
        depth=warm.depth, prior_itn=warm.prior_itn,
        iterations_saved=warm.prior_itn - report.itn))
