"""The single public entry point: ``repro.api.solve``.

Every way of running the AVU-GSR solve -- serial, distributed over
simulated MPI ranks, or chaos-hardened with fault injection and
recovery -- is one call::

    from repro.api import SolveRequest, solve

    report = solve(SolveRequest(system=system, ranks=4))

The :class:`SolveRequest` names the *what* (system, rank count, kernel
strategy preset, stopping parameters, optional
:class:`ResilienceConfig`); :func:`solve` picks the driver and returns
a uniform :class:`SolveReport`.  The CLI ``solve``/``chaos``
subcommands are thin adapters over this module.

Reproducibility contract: ``SolveRequest.seed`` is the *only* seed.
The fault plan and the retry-jitter RNG each derive their own stream
from it (distinct fixed stream tags, hashed through
``numpy.random.default_rng``), so two runs of the same request --
including every injected fault, every backoff delay, every recovery
decision -- are bit-identical, and changing the one seed reshuffles
all of them coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.engine import CONVERGED, StopReason
from repro.core.lsqr import (
    IterationCallback,
    LSQRResult,
    lsqr_solve,
    lsqr_solve_batch,
)
from repro.dist.runner import DistributedLSQR, DistributedResult
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.recovery import (
    ResilienceReport,
    ResilientDistributedLSQR,
)
from repro.system.digest import digests
from repro.system.sparse import GaiaSystem

#: ``SolveRequest.strategy`` presets mapped to the kernel strategy
#: pair ``(gather, scatter)`` of :class:`~repro.core.aprod.
#: AprodOperator`.  Both run the compiled plan (one CSR product each
#: way); they differ only in name, so requests that spell them
#: differently do not share a cache entry or a batch.
STRATEGY_PRESETS: dict[str, tuple[str, str]] = {
    "auto": ("auto", "auto"),
    "fused": ("fused", "sorted_segment"),
}

#: Fixed stream tags for deriving independent sub-seeds from the one
#: request seed (never reuse a tag for a new stream).
_STREAM_FAULTS = 1
_STREAM_RETRY = 2


def derive_seed(seed: int, stream: int) -> int:
    """An independent sub-seed for one named random stream.

    Hashing ``(seed, stream)`` through the PCG64 seeding machinery
    decorrelates the streams while keeping each a pure function of the
    request seed.
    """
    return int(np.random.default_rng((seed, stream)).integers(2**63))


@dataclass(frozen=True)
class ResilienceConfig:
    """Chaos and recovery knobs for a resilient solve.

    Holds *rates and budgets*, not RNG state: :func:`solve` derives
    the fault-plan and retry-jitter seeds from the request's single
    ``seed``, so a config is reusable across requests and the whole
    chaos schedule follows the one seed.  Field semantics match
    :class:`~repro.resilience.faults.FaultPlan`,
    :class:`~repro.resilience.policy.RetryPolicy` and
    :class:`~repro.resilience.recovery.ResilientDistributedLSQR`.
    """

    # fault plan
    comm_drop_rate: float = 0.0
    comm_timeout_rate: float = 0.0
    stall_rate: float = 0.0
    payload_nan_rate: float = 0.0
    payload_inf_rate: float = 0.0
    silent_nan_rate: float = 0.0
    stall_duration_s: float = 0.002
    rank_deaths: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # retry policy
    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    jitter: float = 0.25
    epoch_timeout_s: float | None = None
    # recovery driver
    checkpoint_every: int = 10
    max_restarts: int = 3
    min_ranks: int = 1
    allow_degraded: bool = True
    norm_explosion_factor: float = 1.5

    def make_plan(self, seed: int) -> FaultPlan:
        """The fault plan for stream-derived seed ``seed``."""
        return FaultPlan(
            seed=seed,
            comm_drop_rate=self.comm_drop_rate,
            comm_timeout_rate=self.comm_timeout_rate,
            stall_rate=self.stall_rate,
            payload_nan_rate=self.payload_nan_rate,
            payload_inf_rate=self.payload_inf_rate,
            silent_nan_rate=self.silent_nan_rate,
            stall_duration_s=self.stall_duration_s,
            rank_deaths=self.rank_deaths,
        )

    def make_retry(self, seed: int) -> RetryPolicy:
        """The retry policy for stream-derived seed ``seed``."""
        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
            backoff_factor=self.backoff_factor,
            jitter=self.jitter,
            epoch_timeout_s=self.epoch_timeout_s,
            seed=seed,
        )


@dataclass(frozen=True, kw_only=True)
class PlacementConstraints:
    """Where -- and how -- the serving layer may place one request.

    The one placement vocabulary of :mod:`repro.serve`.  Keyword-only
    and eagerly validated: a typo'd platform name or an impossible
    shard budget fails at construction with the offending field named.

    - ``devices``: platform names the job may run on (None = any lane);
    - ``max_shards``: upper bound on the rank count a gang may
      decompose the job into (1 = never shard);
    - ``allow_gang``: opt in to gang-scheduled sharding when no single
      device can hold the footprint;
    - ``memory_headroom``: fraction of extra lane memory reserved on
      top of the footprint (0.1 = reserve 110%);
    - ``priority``: serve admission class (lower runs first; background
      work uses high values).
    """

    devices: tuple[str, ...] | None = None
    max_shards: int = 1
    allow_gang: bool = False
    memory_headroom: float = 0.0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.devices is not None:
            if not isinstance(self.devices, tuple):
                object.__setattr__(self, "devices", tuple(self.devices))
            if not self.devices:
                raise ValueError(
                    "devices must be None or a non-empty tuple of "
                    "platform names"
                )
            from repro.gpu.platforms import DEVICES_BY_NAME

            for name in self.devices:
                if name not in DEVICES_BY_NAME:
                    raise ValueError(
                        f"unknown device {name!r} in devices; expected "
                        f"names from {sorted(DEVICES_BY_NAME)}"
                    )
        if self.max_shards < 1:
            raise ValueError(
                f"max_shards must be >= 1, got {self.max_shards}")
        if self.allow_gang and self.max_shards < 2:
            raise ValueError(
                f"allow_gang requires max_shards >= 2, "
                f"got max_shards={self.max_shards}"
            )
        if not 0.0 <= self.memory_headroom < 1.0:
            raise ValueError(
                f"memory_headroom must be in [0, 1), "
                f"got {self.memory_headroom}"
            )


#: The default constraints: any device, no sharding, no headroom.
DEFAULT_CONSTRAINTS = PlacementConstraints()


@dataclass(frozen=True)
class SolveRequest:
    """Everything one solve needs, in one immutable value.

    ``ranks=1`` runs the serial solver; ``ranks>1`` the simulated-MPI
    distributed driver; a non-None ``resilience`` config always runs
    the recovery driver (any rank count).  ``strategy`` selects a
    kernel preset (see :data:`STRATEGY_PRESETS`).  ``damp`` and ``x0``
    are serial-only (the distributed engine matches production, which
    has neither).

    ``job_id``, ``framework`` and ``constraints`` are serving-layer
    hints consumed by :mod:`repro.serve`: the id is threaded through to
    :attr:`SolveReport.job_id`, ``framework`` pins the placement cost
    model to one port key, ``constraints`` carries the placement
    vocabulary (:class:`PlacementConstraints`: device allow-list, gang
    sharding, headroom, priority).  All are validated eagerly -- a
    typo'd port or platform name fails at request construction with
    the offending field named, not deep inside the scheduler.

    ``checkpoint_path`` receives an :class:`~repro.core.engine.
    EngineState` archive from the driver the request dispatches to;
    ``resume_from`` continues one -- written by any driver on any
    rank count over the same system (with ``x0``, pass the same
    ``x0`` again), bitwise the uninterrupted solve on the same
    driver and rank count.  The serving layer migrates a gang's dead
    shard and parks preempted solves (``docs/sessions.md``) with it.
    """

    system: GaiaSystem
    ranks: int = 1
    atol: float = 1e-10
    btol: float | None = None
    conlim: float = 1e8
    iter_lim: int | None = None
    damp: float = 0.0
    precondition: bool = True
    calc_var: bool = True
    strategy: str = "auto"
    seed: int = 0
    x0: np.ndarray | None = None
    resilience: ResilienceConfig | None = None
    checkpoint_every: int | None = None
    checkpoint_path: str | Path | None = None
    callback: IterationCallback | None = None
    telemetry: Telemetry | None = None
    job_id: str | None = None
    framework: str | None = None
    constraints: PlacementConstraints | None = None
    resume_from: str | Path | None = None

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.strategy not in STRATEGY_PRESETS:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{tuple(STRATEGY_PRESETS)}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # A NaN passes every comparison below and would silently
        # disable a stopping test; an infinite conlim means "no limit".
        for name in ("atol", "btol", "conlim", "damp"):
            value = getattr(self, name)
            if value is not None and (np.isnan(value) or (
                    np.isinf(value) and name != "conlim")):
                wanted = "a number" if name == "conlim" else "finite"
                raise ValueError(f"{name} must be {wanted}, got {value}")
        if self.atol < 0:
            raise ValueError(f"atol must be >= 0, got {self.atol}")
        if self.btol is not None and self.btol < 0:
            raise ValueError(f"btol must be >= 0, got {self.btol}")
        if self.conlim <= 0:
            raise ValueError(f"conlim must be > 0, got {self.conlim}")
        if self.iter_lim is not None and self.iter_lim < 1:
            raise ValueError(
                f"iter_lim must be >= 1, got {self.iter_lim}")
        if self.damp < 0:
            raise ValueError(f"damp must be >= 0, got {self.damp}")
        if self.x0 is not None:
            n = self.system.dims.n_params
            if np.shape(self.x0) != (n,):
                raise ValueError(f"x0 has shape {np.shape(self.x0)}, "
                                 f"expected ({n},)")
            if not np.all(np.isfinite(self.x0)):
                raise ValueError("x0 must be finite")
        if (self.checkpoint_every is not None
                and self.checkpoint_every < 1):
            raise ValueError(
                f"checkpoint_every must be >= 1, "
                f"got {self.checkpoint_every}")
        if self.framework is not None:
            from repro.frameworks.executors_future import PSTL_EXECUTORS
            from repro.frameworks.registry import PORTS_BY_KEY

            known = tuple(PORTS_BY_KEY) + (PSTL_EXECUTORS.key,)
            if self.framework not in known:
                raise ValueError(
                    f"unknown framework {self.framework!r}; expected "
                    f"one of {known}"
                )
        distributed = self.ranks > 1 or self.resilience is not None
        if distributed and self.damp != 0.0:
            raise ValueError(
                "damp is serial-only: the distributed engine mirrors "
                "the production solver, which runs undamped"
            )
        if distributed and self.x0 is not None:
            raise ValueError("x0 warm starts are serial-only")

    @property
    def digests(self) -> tuple[str, str]:
        """``(system digest, matrix digest)`` of :attr:`system`.

        One SHA-256 pass (:func:`repro.system.digest.digests`), taken
        the first time a consumer asks and kept on this object -- the
        cache key, the fusion key, the shared-memory publish and the
        session store all read it here.  It is not a field, so
        ``dataclasses.replace`` never carries a pair to a request over
        another system; :meth:`derive` carries it to one over the same
        system.  Mutate a system in place only before building the
        request that solves it.
        """
        pair = self.__dict__.get("_digests")
        if pair is None:
            pair = digests(self.system)
            object.__setattr__(self, "_digests", pair)
        return pair

    @property
    def hashed(self) -> bool:
        """Whether :attr:`digests` has been taken on this object."""
        return "_digests" in self.__dict__

    def derive(self, **changes) -> "SolveRequest":
        """This request with ``changes``, over the same system.

        ``dataclasses.replace`` that keeps the digest pair, so a
        request the serving layer derives (a warm-start seed, a
        re-derived fault seed, a slice, a gang's rank count) is not
        hashed again.
        """
        if "system" in changes:
            raise ValueError("derive keeps the system; build a new "
                             "request for another one")
        derived = replace(self, **changes)
        if self.hashed:
            object.__setattr__(derived, "_digests", self.digests)
        return derived

    @property
    def strategies(self) -> tuple[str, str]:
        """The preset's ``(gather, scatter)`` kernel strategy pair."""
        return STRATEGY_PRESETS[self.strategy]

    @property
    def placement_constraints(self) -> PlacementConstraints:
        """The normalized constraints (defaults when none were given)."""
        return (self.constraints if self.constraints is not None
                else DEFAULT_CONSTRAINTS)

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The derived fault plan (None without a resilience config)."""
        if self.resilience is None:
            return None
        return self.resilience.make_plan(
            derive_seed(self.seed, _STREAM_FAULTS))

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The derived retry policy (None without a resilience config)."""
        if self.resilience is None:
            return None
        return self.resilience.make_retry(
            derive_seed(self.seed, _STREAM_RETRY))


#: :class:`SolveRequest` fields that never cross a process boundary
#: (the system travels by segment name, the other two are live objects).
_LIVE_FIELDS = frozenset({"system", "callback", "telemetry"})


@dataclass(frozen=True)
class RequestSpec:
    """The picklable remainder of a :class:`SolveRequest`.

    Everything a solve needs *except* the system (whose matrix travels
    by segment name through the :class:`repro.serve.shm.SystemStore`
    and whose right-hand side rides beside the spec) and the two
    process-unfriendly live objects (``callback``, ``telemetry`` -- the
    serving layer keeps requests carrying either in the parent
    process).  This is the wire format of the process worker pool:
    :meth:`from_request` strips a request down to plain data,
    :meth:`to_request` rehydrates it against the system rebuilt on the
    worker side.  The field list is derived from
    :class:`SolveRequest`, so a field added there crosses the
    boundary without being restated here.
    """

    values: dict[str, object]

    @classmethod
    def from_request(cls, request: "SolveRequest") -> "RequestSpec":
        """Strip one request down to its picklable fields."""
        values = {f.name: getattr(request, f.name)
                  for f in fields(SolveRequest)
                  if f.name not in _LIVE_FIELDS}
        return cls({name: str(v) if isinstance(v, Path) else v
                    for name, v in values.items()})

    def to_request(self, system: GaiaSystem, *,
                   telemetry: Telemetry | None = None) -> "SolveRequest":
        """Rehydrate a full request against ``system``."""
        return SolveRequest(system=system, telemetry=telemetry,
                            **self.values)


@dataclass(frozen=True)
class ShardPlacement:
    """One rank of a gang-scheduled solve: which lane held which shard.

    ``migrated_from`` names the lane this shard originally ran on when
    the resilience layer moved it to a spare after a rank death.
    """

    rank: int
    device: str
    footprint_gb: float
    port_key: str | None = None
    estimated_s: float | None = None
    migrated_from: str | None = None


@dataclass(frozen=True)
class Placement:
    """Where -- and how -- the serving layer ran one job.

    Produced by :class:`repro.serve.Scheduler` and attached to the
    :class:`SolveReport` it returns (defined here, below ``serve``, so
    the report type needs no serving-layer import).  ``device`` is the
    pool lane the job ran on (``attempt > 0`` after a re-placement;
    ``previous_devices`` lists the lanes that produced a
    DEGRADED/ABORTED result first); ``cache_hit`` marks a report
    served from the result cache rather than a fresh solve;
    ``tuned`` records whether the placement price included a cached
    kernel-geometry sweep discount (see ``docs/tuning.md``) or fell
    back to the nominal out-of-the-box model.
    """

    job_id: str
    device: str
    nominal_gb: float
    footprint_gb: float
    queue_wait_s: float = 0.0
    estimated_s: float | None = None
    port_key: str | None = None
    attempt: int = 0
    previous_devices: tuple[str, ...] = ()
    cache_hit: bool = False
    #: Identifier of the fused batch this job solved in (None when the
    #: job ran alone) and how many members that batch carried.
    batch_id: str | None = None
    batch_size: int = 1
    #: True when the placement price used a tuned-config cache entry.
    tuned: bool = False
    #: Per-rank provenance of a gang-scheduled solve.  Empty for
    #: single-device placements, so existing reports are unchanged; a
    #: gang report carries one :class:`ShardPlacement` per rank and
    #: ``device`` joins the lane ids with ``+``.
    shards: tuple[ShardPlacement, ...] = ()


@dataclass(frozen=True)
class WarmStartInfo:
    """How a session warm start seeded one solve.

    ``iterations_saved`` is measured against the *source* solve:
    ``prior_itn - itn``, i.e. how many fewer iterations this solve
    spent than the stored run that produced the seed.  (The true
    cold-start delta of the same system needs a cold control solve,
    which this field does not run.)
    """

    source_digest: str
    #: True when the seed came from this exact system's stored
    #: solution; False when it came from a lineage ancestor.
    exact: bool
    #: Lineage distance to the source (0 = exact, 1 = parent, ...).
    depth: int
    #: Iterations the source solve spent.
    prior_itn: int
    #: ``prior_itn`` minus this solve's iteration count.
    iterations_saved: int


@dataclass
class SolveReport:
    """Uniform outcome of :func:`solve`, whichever driver ran.

    ``raw`` keeps the driver-specific result
    (:class:`~repro.core.lsqr.LSQRResult` or
    :class:`~repro.dist.runner.DistributedResult`) for callers that
    need its extras; ``resilience`` is the chaos-run record when the
    recovery driver ran.  ``job_id`` echoes the request's id;
    ``placement`` is filled by the :mod:`repro.serve` scheduler when
    the solve went through the serving layer; ``warm_start`` records
    the session-store seed when :func:`solve` ran with ``sessions=``
    (or the scheduler resolved one) and found a usable prior solution.
    """

    x: np.ndarray
    stop: StopReason
    itn: int
    r2norm: float
    ranks: int
    m: int
    n: int
    var: np.ndarray | None = None
    acond: float | None = None
    mean_iteration_time: float = 0.0
    resilience: ResilienceReport | None = None
    raw: LSQRResult | DistributedResult | None = None
    job_id: str | None = None
    placement: Placement | None = None
    warm_start: WarmStartInfo | None = None

    @property
    def converged(self) -> bool:
        """True when the solve met a convergence test -- including a
        degraded solve whose surviving ranks converged."""
        if self.stop in CONVERGED:
            return True
        return (self.stop is StopReason.DEGRADED
                and self.resilience is not None
                and self.resilience.engine_stop in CONVERGED)

    def standard_errors(self) -> np.ndarray:
        """Least-squares standard errors from the ``var`` estimate."""
        if self.var is None:
            raise ValueError("solve ran with calc_var=False")
        dof = self.m - self.n
        if dof <= 0:
            raise ValueError("system is not overdetermined")
        s2 = self.r2norm**2 / dof
        return np.sqrt(np.maximum(self.var, 0.0) * s2)

    def summary(self) -> str:
        """Human-readable report (the CLI's solve output)."""
        lines = [
            f"istop={self.stop.name} itn={self.itn} "
            f"r2norm={self.r2norm:.3e}"
            + (f" acond={self.acond:.3e}" if self.acond is not None
               else "")
            + (f" ranks={self.ranks}" if self.ranks > 1
               or self.resilience is not None else "")
        ]
        if self.mean_iteration_time > 0:
            lines.append(f"mean iteration time: "
                         f"{self.mean_iteration_time * 1e3:.3f} ms")
        if self.warm_start is not None:
            w = self.warm_start
            source = ("own prior solution" if w.exact
                      else f"lineage ancestor (depth {w.depth})")
            lines.append(
                f"warm start: seeded from {source}, "
                f"{w.iterations_saved:+d} iterations vs the "
                f"{w.prior_itn}-iteration source solve")
        if self.resilience is not None:
            lines.append(self.resilience.summary())
        return "\n".join(lines)


def solve(request: SolveRequest, *,
          sessions: "object | None" = None) -> SolveReport:
    """Run the solve the request describes; the one public entry point.

    Dispatch:

    - ``resilience`` set -> :class:`~repro.resilience.
      ResilientDistributedLSQR` (fault injection + recovery, any
      rank count);
    - ``ranks > 1``      -> :class:`~repro.dist.runner.DistributedLSQR`;
    - otherwise          -> serial :func:`~repro.core.lsqr.lsqr_solve`.

    ``sessions`` (a :class:`repro.sessions.SessionStore`) makes the
    call session-aware: a plain serial request (no ``x0``, no
    resilience, no resume) is seeded with the store's exact-digest or
    nearest-ancestor solution, the outcome is recorded back under the
    system's digest with its parent link, and the seed's provenance
    lands on :attr:`SolveReport.warm_start` (``docs/sessions.md``).
    """
    if sessions is not None:
        return _solve_with_sessions(request, sessions)
    if request.resilience is not None or request.ranks > 1:
        return _solve_spmd(request)
    return _solve_serial(request)


def _solve_with_sessions(request: SolveRequest,
                         sessions: "object") -> SolveReport:
    """Session-aware wrapper: warm-start seed, solve, record back."""
    from repro.sessions.warmstart import (
        record_if_clean,
        seed_request,
        stamp_warm_start,
    )

    seeded, warm = seed_request(sessions, request)
    report = solve(seeded)
    record_if_clean(sessions, request, report)
    return stamp_warm_start(report, warm)


def batch_incompatibility(requests: "list[SolveRequest] | tuple[SolveRequest, ...]"
                          ) -> str | None:
    """Why these requests cannot solve as one batch (None if they can).

    Structural checks only -- the members must be plain serial solves
    agreeing on every shared engine parameter.  *Matrix* equality is
    the caller's contract: :mod:`repro.serve` fuses by matrix digest,
    direct callers pass systems they know share coefficients.  Members
    are free to differ in right-hand side (``system.known_terms``),
    ``damp``, ``seed``, ``x0`` and ``job_id``.
    """
    if not requests:
        return "empty request batch"
    first = requests[0]
    for i, r in enumerate(requests):
        if r.ranks != 1:
            return f"requests[{i}] is distributed (ranks={r.ranks})"
        if r.resilience is not None:
            return f"requests[{i}] runs the resilience driver"
        if r.callback is not None:
            return f"requests[{i}] has a per-iteration callback"
        if r.checkpoint_every is not None or r.checkpoint_path is not None:
            return f"requests[{i}] checkpoints mid-solve"
        if r.resume_from is not None:
            return f"requests[{i}] resumes a checkpoint"
        for f in ("atol", "btol", "conlim", "iter_lim", "precondition",
                  "calc_var", "strategy"):
            if getattr(r, f) != getattr(first, f):
                return (f"requests[{i}].{f}={getattr(r, f)!r} differs "
                        f"from requests[0].{f}={getattr(first, f)!r}")
        if r.system.dims != first.system.dims:
            return f"requests[{i}] has different system dims"
    return None


def solve_batch(requests: "list[SolveRequest] | tuple[SolveRequest, ...]"
                ) -> list[SolveReport]:
    """Solve K compatible serial requests as one fused batched sweep.

    All members must share the matrix (same coefficients and
    constraints -- the right-hand side may differ via
    ``system.known_terms``) and every engine parameter checked by
    :func:`batch_incompatibility`; they may differ in rhs, ``damp``,
    ``seed``, ``x0`` and ``job_id``.  One
    :class:`~repro.core.engine.BatchedLSQRStepEngine` then advances
    all members per iteration, and each member's report is bitwise
    the report ``solve`` would have produced for it alone, on every
    kernel preset, in request order.
    """
    reason = batch_incompatibility(requests)
    if reason is not None:
        raise ValueError(f"requests cannot solve as one batch: {reason}")
    first = requests[0]
    btol = first.btol if first.btol is not None else first.atol
    B = np.stack([r.system.rhs().astype(np.float64) for r in requests])
    results = lsqr_solve_batch(
        _operator(first), B,
        damps=[r.damp for r in requests],
        atol=first.atol, btol=btol, conlim=first.conlim,
        iter_lim=first.iter_lim,
        precondition=first.precondition,
        calc_var=first.calc_var,
        x0s=[r.x0 for r in requests],
        telemetry=first.telemetry,
    )
    return [_report(req, res) for req, res in zip(requests, results)]


def _operator(request: SolveRequest) -> AprodOperator:
    """The request's kernel operator (the compiled plan)."""
    return AprodOperator(request.system, telemetry=request.telemetry)


def _report(request: SolveRequest,
            result: LSQRResult | DistributedResult,
            resilience: ResilienceReport | None = None) -> SolveReport:
    """The uniform report of whichever driver produced ``result``."""
    serial = isinstance(result, LSQRResult)
    return SolveReport(
        x=result.x, stop=result.istop if serial else result.stop,
        itn=result.itn, r2norm=result.r2norm,
        ranks=1 if serial else result.n_ranks,
        m=result.m, n=result.n, var=result.var,
        acond=result.acond if serial else None,
        mean_iteration_time=result.mean_iteration_time,
        resilience=resilience, raw=result, job_id=request.job_id,
    )


def _solve_serial(request: SolveRequest) -> SolveReport:
    btol = request.btol if request.btol is not None else request.atol
    return _report(request, lsqr_solve(
        _operator(request),
        damp=request.damp,
        atol=request.atol, btol=btol, conlim=request.conlim,
        iter_lim=request.iter_lim,
        precondition=request.precondition,
        calc_var=request.calc_var,
        x0=request.x0,
        callback=request.callback,
        telemetry=request.telemetry,
        checkpoint_every=request.checkpoint_every,
        checkpoint_path=request.checkpoint_path,
        resume_from=request.resume_from,
    ))


def _solve_spmd(request: SolveRequest) -> SolveReport:
    """The SPMD driver, inside the recovery driver when asked for."""
    driver = DistributedLSQR(
        request.system, request.ranks,
        precondition=request.precondition,
        calc_var=request.calc_var,
        telemetry=request.telemetry,
    )
    stopping = dict(atol=request.atol, btol=request.btol,
                    conlim=request.conlim, iter_lim=request.iter_lim,
                    callback=request.callback)
    config = request.resilience
    if config is None:
        return _report(request, driver.solve(
            **stopping,
            checkpoint_every=request.checkpoint_every,
            checkpoint_path=request.checkpoint_path,
            resume_from=request.resume_from,
        ))
    result, chaos = ResilientDistributedLSQR(
        driver,
        plan=request.fault_plan, retry=request.retry_policy,
        checkpoint_every=config.checkpoint_every,
        checkpoint_path=request.checkpoint_path,
        max_restarts=config.max_restarts,
        min_ranks=config.min_ranks,
        allow_degraded=config.allow_degraded,
        norm_explosion_factor=config.norm_explosion_factor,
    ).solve(**stopping, resume_from=request.resume_from)
    return _report(request, result, chaos)
