"""Scenario files: one JSON document describing a whole serving run.

The ``repro-gaia serve`` subcommand (and ``make smoke``) runs a
scenario like::

    {
      "placement": {"devices": ["V100", "A100", "H100", "MI250X"],
                    "per_gcd": true, "backend": "thread",
                    "max_fuse": 1, "include_projected": false,
                    "allow_gang": false, "max_shards": 1,
                    "memory_headroom": 0.0,
                    "tuning": {"enabled": false, "cache_dir": null}},
      "scheduler": {"workers": 4, "max_queue_depth": 32,
                    "cache_capacity": 64, "max_replacements": 1,
                    "drain_timeout_s": 60.0, "mp_workers": null},
      "sessions": {"enabled": false, "dir": null, "budget_mb": 64,
                   "preempt_slice": null},
      "load": {"n_jobs": 16, "mix": {"10": 0.5, "30": 0.3, "60": 0.2},
               "distinct_systems": 4, "rhs_variants": 1,
               "scale": 2e-4, "seed": 0,
               "iter_lim": 60, "ranks": 1, "priorities": [0],
               "arrival_rate_hz": null,
               "chains": 0, "chain_length": 3, "chain_growth": 0.5,
               "chain_gb": 10.0, "chain_priority": 0}
    }

Every knob is optional; the defaults above are the smoke scenario.
The ``placement`` section is the single home of everything that
decides *where and how* jobs land -- the device pool, the worker
backend, fusion, the cost-model roster, and the gang-sharding knobs
that feed each generated request's :class:`~repro.api.
PlacementConstraints` (``allow_gang``/``max_shards``/
``memory_headroom``).  ``scheduler`` keeps only queueing/execution
capacity.  An unknown key in any section but ``load`` (whose keys are
:class:`~repro.serve.loadgen.LoadSpec`'s fields) is an error that
names the key -- a typo, a placement knob left under ``scheduler``, or
a pre-``placement`` ``pool``/``tuning`` section must not silently run
the default.

``mix`` maps nominal GB to weight; ``per_gcd`` resolves the MI250X to
its 64 GB single-GCD entry for memory-fit decisions (see
:mod:`repro.gpu.platforms`); ``include_projected`` adds the C++26
:data:`~repro.frameworks.executors_future.PSTL_EXECUTORS` port to the
placement cost model's roster; ``max_fuse > 1`` turns on request
fusion (compatible queued jobs coalesce into one batched many-RHS
solve) and pairs with ``load.rhs_variants > 1``, which makes the
stream emit same-matrix/different-b twins worth fusing;
``backend: "process"`` executes solves in a pool of spawned worker
processes attached to the shared-memory system store
(``drain_timeout_s`` bounds the graceful-shutdown join);
``allow_gang`` lets a job whose footprint exceeds
every single device shard across ``max_shards`` lanes as a
gang-scheduled multi-rank solve (see ``docs/serving.md``).

``sessions.enabled`` attaches a
:class:`~repro.sessions.SessionStore` (persisted under ``dir`` when
set, else a run-scoped temporary directory) so plain serial jobs warm
start from stored exact-digest/ancestor solutions and record back;
``sessions.preempt_slice`` additionally runs preemptible jobs of
priority > 0 as checkpointed iteration slices that park mid-solve
when a more urgent arrival is starved (``docs/sessions.md``).  The
``load.chains`` family emits incremental re-solve chains: each chain
is a growing system (step 0 fresh, later steps appended observation
blocks with digests chaining parent -> child) whose steps warm start
off each other when a session store is attached.

``placement.tuning.enabled`` switches placement to tuning-aware
pricing (see ``docs/tuning.md``): the cost model prices
out-of-the-box and discounts with entries from a
:class:`~repro.tuning.cache.TunedConfigCache` (persisted under
``cache_dir`` when set), which :func:`build_scheduler` fills -- one
:meth:`~repro.tuning.service.TuningService.tune` per cell of the pool
x load-mix covering set -- before the scheduler serves a job.  See
``docs/serving.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import PlacementConstraints
from repro.obs.telemetry import Telemetry
from repro.serve.cache import ResultCache
from repro.serve.cost import PlacementCostModel
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler, ServeReport
from repro.sessions.store import SessionStore
from repro.tuning.cache import TunedConfigCache
from repro.tuning.service import TuningService


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario document."""

    devices: tuple[str, ...] = ("V100", "A100", "H100", "MI250X")
    per_gcd: bool = True
    workers: int = 4
    max_queue_depth: int = 32
    cache_capacity: int = 64
    max_replacements: int = 1
    max_fuse: int = 1
    include_projected: bool = False
    backend: str = "thread"
    drain_timeout_s: float = 60.0
    #: Solve-process pool size for ``backend="process"``
    #: (None = min(workers, cpu count); dispatch width and execution
    #: width are decoupled).
    mp_workers: int | None = None
    #: Tuning-aware placement pricing over a cache tuned before the
    #: run.
    tuning_enabled: bool = False
    #: Disk directory for the tuned-config cache (None = memory only).
    tuning_cache_dir: str | None = None
    #: Gang-sharding knobs threaded into every generated request's
    #: :class:`~repro.api.PlacementConstraints`.
    allow_gang: bool = False
    max_shards: int = 1
    memory_headroom: float = 0.0
    #: Session-lifecycle store (``docs/sessions.md``): warm starts +
    #: solution recording; ``sessions_dir`` persists across runs.
    sessions_enabled: bool = False
    sessions_dir: str | None = None
    sessions_budget_mb: float = 64.0
    #: Iteration slice length for preemptible low-priority jobs
    #: (None = preemption off; requires ``sessions_enabled``).
    preempt_slice: int | None = None
    load: LoadSpec = field(default_factory=LoadSpec)

    def constraints(self) -> PlacementConstraints | None:
        """The per-request constraints this scenario's load carries.

        None when every knob is at its default, so a plain scenario's
        requests stay byte-identical to the pre-constraints era (the
        cache keys and fusion keys of old runs are preserved).
        """
        if (not self.allow_gang and self.max_shards == 1
                and self.memory_headroom == 0.0):
            return None
        return PlacementConstraints(
            allow_gang=self.allow_gang,
            max_shards=self.max_shards,
            memory_headroom=self.memory_headroom,
        )


#: The sections a scenario document may carry, and the keys of each
#: section ``parse_scenario`` reads (``load`` is checked by
#: :class:`~repro.serve.loadgen.LoadSpec` itself).
_SECTIONS = ("placement", "scheduler", "sessions", "load")
_SCHEDULER_KEYS = ("workers", "max_queue_depth", "cache_capacity",
                   "max_replacements", "drain_timeout_s", "mp_workers")
_PLACEMENT_KEYS = ("devices", "per_gcd", "backend", "max_fuse",
                   "include_projected", "allow_gang", "max_shards",
                   "memory_headroom", "tuning")
_TUNING_KEYS = ("enabled", "cache_dir")
_SESSIONS_KEYS = ("enabled", "dir", "budget_mb", "preempt_slice")


def _reject_unknown(where: str, doc: dict, known: tuple[str, ...]) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        hint = (" (pool/backend/fusion/gang/tuning knobs live in the "
                "'placement' section)"
                if where in ("scenario", "scheduler") else "")
        raise ValueError(
            f"unknown {where} key(s) {unknown}; expected a subset of "
            f"{list(known)}{hint}")


def parse_scenario(doc: dict) -> Scenario:
    """Build a :class:`Scenario` from a decoded JSON document.

    An unknown key in any section but ``load`` raises with the key
    named.
    """
    _reject_unknown("scenario", doc, _SECTIONS)
    sched = doc.get("scheduler", {})
    _reject_unknown("scheduler", sched, _SCHEDULER_KEYS)
    placement = doc.get("placement", {})
    _reject_unknown("placement", placement, _PLACEMENT_KEYS)
    tuning = placement.get("tuning", {})
    _reject_unknown("placement.tuning", tuning, _TUNING_KEYS)
    sessions = doc.get("sessions", {})
    _reject_unknown("sessions", sessions, _SESSIONS_KEYS)
    if (sessions.get("preempt_slice") is not None
            and not sessions.get("enabled", False)):
        raise ValueError(
            "sessions.preempt_slice requires sessions.enabled: "
            "preempted solves park their checkpoint in the store")
    load_doc = dict(doc.get("load", {}))
    if "mix" in load_doc:
        load_doc["mix"] = tuple(
            (float(size), float(weight))
            for size, weight in load_doc["mix"].items()
        )
    if "priorities" in load_doc:
        load_doc["priorities"] = tuple(int(p)
                                       for p in load_doc["priorities"])
    return Scenario(
        devices=tuple(placement.get("devices",
                                    Scenario.devices)),
        per_gcd=bool(placement.get("per_gcd", Scenario.per_gcd)),
        workers=int(sched.get("workers", Scenario.workers)),
        max_queue_depth=int(sched.get("max_queue_depth",
                                      Scenario.max_queue_depth)),
        cache_capacity=int(sched.get("cache_capacity",
                                     Scenario.cache_capacity)),
        max_replacements=int(sched.get("max_replacements",
                                       Scenario.max_replacements)),
        max_fuse=int(placement.get("max_fuse", Scenario.max_fuse)),
        include_projected=bool(placement.get(
            "include_projected", Scenario.include_projected)),
        backend=str(placement.get("backend", Scenario.backend)),
        drain_timeout_s=float(sched.get("drain_timeout_s",
                                        Scenario.drain_timeout_s)),
        mp_workers=(int(sched["mp_workers"])
                    if sched.get("mp_workers") is not None else None),
        tuning_enabled=bool(tuning.get("enabled",
                                       Scenario.tuning_enabled)),
        tuning_cache_dir=(str(tuning["cache_dir"])
                          if tuning.get("cache_dir") is not None
                          else None),
        allow_gang=bool(placement.get("allow_gang",
                                      Scenario.allow_gang)),
        max_shards=int(placement.get("max_shards",
                                     Scenario.max_shards)),
        memory_headroom=float(placement.get(
            "memory_headroom", Scenario.memory_headroom)),
        sessions_enabled=bool(sessions.get(
            "enabled", Scenario.sessions_enabled)),
        sessions_dir=(str(sessions["dir"])
                      if sessions.get("dir") is not None else None),
        sessions_budget_mb=float(sessions.get(
            "budget_mb", Scenario.sessions_budget_mb)),
        preempt_slice=(int(sessions["preempt_slice"])
                       if sessions.get("preempt_slice") is not None
                       else None),
        load=LoadSpec(**load_doc),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse one scenario file."""
    return parse_scenario(json.loads(Path(path).read_text()))


def build_scheduler(scenario: Scenario,
                    telemetry: Telemetry | None = None) -> Scheduler:
    """The scheduler a scenario describes (fresh pool and cache).

    With ``tuning_enabled`` the placement cost model is built around a
    :class:`~repro.tuning.cache.TunedConfigCache`, and a
    :class:`~repro.tuning.service.TuningService` tunes every cell of
    the pool x load-mix covering set into it before this returns: the
    whole table costs a fraction of a second of analytic model, so
    every placement of the run prices from it (``tuned`` provenance).
    """
    pool = DevicePool(scenario.devices, per_gcd=scenario.per_gcd,
                      telemetry=telemetry)
    cache = (ResultCache(scenario.cache_capacity, telemetry=telemetry)
             if scenario.cache_capacity > 0 else None)
    if scenario.tuning_enabled:
        tuned_cache = TunedConfigCache(scenario.tuning_cache_dir,
                                       telemetry=telemetry)
        tuning = TuningService(cache=tuned_cache, telemetry=telemetry)
        sizes = tuple(size for size, _ in scenario.load.mix)
        for spec in tuning.covering_specs(scenario.devices, sizes):
            tuning.tune(spec)
        cost_model = PlacementCostModel(
            include_projected=scenario.include_projected,
            tuned_cache=tuned_cache)
    else:
        cost_model = PlacementCostModel(
            include_projected=scenario.include_projected)
    sessions_store: SessionStore | None = None
    if scenario.sessions_enabled:
        sessions_store = SessionStore(
            scenario.sessions_dir,
            budget_bytes=int(scenario.sessions_budget_mb * 2**20),
            telemetry=telemetry)
    scheduler = Scheduler(
        pool,
        workers=scenario.workers,
        cache=cache,
        cost_model=cost_model,
        max_queue_depth=scenario.max_queue_depth,
        max_replacements=scenario.max_replacements,
        max_fuse=scenario.max_fuse,
        backend=scenario.backend,
        drain_timeout=scenario.drain_timeout_s,
        mp_workers=scenario.mp_workers,
        sessions=sessions_store,
        preempt_slice=scenario.preempt_slice,
        telemetry=telemetry,
    )
    # The scheduler owns (and closes at drain) a store it was built
    # around; callers passing their own store to Scheduler() keep it.
    scheduler._own_sessions = sessions_store is not None
    return scheduler


def run_scenario(scenario: Scenario,
                 telemetry: Telemetry | None = None) -> ServeReport:
    """Generate the scenario's load and run it to completion."""
    scheduler = build_scheduler(scenario, telemetry=telemetry)
    jobs = LoadGenerator(scenario.load,
                         constraints=scenario.constraints()).jobs()
    return scheduler.run(jobs)
