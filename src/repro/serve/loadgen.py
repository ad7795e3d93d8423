"""Seeded open-loop request streams for the serving layer.

A :class:`LoadGenerator` turns a :class:`LoadSpec` into a list of
:class:`~repro.serve.job.ServeJob`: a mix of 10/30/60 GB-*shaped*
jobs (nominal sizes drive admission and placement against the real
device memories) whose actually-solved systems are scaled-down
replicas (``nominal_gb * scale`` through the usual synthetic
generator).  Jobs draw from a small pool of ``distinct_systems``
(system, config) slots, which is what makes the stream cacheable --
real serving traffic repeats itself -- and every draw comes from one
seeded PCG64 stream, so the same spec always produces the same
workload, arrival offsets and all.

``chains > 0`` appends the *sessions* scenario family after the main
stream: growing-system request chains (each step the previous system
plus an appended observation block) whose digest lineage lets an
attached :class:`~repro.sessions.SessionStore` warm start every
re-solve from its parent's solution.  See ``docs/sessions.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.api import PlacementConstraints, SolveRequest
from repro.serve.job import ServeJob
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one synthetic request stream."""

    n_jobs: int = 16
    #: nominal GB -> mix weight (normalized internally).
    mix: tuple[tuple[float, float], ...] = (
        (10.0, 0.5), (30.0, 0.3), (60.0, 0.2))
    #: Actually-allocated fraction of the nominal size.
    scale: float = 2e-4
    #: Number of distinct (system, config) slots jobs draw from.
    distinct_systems: int = 4
    #: Right-hand-side variants per slot: 1 keeps every repeat an
    #: exact twin (pure cache traffic); > 1 draws each job one of this
    #: many perturbed ``known_terms`` vectors over the slot's shared
    #: matrix, the same-matrix/different-b shape that request fusion
    #: (``Scheduler(max_fuse > 1)``) coalesces into batched solves.
    rhs_variants: int = 1
    seed: int = 0
    iter_lim: int = 60
    ranks: int = 1
    #: Priorities drawn uniformly from this set.
    priorities: tuple[int, ...] = (0,)
    #: Mean arrivals per second (None = all jobs queued at t=0).
    arrival_rate_hz: float | None = None
    #: Incremental re-solve chains appended after the main stream:
    #: each chain is one growing system -- step 0 a fresh slot-style
    #: system, each later step the parent plus an appended observation
    #: block (``repro.system.merge.append_observations``), so the
    #: steps form a digest lineage a session store warm-starts along.
    chains: int = 0
    #: Solve steps per chain (step 0 plus ``chain_length - 1`` grown
    #: re-solves).
    chain_length: int = 3
    #: New observations per step, as a fraction of the parent's
    #: ``n_obs`` (0.5 = each step grows the system by half).
    chain_growth: float = 0.5
    #: Nominal size of every chain job (placement footprint).
    chain_gb: float = 10.0
    #: Priority of chain jobs (> 0 makes them preemptible under
    #: ``preempt_slice``).
    chain_priority: int = 0

    def at_rate(self, arrival_rate_hz: float | None) -> "LoadSpec":
        """This spec with a different offered load (arrivals/second).

        The sustained-load benchmark's sweep primitive: one workload
        shape replayed at increasing rates, everything else (systems,
        mix, seeds) held fixed so thread and process backends see the
        same stream at every point.
        """
        return dataclasses.replace(self,
                                   arrival_rate_hz=arrival_rate_hz)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.distinct_systems < 1:
            raise ValueError(
                f"distinct_systems must be >= 1, "
                f"got {self.distinct_systems}")
        if self.rhs_variants < 1:
            raise ValueError(
                f"rhs_variants must be >= 1, got {self.rhs_variants}")
        if not (0 < self.scale <= 1):
            raise ValueError(
                f"scale must be in (0, 1], got {self.scale}")
        if not self.mix or any(w < 0 for _, w in self.mix):
            raise ValueError(f"invalid mix {self.mix!r}")
        if self.chains < 0:
            raise ValueError(f"chains must be >= 0, got {self.chains}")
        if self.chains > 0:
            if self.chain_length < 2:
                raise ValueError(
                    f"chain_length must be >= 2 (a chain is a re-solve"
                    f" lineage), got {self.chain_length}")
            if self.chain_growth <= 0:
                raise ValueError(
                    f"chain_growth must be > 0, "
                    f"got {self.chain_growth}")
            if self.chain_gb <= 0:
                raise ValueError(
                    f"chain_gb must be > 0, got {self.chain_gb}")


@lru_cache(maxsize=32)
def _slot_system(nominal_gb: float, scale: float, seed: int):
    """The (cached) scaled-down system of one workload slot."""
    return make_system(dims_from_gb(nominal_gb * scale), seed=seed,
                       noise_sigma=1e-9)


@lru_cache(maxsize=128)
def _slot_variant(nominal_gb: float, scale: float, seed: int,
                  variant: int):
    """One rhs variant of a slot: same matrix, perturbed known terms.

    Variant 0 is the slot system itself; variant ``v > 0`` replaces
    ``known_terms`` with a deterministically perturbed copy (stream
    seeded by ``(seed, v)``), so variants of one slot share the matrix
    digest -- and therefore the fusion key -- while remaining distinct
    cacheable identities.
    """
    base = _slot_system(nominal_gb, scale, seed)
    if variant == 0:
        return base
    rng = np.random.default_rng((seed, variant))
    perturbed = base.known_terms + rng.normal(
        scale=1e-9, size=base.known_terms.shape)
    return dataclasses.replace(base, known_terms=perturbed)


@lru_cache(maxsize=64)
def _chain_system(nominal_gb: float, scale: float, seed: int,
                  step: int, growth: float):
    """Step ``step`` of one incremental re-solve chain.

    Step 0 is a fresh slot-style system; step ``k > 0`` is step
    ``k - 1`` plus an appended observation block of
    ``max(1, round(n_obs * growth))`` new rows (stream seeded by
    ``(seed, step)``), so every step's digest chains to its parent's
    and a session store can warm start each re-solve from the
    previous solution.  Memoized: chain steps within and across
    :meth:`LoadGenerator.jobs` calls are identical objects.
    """
    from repro.system.generator import make_observation_block
    from repro.system.merge import append_observations

    if step == 0:
        return make_system(dims_from_gb(nominal_gb * scale),
                           seed=seed, noise_sigma=1e-9)
    parent = _chain_system(nominal_gb, scale, seed, step - 1, growth)
    n_new = max(1, round(parent.dims.n_obs * growth))
    block = make_observation_block(
        parent, n_new, seed=int(np.random.default_rng(
            (seed, step)).integers(0, 2**31)))
    return append_observations(parent, block)


@dataclass
class LoadGenerator:
    """Deterministic ServeJob stream from one :class:`LoadSpec`.

    ``constraints`` (when set) is stamped onto every generated
    request -- the scenario layer's way of threading gang/headroom
    placement policy through to the scheduler.  None keeps requests
    byte-identical to the pre-constraints stream.
    """

    spec: LoadSpec = field(default_factory=LoadSpec)
    constraints: PlacementConstraints | None = None

    def jobs(self) -> list[ServeJob]:
        """The full request stream, in arrival order."""
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        sizes = np.array([s for s, _ in spec.mix])
        weights = np.array([w for _, w in spec.mix], dtype=float)
        weights = weights / weights.sum()

        # Each slot is one (nominal size, system seed) identity; jobs
        # sharing a slot share the system *and* the solver config, so
        # repeats are cache hits.
        slot_sizes = rng.choice(sizes, size=spec.distinct_systems,
                                p=weights)
        slot_seeds = rng.integers(0, 2**31, size=spec.distinct_systems)

        arrival = 0.0
        out: list[ServeJob] = []
        for i in range(spec.n_jobs):
            slot = int(rng.integers(spec.distinct_systems))
            nominal = float(slot_sizes[slot])
            seed = int(slot_seeds[slot])
            priority = int(rng.choice(np.array(spec.priorities)))
            variant = (int(rng.integers(spec.rhs_variants))
                       if spec.rhs_variants > 1 else 0)
            if spec.arrival_rate_hz:
                arrival += float(
                    rng.exponential(1.0 / spec.arrival_rate_hz))
            system = _slot_variant(nominal, spec.scale, seed, variant)
            request = SolveRequest(
                system=system,
                ranks=spec.ranks,
                iter_lim=spec.iter_lim,
                seed=seed,
                job_id=f"job-{i:03d}",
                constraints=self.constraints,
            )
            out.append(ServeJob(
                request=request,
                nominal_gb=nominal,
                priority=priority,
                arrival_s=arrival if spec.arrival_rate_hz else 0.0,
                job_id=f"job-{i:03d}",
            ))
        # Chains ride after the main stream (and draw their seeds
        # after its loop), so a chains=0 spec emits a byte-identical
        # stream to the pre-chains generator.  Step-major order: every
        # chain's step k precedes any step k+1, so a multi-worker
        # scheduler has each parent solution recorded before the child
        # re-solve asks the session store for it.
        chain_seeds = [int(rng.integers(0, 2**31))
                       for _ in range(spec.chains)]
        for step in range(spec.chain_length):
            for c in range(spec.chains):
                chain_seed = chain_seeds[c]
                system = _chain_system(spec.chain_gb, spec.scale,
                                       chain_seed, step,
                                       spec.chain_growth)
                if spec.arrival_rate_hz:
                    arrival += float(
                        rng.exponential(1.0 / spec.arrival_rate_hz))
                request = SolveRequest(
                    system=system,
                    ranks=1,
                    iter_lim=spec.iter_lim,
                    seed=chain_seed,
                    job_id=f"chain{c}-s{step}",
                    constraints=self.constraints,
                )
                out.append(ServeJob(
                    request=request,
                    nominal_gb=spec.chain_gb,
                    priority=spec.chain_priority,
                    arrival_s=(arrival if spec.arrival_rate_hz
                               else 0.0),
                    job_id=f"chain{c}-s{step}",
                ))
        return out

