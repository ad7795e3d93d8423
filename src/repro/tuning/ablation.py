"""Serve-level A/B: what tuned-aware placement prices are worth.

The experiment (E38): plan the *same* mixed-size job stream onto the
same mixed-platform pool twice -- once with prices from an empty
tuned-config cache (every device priced out-of-the-box) and once with
a warm cache (every sweepable cell discounted by its sweep ratio) --
then score **both** plans under the tuned truth, because once the
sweeps exist the devices really do run that fast regardless of what
the planner believed.

The nominal arm's failure mode is misallocation, not slowness per
job: out-of-the-box prices overstate exactly the devices where tuning
buys the most (the ~40% T4/V100 cells), so a greedy least-finish-time
planner under-uses them and piles work onto the devices whose prices
happened to be honest.  The tuned arm plans with the truth it is
scored under, so its makespan is never worse and on any mix that
touches a high-gain device it is strictly better.

This module is deliberately a *planner*, not the live scheduler: a
deterministic greedy assignment with no threads, queues, or arrival
jitter, so the A/B isolates the pricing signal.  The live path is
exercised separately: a ``tuning``-enabled scenario's
:func:`repro.serve.scenario.build_scheduler` tunes the same covering
set into the cache before the run, so every placement prices tuned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.tuning.service import TuningService

#: Default pool: one of each paper platform (full MI250X package).
DEFAULT_POOL = ("T4", "V100", "A100", "H100", "MI250X")

#: Default job stream: the paper's 10/30 GB sizes at 3:2 weights, as
#: a fixed cycle so the stream is deterministic at every length.  The
#: 60 GB exclusion class is deliberately absent from the *planner*
#: stream: only H100 and the MI250X hold it, so its placement is
#: nearly price-independent and it pins both arms' makespan to the
#: same bottleneck device, washing out the signal this experiment
#: isolates (pass a custom ``pattern`` to see exactly that).
MIX_PATTERN = (10.0, 30.0, 10.0, 10.0, 30.0)


def job_stream(n_jobs: int,
               pattern: Sequence[float] = MIX_PATTERN) -> list[float]:
    """``n_jobs`` nominal sizes cycling the mix pattern."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return [pattern[i % len(pattern)] for i in range(n_jobs)]


@dataclass
class ArmResult:
    """One planning arm: its assignments and truth-scored schedule."""

    label: str
    #: job index -> (device name, believed seconds, true seconds).
    assignments: list[tuple[str, float, float]] = field(
        default_factory=list)
    device_busy_s: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        """Truth-scored completion time of the busiest device."""
        return max(self.device_busy_s.values(), default=0.0)

    @property
    def jobs_per_s(self) -> float:
        span = self.makespan_s
        return len(self.assignments) / span if span > 0 else 0.0


@dataclass
class AblationResult:
    """Both arms plus the headline deltas."""

    nominal: ArmResult
    tuned: ArmResult
    n_jobs: int
    pool: tuple[str, ...]

    @property
    def makespan_improvement(self) -> float:
        """Fractional makespan reduction, tuned vs. nominal prices."""
        if self.nominal.makespan_s == 0:
            return 0.0
        return 1.0 - self.tuned.makespan_s / self.nominal.makespan_s

    @property
    def throughput_improvement(self) -> float:
        """Fractional jobs/s gain, tuned vs. nominal prices."""
        if self.nominal.jobs_per_s == 0:
            return 0.0
        return self.tuned.jobs_per_s / self.nominal.jobs_per_s - 1.0

    def as_dict(self) -> dict:
        def arm(a: ArmResult) -> dict:
            return {
                "makespan_s": a.makespan_s,
                "jobs_per_s": a.jobs_per_s,
                "device_busy_s": dict(sorted(a.device_busy_s.items())),
                "jobs_per_device": {
                    d: sum(1 for dev, _, _ in a.assignments if dev == d)
                    for d in sorted(self.pool)
                },
            }

        return {
            "n_jobs": self.n_jobs,
            "pool": list(self.pool),
            "nominal": arm(self.nominal),
            "tuned": arm(self.tuned),
            "makespan_improvement": self.makespan_improvement,
            "throughput_improvement": self.throughput_improvement,
        }


def _greedy_plan(label: str, sizes: list[float], pool: Sequence[str],
                 believe, truth) -> ArmResult:
    """Greedy least-finish-time assignment under ``believe`` prices.

    ``believe(size, device) -> seconds | None`` drives the decisions;
    ``truth`` scores them.  Infeasible devices (None price -- the
    §V-B exclusions) are never chosen; a job no device can hold is a
    planner bug upstream and raises.
    """
    arm = ArmResult(label=label,
                    device_busy_s={d: 0.0 for d in pool})
    for size in sizes:
        best = None
        for device in pool:
            price = believe(size, device)
            if price is None:
                continue
            finish = arm.device_busy_s[device] + price
            if best is None or finish < best[0]:
                best = (finish, device, price)
        if best is None:
            raise ValueError(f"no device in {pool} holds {size} GB")
        _, device, believed = best
        true_s = truth(size, device)
        assert true_s is not None  # truth feasibility == believed
        arm.assignments.append((device, believed, true_s))
        arm.device_busy_s[device] += true_s
    return arm


def run_ablation(
    service: TuningService | None = None,
    *,
    pool: Sequence[str] = DEFAULT_POOL,
    n_jobs: int = 40,
    pattern: Sequence[float] = MIX_PATTERN,
    n_iterations: int = 100,
    include_projected: bool = False,
) -> AblationResult:
    """The tuned-vs-nominal placement A/B on a mixed pool.

    Builds two tuning-aware cost models over the same roster -- one
    whose cache stays empty (nominal prices) and one fed by
    ``service`` (warmed on demand for every pool x size-class cell) --
    plans the default job stream greedily under each, and scores both
    under the tuned prices.
    """
    from repro.gpu.platforms import device_by_name
    from repro.serve.cost import PlacementCostModel
    from repro.tuning.cache import TunedConfigCache

    if service is None:
        service = TuningService()
    sizes = job_stream(n_jobs, pattern)
    devices = {name: device_by_name(name) for name in pool}

    # Warm the service's cache for every cell the pool can see.
    for spec in service.covering_specs(tuple(pool),
                                       tuple(sorted(set(sizes)))):
        service.tune(spec)

    cold = PlacementCostModel(tuned_cache=TunedConfigCache(),
                              n_iterations=n_iterations,
                              include_projected=include_projected)
    warm = PlacementCostModel(tuned_cache=service.cache,
                              n_iterations=n_iterations,
                              include_projected=include_projected)

    def price_with(model):
        def price(size: float, device: str) -> float | None:
            est = model.estimate(size, devices[device])
            return est.seconds if est is not None else None
        return price

    nominal_believe = price_with(cold)
    truth = price_with(warm)

    nominal = _greedy_plan("nominal", sizes, pool,
                           nominal_believe, truth)
    tuned = _greedy_plan("tuned", sizes, pool, truth, truth)
    return AblationResult(nominal=nominal, tuned=tuned,
                          n_jobs=n_jobs, pool=tuple(pool))
