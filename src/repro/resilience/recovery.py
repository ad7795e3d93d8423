"""Checkpoint-based recovery and degraded re-decomposition.

The distributed solver's engine states are rank-local (``u`` is
row-distributed), so recovering from a lost rank needs a *global*
snapshot: an :class:`~repro.core.engine.EngineState` whose ``u`` is
gathered from all rank blocks (:func:`~repro.dist.decomposition.
gather_state`) re-shards onto **any** rank count
(:func:`~repro.dist.decomposition.shard_state`) -- which is exactly
what turns "rank 2 died" into "re-decompose onto the three survivors
and continue from iteration 40".  It is the same archive every other
driver writes and resumes.

:class:`ResilientDistributedLSQR` is the recovery driver over the
shared step engine.  Each solve attempt runs the normal SPMD body with
a fault-injecting :class:`~repro.resilience.injection.
ResilientCommReduction`; every iteration passes a corruption screen
(NaN guards plus the :class:`~repro.core.convergence.
NormExplosionGuard` -- LSQR's residual is non-increasing, so growth
betrays poisoned state), and every ``checkpoint_every`` iterations a
validated checkpoint is taken.  Escalated faults then drive the
state machine of ``docs/resilience.md``:

- ``RankDied``      -> re-decompose onto the survivors, resume from
  the last good checkpoint (degraded mode);
- ``CorruptionDetected`` -> roll back to the last good checkpoint on
  the same rank count;
- ``UnrecoverableFault`` or exhausted restart budget -> abort with
  :attr:`~repro.core.engine.StopReason.ABORTED_FAULTS` and the best
  solution recovered so far.

Every transition is counted in telemetry (``resilience.restarts``,
``.rollbacks``, ``.rank_deaths``, ``.checkpoints``) and summarized in
the :class:`ResilienceReport` the solve returns next to its
:class:`~repro.dist.runner.DistributedResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.convergence import NormExplosionGuard
from repro.core.engine import EngineState, StopReason, resume_state
from repro.core.lsqr import IterationCallback
from repro.core.precond import ColumnScaling
from repro.dist.comm import SimComm
from repro.dist.decomposition import partition_by_rows, shard_state
from repro.dist.runner import (
    DistributedLSQR,
    DistributedResult,
    gather_checkpoint,
)
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import (
    CorruptionDetected,
    FaultEvent,
    FaultPlan,
    RankDied,
    UnrecoverableFault,
)
from repro.resilience.injection import ChaosStats, ResilientCommReduction
from repro.resilience.policy import RetryPolicy


@dataclass
class ResilienceReport:
    """What the chaos run did to the solve, and how it recovered."""

    stop: StopReason
    engine_stop: StopReason | None
    events: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    restarts: int = 0
    rollbacks: int = 0
    ranks_lost: list[int] = field(default_factory=list)
    checkpoints_taken: int = 0
    final_ranks: int = 0

    @property
    def degraded(self) -> bool:
        """True when the solve finished on fewer ranks than it began."""
        return bool(self.ranks_lost) and self.stop is not None

    def fault_counts(self) -> dict[str, int]:
        """Injected fault tally by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

    def summary(self) -> str:
        """Multi-line chaos-run digest."""
        lines = [f"stop={self.stop.name}"
                 + (f" (engine: {self.engine_stop.name})"
                    if self.engine_stop is not None
                    and self.engine_stop is not self.stop else "")]
        counts = self.fault_counts()
        lines.append("faults injected: "
                     + (", ".join(f"{k}={v}"
                                  for k, v in sorted(counts.items()))
                        or "none"))
        lines.append(
            f"retries={self.retries} restarts={self.restarts} "
            f"rollbacks={self.rollbacks} "
            f"checkpoints={self.checkpoints_taken}"
        )
        if self.ranks_lost:
            lines.append(f"ranks lost: {self.ranks_lost} "
                         f"(finished on {self.final_ranks})")
        return "\n".join(lines)


class ResilientDistributedLSQR:
    """Chaos-tolerant recovery around a :class:`~repro.dist.runner.
    DistributedLSQR`.

    ``driver`` supplies everything a plain SPMD solve needs (system,
    rank count, preconditioning, rank-local operators, telemetry) and
    the shared rank loop (:meth:`~repro.dist.runner.DistributedLSQR.
    run`), so the fault-free path is byte-identical to
    ``driver.solve()``; this class adds only what is its own: fault
    injection and retry in the reduction backend, the corruption
    screen, validate-before-keep checkpoints, and the restart loop
    that rolls back or re-decomposes onto the survivors.

    Parameters
    ----------
    plan, retry:
        The :class:`~repro.resilience.faults.FaultPlan` to inject and
        the per-epoch :class:`~repro.resilience.policy.RetryPolicy`.
        Defaults inject nothing / retry 3 times.
    checkpoint_every:
        Iterations between validated checkpoints.
    checkpoint_path:
        Optional ``.npz`` destination for each good checkpoint.
    max_restarts:
        Total solve attempts allowed beyond the first (shared by
        rank-death restarts and corruption rollbacks).
    min_ranks, allow_degraded:
        Degradation floor: a death that would leave fewer than
        ``min_ranks`` survivors (or any death when degraded mode is
        disabled) aborts the solve.
    norm_explosion_factor:
        Tolerated residual growth over the running minimum before the
        corruption screen trips (see :class:`~repro.core.convergence.
        NormExplosionGuard`).
    """

    def __init__(self, driver: DistributedLSQR, *,
                 plan: FaultPlan | None = None,
                 retry: RetryPolicy | None = None,
                 checkpoint_every: int = 10,
                 checkpoint_path: str | Path | None = None,
                 max_restarts: int = 3,
                 min_ranks: int = 1,
                 allow_degraded: bool = True,
                 norm_explosion_factor: float = 1.5) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if min_ranks < 1 or min_ranks > driver.n_ranks:
            raise ValueError(
                f"min_ranks must be in [1, {driver.n_ranks}], "
                f"got {min_ranks}"
            )
        self.driver = driver
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.max_restarts = max_restarts
        self.min_ranks = min_ranks
        self.allow_degraded = allow_degraded
        self.norm_explosion_factor = norm_explosion_factor
        self._tel = Telemetry.or_null(driver.telemetry)
        self._last_good: EngineState | None = None
        self._checkpoints_taken = 0

    # ------------------------------------------------------------------
    def solve(self, *, atol: float = 1e-10, btol: float | None = None,
              conlim: float = 1e8, iter_lim: int | None = None,
              callback: IterationCallback | None = None,
              resume_from: str | Path | EngineState | None = None,
              ) -> tuple[DistributedResult, ResilienceReport]:
        """Run the chaos-tolerant SPMD solve.

        ``resume_from`` warm-starts the recovery loop from an
        :class:`~repro.core.engine.EngineState` archive (an instance
        or a ``.npz`` path) any driver wrote: the first attempt shards
        it across the current rank count instead of starting from
        iteration zero.  The archive is rank-count independent, so a
        solve can resume on a different decomposition than the one
        that saved it -- the serving layer's shard-migration path
        relies on exactly this.

        Returns the :class:`~repro.dist.runner.DistributedResult`
        (``stop`` reports the recovery path: ``DEGRADED`` after rank
        loss, ``ABORTED_FAULTS`` when the budget ran out) and the
        :class:`ResilienceReport` with the full fault/retry/recovery
        tally.
        """
        driver = self.driver
        scaling = driver.global_scaling()
        plan = self.plan
        alive = driver.n_ranks
        attempt = 0
        events: list[FaultEvent] = []
        stats = ChaosStats()
        report = ResilienceReport(stop=StopReason.ABORTED_FAULTS,
                                  engine_stop=None,
                                  events=events, final_ranks=alive)
        stopping = dict(atol=atol, btol=btol, conlim=conlim,
                        iter_lim=iter_lim, callback=callback)
        checkpoint: EngineState | None = None
        if resume_from is not None:
            checkpoint = resume_state(resume_from, driver.system.n_rows,
                                      driver.system.dims.n_params)
            self._last_good = checkpoint
            self._tel.counter("resilience.resumes").inc()

        while True:
            try:
                result = self._attempt(alive, checkpoint, plan, attempt,
                                       events, stats, scaling, stopping)
                break
            except RankDied as exc:
                report.ranks_lost.append(exc.rank)
                plan = plan.without_death(exc.rank, exc.itn)
                checkpoint = self._last_good
                self._tel.counter("resilience.rank_deaths").inc()
                attempt += 1
                survivors = alive - 1
                if (not self.allow_degraded
                        or survivors < self.min_ranks
                        or attempt > self.max_restarts):
                    return self._aborted(checkpoint, scaling, alive,
                                         report, stats)
                alive = survivors
                report.restarts += 1
                self._tel.counter("resilience.restarts").inc()
            except CorruptionDetected:
                checkpoint = self._last_good
                self._tel.counter("resilience.rollbacks").inc()
                attempt += 1
                if attempt > self.max_restarts:
                    return self._aborted(checkpoint, scaling, alive,
                                         report, stats)
                report.rollbacks += 1
            except UnrecoverableFault:
                return self._aborted(self._last_good, scaling, alive,
                                     report, stats)

        report.engine_stop = result.stop
        if alive < driver.n_ranks:
            result.stop = StopReason.DEGRADED
        report.stop = result.stop
        report.retries = stats.retries
        report.final_ranks = alive
        report.checkpoints_taken = self._checkpoints_taken
        return result, report

    # ------------------------------------------------------------------
    def _aborted(self, checkpoint: EngineState | None,
                 scaling: ColumnScaling, alive: int,
                 report: ResilienceReport, stats: ChaosStats,
                 ) -> tuple[DistributedResult, ResilienceReport]:
        """Best-effort result when the resilience budget is exhausted."""
        system = self.driver.system
        n = system.dims.n_params
        self._tel.counter("resilience.aborts").inc()
        if checkpoint is not None:
            x, var = scaling.fold_back(checkpoint.x, checkpoint.var)
            itn = checkpoint.itn
            r2norm = checkpoint.r2norm
        else:
            x, itn, r2norm, var = np.zeros(n), 0, float("inf"), None
        report.stop = StopReason.ABORTED_FAULTS
        report.engine_stop = None
        report.retries = stats.retries
        report.final_ranks = alive
        report.checkpoints_taken = self._checkpoints_taken
        return DistributedResult(
            x=x, itn=itn, r2norm=r2norm, n_ranks=alive,
            max_iteration_times=[], stop=StopReason.ABORTED_FAULTS,
            var=var, m=system.n_rows, n=n,
        ), report

    # ------------------------------------------------------------------
    def _take_checkpoint(self, comm: SimComm, state: EngineState) -> None:
        """Gather, validate and keep one checkpoint.

        The gather is collective (every rank participates); only rank
        0 holds the result.  A checkpoint is kept only when the full
        state passes the NaN guard -- a corrupted snapshot would turn
        rollback into replay-of-the-corruption.
        """
        snapshot = gather_checkpoint(comm, state)
        if snapshot is None or snapshot.validate():
            return
        self._last_good = snapshot
        self._checkpoints_taken += 1
        self._tel.counter("resilience.checkpoints").inc()
        if self.checkpoint_path is not None:
            snapshot.save(self.checkpoint_path)

    # ------------------------------------------------------------------
    def _attempt(self, alive: int, checkpoint: EngineState | None,
                 plan: FaultPlan, generation: int,
                 events: list[FaultEvent], stats: ChaosStats,
                 scaling: ColumnScaling, stopping: dict,
                 ) -> DistributedResult:
        """One pass of the shared rank loop on ``alive`` ranks.

        Plugs this driver's own parts into :meth:`~repro.dist.runner.
        DistributedLSQR.run`: the fault-injecting backend, the start
        from ``checkpoint``'s shards, and -- after every step -- the
        corruption screen and the periodic checkpoint.
        """
        blocks = partition_by_rows(self.driver.system, alive)
        shards = (shard_state(checkpoint, blocks)
                  if checkpoint is not None else None)
        guards = [NormExplosionGuard(factor=self.norm_explosion_factor)
                  for _ in blocks]

        def backend(comm: SimComm) -> ResilientCommReduction:
            return ResilientCommReduction(
                comm, plan, self.retry,
                base_itn=shards[comm.rank].itn if shards is not None else 0,
                generation=generation, sink=events, stats=stats,
                telemetry=self.driver.telemetry,
            )

        def start(comm, fresh):
            state = shards[comm.rank] if shards is not None else fresh()
            if state.itn > 0:
                guards[comm.rank].check(state.r2norm)  # seed the minimum
            self._take_checkpoint(comm, state)
            return state

        def after_step(comm, state, final):
            if not final:
                corrupt = (not np.isfinite(state.beta)
                           or not np.isfinite(state.alfa)
                           or guards[comm.rank].check(state.r2norm))
                if comm.allreduce(int(corrupt), op="max"):
                    self._tel.counter("resilience.corruption_detected",
                                      rank=str(comm.rank)).inc()
                    raise CorruptionDetected(
                        f"state validation failed at iteration {state.itn}"
                    )
            if final or state.itn % self.checkpoint_every == 0:
                self._take_checkpoint(comm, state)

        with self._tel.span("resilience.attempt", ranks=str(alive),
                            generation=str(generation)):
            return self.driver.run(blocks, scaling, backend=backend,
                                   start=start, after_step=after_step,
                                   **stopping)
