"""Checkpoint-based recovery and degraded re-decomposition.

The distributed solver's engine states are rank-local (``u`` is
row-distributed), so recovering from a lost rank needs a *global*
snapshot: :class:`GlobalCheckpoint` reassembles the row-distributed
``u`` from all rank blocks next to the replicated vectors and the
Paige & Saunders scalars, and can re-shard itself onto **any** rank
count -- which is exactly what turns "rank 2 died" into "re-decompose
onto the three survivors and continue from iteration 40".

:class:`ResilientDistributedLSQR` is the recovery driver over the
shared step engine.  Each solve attempt runs the normal SPMD body with
a fault-injecting :class:`~repro.resilience.injection.
ResilientCommReduction`; every iteration passes a corruption screen
(NaN guards plus the :class:`~repro.core.convergence.
NormExplosionGuard` -- LSQR's residual is non-increasing, so growth
betrays poisoned state), and every ``checkpoint_every`` iterations a
validated global checkpoint is taken.  Escalated faults then drive the
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
from repro.core.engine import EngineState, StopReason
from repro.core.lsqr import IterationCallback
from repro.core.precond import ColumnScaling
from repro.dist.comm import SimComm
from repro.dist.decomposition import RankBlock, partition_by_rows
from repro.dist.runner import (
    DistributedLSQR,
    DistributedResult,
    rank_state_path,
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
class GlobalCheckpoint:
    """A rank-count-independent snapshot of the distributed solve.

    ``u_obs`` holds the row-space vector over the global star-sorted
    observation order; ``u_con`` is the constraint-row tail (owned by
    the last rank).  ``x``/``v``/``w`` and the scalars are replicated
    state (identical on every rank, preconditioned units), so rank 0's
    copies represent all ranks.  :meth:`shard` cuts the snapshot for
    an arbitrary decomposition -- the enabler of degraded restarts.
    """

    itn: int
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    u_obs: np.ndarray
    u_con: np.ndarray
    scalars: dict[str, float]
    var: np.ndarray | None = None

    #: Archive members :meth:`load` requires (``var`` is optional).
    _MEMBERS = frozenset(
        {"itn", "x", "v", "w", "u_obs", "u_con", "scalars"})

    @classmethod
    def assemble(cls, state: EngineState, u_blocks: list[np.ndarray],
                 blocks: list[RankBlock]) -> "GlobalCheckpoint":
        """Build the snapshot from one rank's replicated state plus the
        gathered per-rank ``u`` blocks."""
        obs_parts: list[np.ndarray] = []
        u_con = np.empty(0)
        for u_block, block in zip(u_blocks, blocks):
            obs_parts.append(u_block[:block.n_rows])
            if block.owns_constraints:
                u_con = u_block[block.n_rows:].copy()
        return cls(
            itn=state.itn,
            x=state.x.copy(), v=state.v.copy(), w=state.w.copy(),
            u_obs=np.concatenate(obs_parts), u_con=u_con,
            scalars={f: float(getattr(state, f))
                     for f in EngineState._SCALARS},
            var=None if state.var is None else state.var.copy(),
        )

    def shard(self, blocks: list[RankBlock]) -> list[EngineState]:
        """Per-rank engine states for a (possibly new) decomposition."""
        if blocks[-1].row_stop != self.u_obs.size:
            raise ValueError(
                f"decomposition covers {blocks[-1].row_stop} rows, "
                f"checkpoint holds {self.u_obs.size}"
            )
        states = []
        for block in blocks:
            u = self.u_obs[block.row_start:block.row_stop].copy()
            if block.owns_constraints and self.u_con.size:
                u = np.concatenate([u, self.u_con])
            states.append(EngineState(
                itn=self.itn, x=self.x.copy(), u=u, v=self.v.copy(),
                w=self.w.copy(),
                var=None if self.var is None else self.var.copy(),
                istop=None, **self.scalars,
            ))
        return states

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Serialize to ``.npz`` (batch-queue crash recovery)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        arrays = dict(
            itn=self.itn, x=self.x, v=self.v, w=self.w,
            u_obs=self.u_obs, u_con=self.u_con,
            scalars=np.array([self.scalars[f]
                              for f in EngineState._SCALARS]),
        )
        if self.var is not None:
            arrays["var"] = self.var
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "GlobalCheckpoint":
        """Reload a snapshot written by :meth:`save`.

        ``path`` comes from outside the program (``resume_from``), so
        the archive's members are checked before any is read: the two
        other checkpoint formats the solvers write are named in the
        error, with the reader that resumes them.
        """
        path = Path(path)
        ranked = rank_state_path(path, 0)
        if not path.exists() and ranked.exists():
            raise ValueError(
                f"{path} is not a GlobalCheckpoint: found the per-rank "
                f"EngineState set ({ranked.name}, ...) of a plain "
                f"ranks>1 solve, which DistributedLSQR.solve("
                f"resume_from=) reads on the same rank count"
            )
        with np.load(path) as zf:
            missing = cls._MEMBERS - set(zf.files)
            if missing:
                found = ("a serial EngineState dump, which "
                         "ResumableLSQR.run(resume_from=) reads"
                         if "u" in zf.files else
                         "neither that nor an EngineState dump "
                         f"(members {sorted(zf.files)})")
                raise ValueError(
                    f"{path} is not a GlobalCheckpoint (no "
                    f"{sorted(missing)}): found {found}"
                )
            return cls(
                itn=int(zf["itn"]), x=zf["x"].copy(), v=zf["v"].copy(),
                w=zf["w"].copy(), u_obs=zf["u_obs"].copy(),
                u_con=zf["u_con"].copy(),
                scalars=dict(zip(EngineState._SCALARS,
                                 (float(s) for s in zf["scalars"]))),
                var=zf["var"].copy() if "var" in zf else None,
            )


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
    screen, validated global checkpoints, and the restart loop that
    rolls back or re-decomposes onto the survivors.

    Parameters
    ----------
    plan, retry:
        The :class:`~repro.resilience.faults.FaultPlan` to inject and
        the per-epoch :class:`~repro.resilience.policy.RetryPolicy`.
        Defaults inject nothing / retry 3 times.
    checkpoint_every:
        Iterations between validated global checkpoints.
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
        self._last_good: GlobalCheckpoint | None = None
        self._checkpoints_taken = 0

    # ------------------------------------------------------------------
    def solve(self, *, atol: float = 1e-10, btol: float | None = None,
              conlim: float = 1e8, iter_lim: int | None = None,
              callback: IterationCallback | None = None,
              resume_from: "GlobalCheckpoint | str | Path | None" = None,
              ) -> tuple[DistributedResult, ResilienceReport]:
        """Run the chaos-tolerant SPMD solve.

        ``resume_from`` warm-starts the recovery loop from a previously
        saved :class:`GlobalCheckpoint` (an instance or a ``.npz``
        path): the first attempt shards that snapshot across the
        current rank count instead of starting from iteration zero.  A
        global checkpoint is rank-count independent, so a solve can
        resume on a different decomposition than the one that saved it
        -- the serving layer's shard-migration path relies on exactly
        this.

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
        checkpoint: GlobalCheckpoint | None = None
        if resume_from is not None:
            checkpoint = (resume_from
                          if isinstance(resume_from, GlobalCheckpoint)
                          else GlobalCheckpoint.load(resume_from))
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
    def _aborted(self, checkpoint: GlobalCheckpoint | None,
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
            r2norm = checkpoint.scalars["r2norm"]
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
    def _take_checkpoint(self, comm: SimComm, state: EngineState,
                         blocks: list[RankBlock]) -> None:
        """Gather, validate and store one global checkpoint.

        The allgather is collective (every rank participates); only
        rank 0 assembles.  A checkpoint is stored only when the full
        state passes the NaN guard -- a corrupted snapshot would turn
        rollback into replay-of-the-corruption.
        """
        u_blocks = comm.allgather(state.u)
        if comm.rank != 0:
            return
        if state.validate():
            return
        if any(not np.all(np.isfinite(ub)) for ub in u_blocks):
            return
        self._last_good = GlobalCheckpoint.assemble(state, u_blocks,
                                                    blocks)
        self._checkpoints_taken += 1
        self._tel.counter("resilience.checkpoints").inc()
        if self.checkpoint_path is not None:
            self._last_good.save(self.checkpoint_path)

    # ------------------------------------------------------------------
    def _attempt(self, alive: int, checkpoint: GlobalCheckpoint | None,
                 plan: FaultPlan, generation: int,
                 events: list[FaultEvent], stats: ChaosStats,
                 scaling: ColumnScaling, stopping: dict,
                 ) -> DistributedResult:
        """One pass of the shared rank loop on ``alive`` ranks.

        Plugs this driver's own parts into :meth:`~repro.dist.runner.
        DistributedLSQR.run`: the fault-injecting backend, the start
        from ``checkpoint``'s shards, and -- after every step -- the
        corruption screen and the periodic global checkpoint.
        """
        blocks = partition_by_rows(self.driver.system, alive)
        shards = checkpoint.shard(blocks) if checkpoint is not None else None
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
            self._take_checkpoint(comm, state, blocks)
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
                self._take_checkpoint(comm, state, blocks)

        with self._tel.span("resilience.attempt", ranks=str(alive),
                            generation=str(generation)):
            return self.driver.run(blocks, scaling, backend=backend,
                                   start=start, after_step=after_step,
                                   **stopping)
