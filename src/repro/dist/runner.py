"""Distributed LSQR: the MPI+GPU structure of the production solver.

Each rank owns a row block (its slice of ``u`` and the coefficient
data); the unknown-space vectors ``x``, ``v``, ``w`` are replicated.
One iteration needs exactly two communication epochs, as in the
production code:

- after the local ``aprod1`` update of the rank's ``u`` block: an
  ``allreduce`` of the squared norm to normalize ``u``;
- after the local ``aprod2``: an ``allreduce(sum)`` of the dense
  partial ``A^T u`` vectors.

Everything else is redundantly recomputed on every rank from the
replicated state, so all ranks finish with the same solution.  The
per-iteration wall time is maximized over ranks -- the paper's
measurement rule ("we measured the iteration time maximized among all
MPI processes and averaged among 100 iterations").

The iteration body is *not* re-implemented here: each rank drives the
shared :class:`~repro.core.engine.LSQRStepEngine` with a
:class:`CommReduction` backend that routes the two reductions through
the simulated MPI collectives.  The distributed solve therefore
inherits the serial solver's full Paige & Saunders stopping rules
(reported as :class:`~repro.core.engine.StopReason`), per-iteration
convergence callbacks, and the serial solver's checkpoint archive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.engine import (
    CONVERGED,
    Aprod,
    EngineState,
    LSQRStepEngine,
    StopReason,
    resume_state,
)
from repro.core.lsqr import IterationCallback
from repro.core.precond import ColumnScaling, prepare
from repro.dist.comm import CollectiveBus, SimComm
from repro.dist.decomposition import (
    RankBlock,
    gather_state,
    partition_by_rows,
    shard_state,
    slice_system,
)
from repro.obs.telemetry import Telemetry
from repro.system.sparse import GaiaSystem


class CommReduction:
    """:class:`~repro.core.engine.ReductionBackend` over a communicator.

    Each reduction is one *communication epoch*: the collective plus
    the barrier wait it implies, as the production solver experiences
    it.  Epochs are traced as ``dist.comm_epoch`` spans (labels
    ``rank`` and ``epoch``) and their payloads counted in the
    ``dist.allreduce_bytes`` counter; the timing max-over-ranks is a
    bare collective, exactly like the production measurement loop.
    """

    def __init__(self, comm: SimComm,
                 telemetry: Telemetry | None = None) -> None:
        self.comm = comm
        self._tel = Telemetry.or_null(telemetry)
        self._rank = str(comm.rank)
        self._partial: np.ndarray | None = None

    def _reduced(self, value, *, epoch: str, op_name: str = "sum"):
        nbytes = value.nbytes if isinstance(value, np.ndarray) else 8
        with self._tel.span("dist.comm_epoch", rank=self._rank,
                            epoch=epoch):
            out = self.comm.allreduce(value, op=op_name)
        self._tel.counter("dist.allreduce_bytes",
                          rank=self._rank).inc(nbytes)
        return out

    def norm_sq(self, u_local: np.ndarray, *, epoch: str) -> float:
        """Globally reduced squared norm of the row-distributed ``u``."""
        return float(self._reduced(
            float(np.dot(u_local, u_local)), epoch=epoch))

    def accumulate_atu(self, op: Aprod, u_local: np.ndarray,
                       v: np.ndarray, *, epoch: str) -> None:
        """``v += allreduce(local A^T u)`` -- the dense epoch."""
        if self._partial is None:
            self._partial = np.zeros_like(v)
        else:
            self._partial[:] = 0.0
        op.aprod2(u_local, out=self._partial)
        v += self._reduced(self._partial, epoch=epoch)

    def time_max(self, seconds: float) -> float:
        """The paper's max-over-ranks per-iteration time."""
        return self.comm.allreduce(seconds, op="max")


@dataclass
class DistributedResult:
    """Outcome of a distributed solve."""

    x: np.ndarray
    itn: int
    r2norm: float
    n_ranks: int
    max_iteration_times: list[float]
    stop: StopReason = StopReason.ITERATION_LIMIT
    var: np.ndarray | None = None
    m: int = 0
    n: int = 0

    @property
    def converged(self) -> bool:
        """True when the solve stopped on a convergence test."""
        return self.stop in CONVERGED

    def standard_errors(self) -> np.ndarray:
        """Least-squares standard errors (as in the serial solver)."""
        if self.var is None:
            raise ValueError("solve ran with calc_var=False")
        dof = self.m - self.n
        if dof <= 0:
            raise ValueError("system is not overdetermined")
        s2 = self.r2norm**2 / dof
        return np.sqrt(np.maximum(self.var, 0.0) * s2)

    @property
    def mean_iteration_time(self) -> float:
        """Average of the per-iteration max-over-ranks wall times."""
        if not self.max_iteration_times:
            return 0.0
        return float(np.mean(self.max_iteration_times))


class DistributedLSQR:
    """Driver binding a system to a rank count.

    ``local_operator`` builds one rank's kernel operator from its row
    block; the default compiles the plan, and a port emulation
    (:class:`repro.validation.compare.PortOperator`) or a
    ``functools.partial(AprodOperator, kernel_hook=...)`` fits too.

    With ``telemetry``, each rank thread traces ``dist.iteration``
    spans containing exactly the two per-iteration ``dist.comm_epoch``
    spans of the production communication pattern (``epoch=normalize``
    and ``epoch=aprod2``; the pre-loop collectives are labeled
    ``epoch=init``), and counts its ``dist.allreduce_bytes`` payloads.
    """

    def __init__(self, system: GaiaSystem, n_ranks: int,
                 *, precondition: bool = True,
                 calc_var: bool = True,
                 local_operator: Callable[[GaiaSystem], AprodOperator]
                 = AprodOperator,
                 telemetry: Telemetry | None = None) -> None:
        self.system = system
        self.n_ranks = n_ranks
        self.precondition = precondition
        self.calc_var = calc_var
        self.local_operator = local_operator
        self.telemetry = telemetry
        self.blocks = partition_by_rows(system, n_ranks)

    def global_scaling(self) -> ColumnScaling:
        """The preconditioner: global state (column norms sum over all
        rows) computed once and broadcast, like the production
        initialization step."""
        if self.precondition:
            return ColumnScaling.from_system(self.system)
        return ColumnScaling.identity(self.system.dims.n_params)

    def _backend(self, comm: SimComm) -> CommReduction:
        """One rank's reduction backend (``dist/profile.py`` swaps it)."""
        return CommReduction(comm, telemetry=self.telemetry)

    def solve(self, *, atol: float = 1e-10, btol: float | None = None,
              conlim: float = 1e8, iter_lim: int | None = None,
              callback: IterationCallback | None = None,
              checkpoint_every: int | None = None,
              checkpoint_path: str | Path | None = None,
              resume_from: str | Path | EngineState | None = None,
              ) -> DistributedResult:
        """Run the SPMD solve; all ranks converge to the same x.

        ``btol`` defaults to ``atol``.  ``callback`` is invoked on
        rank 0 after every iteration with ``(itn, x_physical,
        r2norm)`` -- the same convergence-tracing hook as the serial
        solver.  With ``checkpoint_every``/``checkpoint_path`` rank 0
        periodically (and at the end) writes one
        :class:`~repro.core.engine.EngineState` archive holding the
        gathered global ``u``; ``resume_from`` continues such an
        archive -- written by any driver on any rank count -- over
        the same system.
        """
        shards = None
        if resume_from is not None:
            shards = shard_state(
                resume_state(resume_from, self.system.n_rows,
                             self.system.dims.n_params), self.blocks)
        saved_itn: list[int | None] = [None] * self.n_ranks

        def start(comm, fresh):
            return fresh() if shards is None else shards[comm.rank]

        def after_step(comm, state, final):
            if (checkpoint_path is None or checkpoint_every is None
                    or saved_itn[comm.rank] == state.itn
                    or not (final or state.itn % checkpoint_every == 0)):
                return
            saved_itn[comm.rank] = state.itn
            snapshot = gather_checkpoint(comm, state)
            if snapshot is not None:
                snapshot.save(checkpoint_path)

        return self.run(
            self.blocks, self.global_scaling(), backend=self._backend,
            start=start, after_step=after_step, atol=atol, btol=btol,
            conlim=conlim, iter_lim=iter_lim, callback=callback,
        )

    def run(self, blocks: list[RankBlock], scaling: ColumnScaling, *,
            backend: Callable[[SimComm], CommReduction],
            start: Callable[[SimComm, Callable[[], EngineState]],
                            EngineState],
            after_step: Callable[[SimComm, EngineState, bool], None],
            atol: float, btol: float | None, conlim: float,
            iter_lim: int | None,
            callback: IterationCallback | None) -> DistributedResult:
        """One SPMD attempt: the rank loop every SPMD solve shares.

        The plain and the recovery driver differ only in what they
        plug in: each rank's reduction ``backend``; its ``start(comm,
        fresh)`` state (``fresh()`` begins the bidiagonalization from
        the rank's right-hand side); and ``after_step(comm, state,
        final)``, run after every iteration before the callback and
        once more, ``final=True``, after the loop (checkpoint dumps
        here; the corruption screen and validated checkpoints there).
        """
        if btol is None:
            btol = atol
        if iter_lim is None:
            iter_lim = 2 * self.system.dims.n_params

        def rank_body(comm: SimComm) -> DistributedResult:
            local_op = self.local_operator(
                slice_system(self.system, blocks[comm.rank]))
            op, _ = prepare(local_op, scaling=scaling)
            reduction = backend(comm)
            engine = LSQRStepEngine(
                op, backend=reduction, atol=atol, btol=btol,
                conlim=conlim, calc_var=self.calc_var,
                telemetry=self.telemetry, span_prefix="dist",
                span_labels={"rank": str(comm.rank)}, phase_spans=False,
            )
            state = start(comm, lambda: engine.start(
                local_op.system.rhs().astype(np.float64)))
            times: list[float] = []
            while state.istop is None and state.itn < iter_lim:
                t0 = time.perf_counter()
                engine.step(state)
                times.append(reduction.time_max(time.perf_counter() - t0))
                after_step(comm, state, False)
                if callback is not None and comm.rank == 0:
                    callback(state.itn, scaling.to_physical(state.x),
                             state.r2norm)
            after_step(comm, state, True)
            x, var = scaling.fold_back(state.x, state.var)
            return DistributedResult(
                x=x, itn=state.itn, r2norm=state.r2norm,
                n_ranks=len(blocks), max_iteration_times=times,
                stop=(state.istop if state.istop is not None
                      else StopReason.ITERATION_LIMIT),
                var=var, m=self.system.n_rows,
                n=self.system.dims.n_params,
            )

        results = CollectiveBus(len(blocks)).run(rank_body)
        for other in results[1:]:
            if not np.array_equal(results[0].x, other.x):
                raise AssertionError(
                    "ranks diverged: replicated state must be identical"
                )
        return results[0]


def gather_checkpoint(comm: SimComm,
                      state: EngineState) -> EngineState | None:
    """Collective: the global-``u`` state on rank 0, None elsewhere."""
    u_blocks = comm.allgather(state.u)
    if comm.rank != 0:
        return None
    return gather_state(state, u_blocks)


def distributed_lsqr_solve(
    system: GaiaSystem,
    n_ranks: int,
    *,
    precondition: bool = True,
    calc_var: bool = True,
    atol: float = 1e-10,
    btol: float | None = None,
    iter_lim: int | None = None,
    telemetry: Telemetry | None = None,
    callback: IterationCallback | None = None,
) -> DistributedResult:
    """Convenience wrapper around :class:`DistributedLSQR`."""
    return DistributedLSQR(
        system, n_ranks, precondition=precondition, calc_var=calc_var,
        telemetry=telemetry,
    ).solve(atol=atol, btol=btol, iter_lim=iter_lim, callback=callback)
