"""Checkpoint/restart for the LSQR iteration.

Production solves at the 10^11-row scale run against batch-queue wall
clocks; the production pipeline checkpoints the solver state between
jobs.  :class:`ResumableLSQR` is the checkpointable driver over the
shared :class:`~repro.core.engine.LSQRStepEngine`: the entire state is
the engine's explicit :class:`~repro.core.engine.EngineState`
(re-exported here as :data:`LSQRState`), serializable mid-solve and
resumable *bit-for-bit* -- the resumed run produces exactly the
iterates the uninterrupted run would have, including the full
Paige & Saunders stopping rules and the ``var`` accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import (
    Aprod,
    EngineState,
    LSQRStepEngine,
    SerialReduction,
)
from repro.core.precond import ColumnScaling, prepare
from repro.system.sparse import GaiaSystem

#: The checkpointable solver state is exactly the engine state.
LSQRState = EngineState


@dataclass
class ResumableLSQR:
    """Checkpointable LSQR over one system.

    A thin driver over the shared step engine: ``step(n)`` advances at
    most ``n`` iterations and returns the state, which :meth:`step` on
    a reloaded state (or a fresh instance built over the same system
    and parameters) continues exactly.  Stopping follows the full
    Paige & Saunders rules; ``btol`` defaults to ``atol``.
    """

    system: GaiaSystem
    atol: float = 1e-10
    btol: float | None = None
    conlim: float = 1e8
    damp: float = 0.0
    precondition: bool = True
    calc_var: bool = True
    _op: Aprod = field(init=False, repr=False)
    _scaling: ColumnScaling = field(init=False, repr=False)
    _engine: LSQRStepEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._op, self._scaling = prepare(
            self.system, precondition=self.precondition)
        self._engine = LSQRStepEngine(
            self._op, backend=SerialReduction(), damp=self.damp,
            atol=self.atol,
            btol=self.atol if self.btol is None else self.btol,
            conlim=self.conlim, calc_var=self.calc_var,
        )

    # ------------------------------------------------------------------
    def start(self) -> LSQRState:
        """Initialize the bidiagonalization."""
        return self._engine.start(self.system.rhs().astype(np.float64))

    def step(self, state: LSQRState, max_steps: int = 1) -> LSQRState:
        """Advance up to ``max_steps`` iterations in place."""
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        for _ in range(max_steps):
            if state.istop is not None:
                break
            self._engine.step(state)
        return state

    def solution(self, state: LSQRState) -> np.ndarray:
        """Physical-units solution of a (possibly partial) state."""
        return self._scaling.to_physical(state.x)

    def run(self, *, iter_lim: int | None = None,
            checkpoint_every: int | None = None,
            checkpoint_path: str | Path | None = None,
            resume_from: str | Path | LSQRState | None = None,
            ) -> LSQRState:
        """Drive to convergence, optionally checkpointing on the way.

        ``resume_from`` continues a prior run instead of starting the
        bidiagonalization fresh: pass a live :data:`LSQRState` or a
        path a previous ``state.save(...)`` wrote.  The continued run
        is bit-for-bit the uninterrupted one -- the preempt/park/
        resume machinery of :mod:`repro.sessions` rests on exactly
        this property (see ``docs/sessions.md``).
        """
        if iter_lim is None:
            iter_lim = 2 * self._op.shape[1]
        if resume_from is None:
            state = self.start()
        elif isinstance(resume_from, LSQRState):
            state = resume_from
        else:
            state = LSQRState.load(resume_from)
        while not state.done and state.itn < iter_lim:
            budget = (checkpoint_every
                      if checkpoint_every is not None
                      else iter_lim - state.itn)
            budget = min(budget, iter_lim - state.itn)
            state = self.step(state, budget)
            if checkpoint_path is not None:
                state.save(checkpoint_path)
        return state
