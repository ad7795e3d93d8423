"""The Solver box of Fig. 1.

A thin adapter over the one public entry point,
:func:`repro.api.solve`, adding the pipeline conveniences the
production module has: an iteration budget per pipeline cycle,
periodic checkpoints of the running solution, optional engine-state
dumps for batch-queue crash recovery, and the iteration-timing record
the performance studies consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import SolveRequest, solve
from repro.core.lsqr import LSQRResult
from repro.core.variance import standard_errors
from repro.obs.telemetry import Telemetry
from repro.system.solution import SolutionSections, split_solution
from repro.system.sparse import GaiaSystem


@dataclass
class SolverOutput:
    """Solution bundle handed to the downstream pipeline stages."""

    result: LSQRResult
    sections: SolutionSections
    se: np.ndarray
    checkpoints: list[tuple[int, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when LSQR stopped on a convergence criterion."""
        return self.result.converged


class SolverModule:
    """Configurable solver stage."""

    def __init__(
        self,
        *,
        atol: float = 1e-8,
        btol: float = 1e-8,
        iter_lim: int | None = None,
        checkpoint_every: int = 25,
        damp: float = 0.0,
        state_checkpoint_path: str | Path | None = None,
    ) -> None:
        # The sphere-reconstruction system is intrinsically
        # ill-conditioned (the attitude/astrometric quasi-degeneracy
        # the constraint equations only partly remove, §III-B), so the
        # pipeline defaults trade the last digits of convergence for a
        # bounded iteration count; tighten atol/btol for studies that
        # need machine-precision solves.
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.atol = atol
        self.btol = btol
        self.iter_lim = iter_lim
        self.checkpoint_every = checkpoint_every
        self.damp = damp
        # Optional engine-state dump: every checkpoint_every iterations
        # the EngineState archive is written here; SolveRequest(
        # resume_from=) over the same system continues it.
        self.state_checkpoint_path = state_checkpoint_path

    def solve(self, system: GaiaSystem,
              x0: np.ndarray | None = None,
              telemetry: Telemetry | None = None) -> SolverOutput:
        """Run the solve, collecting periodic (itn, r2norm) checkpoints.

        ``x0`` warm-starts the iteration (used when chaining pipeline
        cycles); ``telemetry`` is forwarded to
        :func:`~repro.core.lsqr.lsqr_solve` so the per-phase iteration
        spans are recorded.
        """
        checkpoints: list[tuple[int, float]] = []

        def on_iteration(itn: int, _x: np.ndarray, r2norm: float) -> None:
            if itn % self.checkpoint_every == 0:
                checkpoints.append((itn, r2norm))

        iter_lim = self.iter_lim
        if iter_lim is None:
            iter_lim = 6 * system.dims.n_params
        report = solve(SolveRequest(
            system=system,
            atol=self.atol,
            btol=self.btol,
            iter_lim=iter_lim,
            damp=self.damp,
            calc_var=True,
            x0=x0,
            callback=on_iteration,
            telemetry=telemetry,
            checkpoint_every=(self.checkpoint_every
                              if self.state_checkpoint_path is not None
                              else None),
            checkpoint_path=self.state_checkpoint_path,
        ))
        result = report.raw
        assert isinstance(result, LSQRResult)
        return SolverOutput(
            result=result,
            sections=split_solution(result.x, system.dims),
            se=standard_errors(result),
            checkpoints=checkpoints,
        )
