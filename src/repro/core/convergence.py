"""Convergence instrumentation for the LSQR iteration.

The production solver runs a *fixed* iteration budget per pipeline
cycle and monitors convergence offline; this module provides that
monitoring: a history recorder pluggable as the solver callback,
stagnation and divergence detection, and empirical convergence-rate
estimation.  It also hosts :func:`lsqr_solve_reorthogonalized`, the
full-reorthogonalization LSQR variant used to quantify how much the
loss of Lanczos orthogonality costs on ill-conditioned sphere
reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lsqr import LSQRResult, lsqr_solve
from repro.core.precond import prepare
from repro.system.sparse import GaiaSystem


@dataclass
class ConvergenceHistory:
    """Residual-norm history of one solve (usable as the callback)."""

    iterations: list[int] = field(default_factory=list)
    r2norms: list[float] = field(default_factory=list)

    def __call__(self, itn: int, _x: np.ndarray, r2norm: float) -> None:
        self.iterations.append(itn)
        self.r2norms.append(r2norm)

    def __len__(self) -> int:
        return len(self.iterations)

    @property
    def final_r2norm(self) -> float:
        """Residual norm at the last recorded iteration."""
        if not self.r2norms:
            raise ValueError("no iterations recorded")
        return self.r2norms[-1]

    def is_monotone(self) -> bool:
        """LSQR's residual norm is non-increasing by construction."""
        return all(b <= a + 1e-15 for a, b in zip(self.r2norms,
                                                  self.r2norms[1:]))

    def stagnated(self, *, window: int = 10, rel_tol: float = 1e-6
                  ) -> bool:
        """True when the last ``window`` iterations improved the
        residual by less than ``rel_tol`` relative."""
        if len(self.r2norms) <= window:
            return False
        old = self.r2norms[-window - 1]
        new = self.r2norms[-1]
        if old == 0:
            return True
        return (old - new) / old < rel_tol

    def convergence_rate(self, *, tail: int = 20) -> float:
        """Mean per-iteration geometric reduction factor of the tail.

        Values < 1 mean convergence; ~1 means stagnation.
        """
        r = np.asarray(self.r2norms[-(tail + 1):], dtype=np.float64)
        if r.size < 2:
            raise ValueError("need at least two recorded iterations")
        r = np.maximum(r, 1e-300)
        return float(np.exp(np.mean(np.diff(np.log(r)))))

    def iterations_to(self, target_r2norm: float) -> int | None:
        """First iteration whose residual dropped below the target."""
        for itn, r in zip(self.iterations, self.r2norms):
            if r <= target_r2norm:
                return itn
        return None


@dataclass
class NormExplosionGuard:
    """Detects a residual norm that LSQR cannot legitimately produce.

    LSQR's residual norm is non-increasing by construction, so a
    residual that *grows* beyond floating-point slack over the best
    value seen signals silent state corruption (a flipped bit, a
    poisoned reduction payload), not slow convergence.  The resilience
    layer (:mod:`repro.resilience`) feeds every iteration's ``r2norm``
    through this guard and rolls back to the last good checkpoint when
    it trips.  ``factor`` is the tolerated growth over the running
    minimum (generous: genuine rounding wiggle is orders of magnitude
    smaller).
    """

    factor: float = 1.5
    _best: float = field(default=float("inf"), repr=False)

    def check(self, r2norm: float) -> bool:
        """Record one residual; True when it betrays corruption."""
        if not np.isfinite(r2norm):
            return True
        if r2norm < self._best:
            self._best = r2norm
            return False
        return self._best > 0.0 and r2norm > self.factor * self._best

    def reset(self, r2norm: float | None = None) -> None:
        """Forget history (after a rollback re-seeds the iteration)."""
        self._best = float("inf") if r2norm is None else r2norm


def lsqr_solve_reorthogonalized(
    system: GaiaSystem,
    *,
    atol: float = 1e-10,
    btol: float = 1e-10,
    iter_lim: int | None = None,
    precondition: bool = True,
) -> LSQRResult:
    """LSQR with full reorthogonalization of the right Lanczos vectors.

    Keeps every generated ``v`` and re-projects each new one against
    all predecessors (Gram-Schmidt, twice).  Costs O(itn * n)
    memory and O(itn^2 * n) work -- a diagnostic tool for small
    systems, quantifying how far plain LSQR drifts on ill-conditioned
    sphere reconstructions.
    """
    pre, scaling = prepare(system, precondition=precondition)
    basis: list[np.ndarray] = []

    class ReorthogonalizingOperator:
        """Wraps aprod2 to reorthogonalize its output on the fly."""

        shape = pre.shape

        @staticmethod
        def aprod1(z, out=None):
            return pre.aprod1(z, out=out)

        @staticmethod
        def aprod2(y, out=None):
            v = pre.aprod2(y, out=out)
            # LSQR calls aprod2 either fresh (initialization) or with
            # out = -beta * v_prev; either way the result, before
            # normalization, is the next Lanczos direction.
            # Re-project against every stored basis vector
            # (Gram-Schmidt, applied twice for stability).
            for _ in range(2):
                for q in basis:
                    v -= np.dot(q, v) * q
            norm = float(np.linalg.norm(v))
            if norm > 0:
                basis.append(v / norm)
            return v

    result = lsqr_solve(
        ReorthogonalizingOperator(),  # type: ignore[arg-type]
        system.rhs().astype(np.float64),
        atol=atol, btol=btol, iter_lim=iter_lim,
        precondition=False,  # already folded in above
    )
    # Fold the preconditioner back (the wrapper solved the scaled
    # problem).
    result.x, result.var = scaling.fold_back(result.x, result.var)
    return result


def orthogonality_drift(system: GaiaSystem, n_vectors: int = 30
                        ) -> float:
    """Largest off-diagonal inner product among the first Lanczos ``v``s.

    Runs the plain bidiagonalization and measures how quickly the
    generated right vectors lose mutual orthogonality -- the effect
    reorthogonalization removes.
    """
    pre, _ = prepare(system)
    b = system.rhs().astype(np.float64)
    beta = float(np.linalg.norm(b))
    if beta == 0:
        return 0.0
    u = b / beta
    v = pre.aprod2(u)
    alfa = float(np.linalg.norm(v))
    if alfa == 0:
        return 0.0
    v /= alfa
    vs = [v.copy()]
    for _ in range(n_vectors - 1):
        u = pre.aprod1(v) - alfa * u
        beta = float(np.linalg.norm(u))
        if beta == 0:
            break
        u /= beta
        v = pre.aprod2(u) - beta * v
        alfa = float(np.linalg.norm(v))
        if alfa == 0:
            break
        v /= alfa
        vs.append(v.copy())
    vmat = np.stack(vs)
    gram = vmat @ vmat.T
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))
