"""CGLS: the textbook alternative to LSQR on the normal equations.

LSQR is mathematically equivalent to conjugate gradients applied to
``A^T A x = A^T b`` (CGLS) in exact arithmetic, but numerically more
reliable on ill-conditioned systems -- the reason Paige & Saunders
wrote it and the reason the AVU-GSR solver uses it.  This module
implements CGLS as the comparator: same ``aprod`` kernels, same
per-iteration cost (one ``aprod1`` + one ``aprod2``), different
recurrence, so the solver ablation isolates the algorithm choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.engine import Aprod
from repro.core.lsqr import resolve_rhs
from repro.core.precond import prepare
from repro.system.sparse import GaiaSystem


@dataclass
class CGLSResult:
    """Outcome of one CGLS solve."""

    x: np.ndarray
    itn: int
    r2norm: float
    arnorm: float
    converged: bool
    r2norm_history: list[float] = field(default_factory=list)


def cgls_solve(
    system: GaiaSystem | AprodOperator | Aprod,
    b: np.ndarray | None = None,
    *,
    atol: float = 1e-10,
    iter_lim: int | None = None,
    precondition: bool = True,
    shift: float = 0.0,
) -> CGLSResult:
    """Solve ``min ||A x - b||`` with (optionally shifted) CGLS.

    ``shift`` adds Tikhonov regularization ``shift * ||x||^2`` (the
    CGLS analogue of LSQR's ``damp**2``).  Stops when
    ``||A^T r|| <= atol * ||A^T b||`` or at ``iter_lim`` (default
    ``2n``).
    """
    b = resolve_rhs(system, b)
    op, scaling = prepare(system, precondition=precondition)
    if shift < 0 or not np.isfinite(shift):
        raise ValueError(f"shift must be >= 0, got {shift}")

    m, n = op.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if iter_lim is None:
        iter_lim = 2 * n

    x = np.zeros(n)
    r = b.copy()
    s = op.aprod2(r)
    p = s.copy()
    gamma = float(np.dot(s, s))
    gamma0 = gamma
    if gamma0 == 0.0:
        return CGLSResult(x=scaling.to_physical(x), itn=0,
                          r2norm=float(np.linalg.norm(r)),
                          arnorm=0.0, converged=True)

    history: list[float] = []
    itn = 0
    converged = False
    while itn < iter_lim:
        itn += 1
        q = op.aprod1(p)
        delta = float(np.dot(q, q)) + shift * float(np.dot(p, p))
        if delta <= 0:
            break
        alpha = gamma / delta
        x += alpha * p
        r -= alpha * q
        s = op.aprod2(r)
        if shift:
            s -= shift * x
        gamma_new = float(np.dot(s, s))
        history.append(float(np.linalg.norm(r)))
        if np.sqrt(gamma_new) <= atol * np.sqrt(gamma0):
            converged = True
            break
        p *= gamma_new / gamma
        p += s
        gamma = gamma_new

    return CGLSResult(
        x=scaling.to_physical(x),
        itn=itn,
        r2norm=float(np.linalg.norm(r)),
        arnorm=float(np.sqrt(gamma)),
        converged=converged,
        r2norm_history=history,
    )
