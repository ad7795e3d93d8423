"""Comparator solvers.

Two baselines anchor the customized solver:

- :func:`textbook_lsqr` -- a minimal, unpreconditioned Paige &
  Saunders iteration (the algorithm as published, before the AVU-GSR
  customizations).  Used by the tests to show what the
  preconditioning buys and by the ablation benchmarks.
- :func:`scipy_reference` -- ``scipy.sparse.linalg.lsqr`` run on the
  expanded CSR matrix.  This plays the role of the "production code"
  reference solution in the validation experiments (§V-C): an
  independent, trusted implementation of the same mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Aprod
from repro.system.sparse import GaiaSystem


@dataclass(frozen=True)
class TextbookResult:
    """Outcome of the textbook LSQR: solution, iterations, residual."""

    x: np.ndarray
    itn: int
    r2norm: float


def textbook_lsqr(
    op: Aprod,
    b: np.ndarray,
    *,
    atol: float = 1e-10,
    iter_lim: int | None = None,
) -> TextbookResult:
    """Plain LSQR: no damping, no preconditioning, no variance.

    Stops when the estimated ``||A^T r|| / (||A|| ||r||)`` drops below
    ``atol`` or after ``iter_lim`` iterations (default ``4 * n``).
    """
    m, n = op.shape
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if iter_lim is None:
        iter_lim = 4 * n

    x = np.zeros(n)
    u = b.copy()
    beta = float(np.linalg.norm(u))
    if beta == 0.0:
        return TextbookResult(x=x, itn=0, r2norm=0.0)
    u /= beta
    v = op.aprod2(u)
    alfa = float(np.linalg.norm(v))
    if alfa == 0.0:
        return TextbookResult(x=x, itn=0, r2norm=beta)
    v /= alfa
    w = v.copy()
    phibar, rhobar = beta, alfa
    anorm = 0.0
    itn = 0
    while itn < iter_lim:
        itn += 1
        u *= -alfa
        op.aprod1(v, out=u)
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
            anorm = float(np.sqrt(anorm**2 + alfa**2 + beta**2))
            v *= -beta
            op.aprod2(u, out=v)
            alfa = float(np.linalg.norm(v))
            if alfa > 0.0:
                v /= alfa
        rho = float(np.hypot(rhobar, beta))
        cs, sn = rhobar / rho, beta / rho
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        x += (phi / rho) * w
        w *= -theta / rho
        w += v
        arnorm = alfa * abs(sn * phi)
        if arnorm <= atol * max(anorm, 1e-300) * max(phibar, 1e-300):
            break
    return TextbookResult(x=x, itn=itn, r2norm=float(phibar))


def scipy_reference(
    system: GaiaSystem,
    *,
    atol: float = 1e-12,
    btol: float = 1e-12,
    iter_lim: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve with SciPy's LSQR on the expanded CSR matrix.

    Returns ``(x, standard_errors)``, computed exactly as the
    production comparison does: SciPy's ``var`` output scaled by the
    residual variance.  Only usable on systems small enough to expand.
    """
    import scipy.sparse.linalg as spla

    a = system.to_scipy_csr()
    b = system.rhs()
    m, n = a.shape
    if iter_lim is None:
        iter_lim = 4 * n
    out = spla.lsqr(a, b, atol=atol, btol=btol, iter_lim=iter_lim,
                    calc_var=True)
    x, r2norm, var = out[0], out[4], out[9]
    dof = m - n
    if dof <= 0:
        raise ValueError(f"system is not overdetermined: m={m}, n={n}")
    se = np.sqrt(np.maximum(var, 0.0) * r2norm**2 / dof)
    return x, se
