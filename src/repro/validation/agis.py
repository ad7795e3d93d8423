"""AGIS comparison stage ("De-rotated Solution / AGIS Comparison").

AGIS (the Astrometric Global Iterative Solution) is DPAC's independent
astrometric solution; the AVU-GSR pipeline exists to *verify* it
(AVU = Astrometric Verification Unit), so Fig. 1 ends in a comparison
of the de-rotated GSR solution against AGIS.  Here the independent
solution is computed by a genuinely different algorithm on the same
data -- a direct star elimination, the way AGIS (Lindegren et al.
2012) treats each source -- so the comparison crosses two independent
solvers, as in the real pipeline.

The elimination is one pass over the star Gram stack
(:func:`repro.core.gram.star_grams`): factor each star's 5 x 5 block,
eliminate the stars onto the shared attitude + instrumental + global
section, solve that reduced normal matrix by Cholesky and
back-substitute the stars.  The same factors give the exact
``diag((A^T A)^-1)``, which LSQR's ``var`` only bounds from below
until its Krylov space fills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from repro.core.gram import RANK_RTOL, star_grams
from repro.system.solution import split_solution
from repro.system.sparse import GaiaSystem
from repro.system.structure import ASTRO_PARAMS_PER_STAR

#: Astrometric unknowns per block of the exact-variance product
#: ``(G^-1 C) L^-T`` (a dense 4 096 x n_shared block at a time).
_VAR_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class AgisComparison:
    """Outcome of the GSR-vs-AGIS cross check."""

    rms_diff_astro: float
    max_diff_astro: float
    frac_within_tol: float

    def passed(self, tol: float) -> bool:
        """True when the solutions agree to ``tol`` (radians)."""
        return self.rms_diff_astro < tol and self.frac_within_tol > 0.99


def _eliminate(system: GaiaSystem):
    """``(x, R, K, L, under_observed)`` of the star elimination.

    ``R`` is the block-diagonal whitening factor with ``R^T R`` each
    star's inverse Gram (its pseudo-inverse for an under-observed
    star), ``K = R A_astro^T A_shared`` the whitened cross block and
    ``L`` the Cholesky factor of the reduced normal matrix
    ``A_shared^T A_shared - K^T K``.  The shared section must be
    determined (the attitude null-space constraint rows make it so);
    otherwise that factorization raises ``LinAlgError``.
    """
    d = system.dims
    grams, weak = star_grams(system)
    whiten = np.empty_like(grams)
    full = np.ones(d.n_stars, dtype=bool)
    full[weak] = False
    whiten[full] = np.linalg.inv(np.linalg.cholesky(grams[full]))
    lam, vec = np.linalg.eigh(grams[weak])
    keep = lam > RANK_RTOL * lam[:, -1:]
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    whiten[weak] = inv_sqrt[:, :, None] * vec.transpose(0, 2, 1)
    stars = np.arange(d.n_stars + 1)
    r = sp.bsr_matrix((whiten, stars[:-1], stars),
                      shape=(d.att_offset, d.att_offset))

    a, b = system.to_scipy_csr(), system.rhs()
    a_astro, a_shared = a[:, :d.att_offset], a[:, d.att_offset:]
    k = (r @ (a_astro.T @ a_shared)).tocsr()
    k_b = r @ (a_astro.T @ b)
    reduced = (a_shared.T @ a_shared).toarray() - (k.T @ k).toarray()
    low = la.cholesky(reduced, lower=True)
    x_shared = la.cho_solve((low, True), a_shared.T @ b - k.T @ k_b)
    x_astro = r.T @ (k_b - k @ x_shared)
    return np.concatenate([x_astro, x_shared]), r, k, low, weak


def agis_like_solution(system: GaiaSystem) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares ``x`` and the exact ``diag((A^T A)^-1)``.

    With ``N = [[G, C], [C^T, H]]`` split into stars and the shared
    section and ``S = H - C^T G^-1 C = L L^T``, the shared variances
    are ``diag(S^-1)`` and a star's are ``diag(G^-1)`` plus the squared
    row norms of ``(G^-1 C) L^-T``, formed a row block at a time.  An
    under-observed star's five unknowns are not determined: they get
    the minimum-norm values within the star and variance ``inf``.
    """
    x, r, k, low, weak = _eliminate(system)
    l_inv = la.solve_triangular(low, np.eye(low.shape[0]), lower=True)
    var_shared = np.einsum("ij,ij->j", l_inv, l_inv)
    var_astro = (r.data**2).sum(axis=1).reshape(-1)
    w = (r.T @ k).tocsr()
    for lo in range(0, w.shape[0], _VAR_BLOCK_ROWS):
        v = w[lo:lo + _VAR_BLOCK_ROWS] @ l_inv.T
        var_astro[lo:lo + _VAR_BLOCK_ROWS] += np.einsum("ij,ij->i", v, v)
    var_astro.reshape(-1, ASTRO_PARAMS_PER_STAR)[weak] = np.inf
    return x, np.concatenate([var_astro, var_shared])


def compare_with_agis(
    system: GaiaSystem,
    gsr_solution: np.ndarray,
    *,
    tol_rad: float = 1e-10,
) -> AgisComparison:
    """Cross-check a GSR solution against the star-elimination solution."""
    agis_x = _eliminate(system)[0]
    gsr_astro = split_solution(gsr_solution, system.dims).astrometric
    agis_astro = split_solution(agis_x, system.dims).astrometric
    diff = gsr_astro - agis_astro
    return AgisComparison(
        rms_diff_astro=float(np.sqrt(np.mean(diff**2))),
        max_diff_astro=float(np.max(np.abs(diff))),
        frac_within_tol=float(np.mean(np.abs(diff) < tol_rad)),
    )
