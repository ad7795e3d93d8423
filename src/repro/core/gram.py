"""Per-star Gram blocks of the astrometric section.

Every observation row touches the five astrometric unknowns of exactly
one star, so ``A_astro^T A_astro`` is block diagonal: one 5 x 5 Gram
per star, of that star's astrometric coefficients.  AGIS (Lindegren et
al. 2012) builds the same per-source normal blocks, and block-Jacobi
preconditioners build theirs once and apply them many times.

:func:`star_grams` accumulates the stack in row order, one
``np.bincount`` per distinct entry: each diagonal entry is then
bitwise the astrometric squared column norm of
:func:`repro.core.aprod.column_sq_norms` (constraint rows touch only
the attitude section).  It also names the *under-observed* stars,
whose block has rank < 5: a star drawn fewer rows than its five
unknowns (see :func:`repro.system.generator.make_system`) leaves a
direction of them unobserved.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.system.sparse import GaiaSystem
from repro.system.structure import ASTRO_PARAMS_PER_STAR

#: A Gram whose smallest eigenvalue is at most this fraction of its
#: largest has rank < 5: far above the rounding of a Gram of four rows
#: (~1e-16) and far below any full-rank star the generator draws (the
#: smallest ratio seen is 0.013).
RANK_RTOL = 1e-10


class StarGrams(NamedTuple):
    """The Gram stack and the stars whose block has rank < 5."""

    #: ``(n_stars, 5, 5)`` symmetric Gram of each star's coefficients.
    grams: np.ndarray
    #: Sorted ids of the under-observed stars (``len`` counts them).
    under_observed: np.ndarray


def star_grams(system: GaiaSystem) -> StarGrams:
    """Every star's 5 x 5 astrometric Gram, and the under-observed stars.

    Entry ``(p, q)`` of star ``s`` is ``sum a_p * a_q`` over the star's
    rows, added in row order (``np.bincount``; an ``np.add.reduceat``
    over star segments would re-associate).  A star with no rows gets a
    zero Gram and is under-observed.
    """
    n_stars = system.dims.n_stars
    star = system.star_ids
    a = system.astro_values
    grams = np.empty((n_stars, ASTRO_PARAMS_PER_STAR, ASTRO_PARAMS_PER_STAR))
    for p in range(ASTRO_PARAMS_PER_STAR):
        for q in range(p, ASTRO_PARAMS_PER_STAR):
            grams[:, p, q] = grams[:, q, p] = np.bincount(
                star, weights=a[:, p] * a[:, q], minlength=n_stars)
    eig = np.linalg.eigvalsh(grams)
    return StarGrams(grams,
                     np.flatnonzero(eig[:, 0] <= RANK_RTOL * eig[:, -1]))
