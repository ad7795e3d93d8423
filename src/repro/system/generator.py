"""Seeded synthetic AVU-GSR dataset generator.

The real Gaia datasets are covered by a non-disclosure agreement; the
paper's own portability study therefore runs on synthetic data that is
"distributed in the system as the real data" (artifact appendix C):
given a seed and a target size, the solver generates a random system
with the production sparsity structure.  This module is that
generator.

Rows are laid out sorted by star -- the production decomposition hands
each MPI rank a contiguous block of observations of contiguous stars --
with an option to shuffle them to stress the collision-handling paths
of ``aprod2``.
"""

from __future__ import annotations

import numpy as np

from repro.system.constraints import attitude_null_space_constraints
from repro.system.sparse import GaiaSystem
from repro.system.structure import (
    ASTRO_PARAMS_PER_STAR,
    ATT_AXES,
    ATT_BLOCK_SIZE,
    ATT_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    SystemDims,
)


def _star_of_row(
    dims: SystemDims,
    rng: np.random.Generator,
    distribution: str = "uniform",
) -> np.ndarray:
    """Assign every observation row to a star (each star observed >= once).

    Observation counts per star are 1 + multinomially distributed
    leftovers, then rows are emitted star-sorted.  ``distribution``
    selects the per-star probability profile: ``"uniform"`` (the
    balanced default) or ``"powerlaw"`` (a heavy-tailed transit count,
    the realistic skew of the scanning law near the ecliptic poles).

    One row per star is all that is guaranteed, against the star's
    five astrometric unknowns.  A star drawn fewer than five rows makes
    the system rank-deficient: its rows leave a direction of its five
    unknowns unobserved, the solve converges to the minimum-norm
    solution, and ``x_true``'s component along that direction is
    missing from ``x`` (see :func:`make_system`).
    """
    if dims.n_obs < dims.n_stars:
        raise ValueError(
            f"need at least one observation per star: n_obs={dims.n_obs} "
            f"< n_stars={dims.n_stars}"
        )
    if distribution == "uniform":
        probs = np.full(dims.n_stars, 1.0 / dims.n_stars)
    elif distribution == "powerlaw":
        ranks = np.arange(1, dims.n_stars + 1, dtype=np.float64)
        weights = ranks**-0.8
        probs = weights / weights.sum()
    else:
        raise ValueError(
            f"unknown obs distribution {distribution!r}; expected "
            "'uniform' or 'powerlaw'"
        )
    extra = dims.n_obs - dims.n_stars
    counts = np.ones(dims.n_stars, dtype=np.int64)
    if extra:
        counts += rng.multinomial(extra, probs)
    return np.repeat(np.arange(dims.n_stars, dtype=np.int64), counts)


def _sorted_distinct_columns(
    rng: np.random.Generator, n_rows: int, k: int, n_cols: int
) -> np.ndarray:
    """``(n_rows, k)`` strictly increasing random columns in ``[0, n_cols)``.

    Uses the draw-with-replacement-then-offset trick: sample ``k``
    values in ``[0, n_cols - k + 1)``, sort each row, add ``arange(k)``.
    The result is a valid strictly increasing combination for every row
    (distribution is slightly non-uniform, which is irrelevant for a
    synthetic stress dataset).
    """
    if n_cols < k:
        raise ValueError(f"need at least {k} columns, got {n_cols}")
    base = rng.integers(0, n_cols - k + 1, size=(n_rows, k))
    base.sort(axis=1)
    return (base + np.arange(k)).astype(np.int32)


def make_system(
    dims: SystemDims,
    *,
    seed: int | np.random.Generator = 0,
    noise_sigma: float = 0.0,
    shuffle_rows: bool = False,
    with_constraints: bool = True,
    x_true: np.ndarray | None = None,
    obs_distribution: str = "uniform",
) -> GaiaSystem:
    """Generate a synthetic system with the AVU-GSR sparsity structure.

    Parameters
    ----------
    dims:
        Target dimensions.
    seed:
        Seed or ready-made :class:`numpy.random.Generator`.
    noise_sigma:
        Standard deviation of Gaussian noise added to the known terms.
        With the default 0 the system is exactly consistent with the
        generating solution.
    shuffle_rows:
        Randomly permute rows (production data is star-sorted; the
        shuffled layout maximizes scatter collisions in ``aprod2``).
    with_constraints:
        Append the attitude null-space constraint rows.
    x_true:
        Generating solution; drawn at micro-arcsecond scale when not
        given.  The known terms are always ``A @ x_true`` (+ noise), so
        the returned system is a realistic consistent least-squares
        problem; retrieve the truth from ``system.meta["x_true"]``.
    obs_distribution:
        Per-star transit-count profile: ``"uniform"`` or the
        heavy-tailed ``"powerlaw"`` of the real scanning law.

    Under-observed stars: each star gets one guaranteed row plus a
    multinomial share of the rest (:func:`_star_of_row`), so at the
    default 24 rows per star about 1 seed in 750 / 500 / 330 of a
    0.02 / 0.03 / 0.05 GB system (3 000 seeds each) leaves some star
    fewer rows than its five unknowns.  That system is rank-deficient,
    not badly conditioned: LSQR still stops on its tolerance, every
    other unknown is recovered to the noise level, and the star's five
    unknowns miss ``x_true`` along the unobserved direction by up to
    the astrometric scale (1e-6).  Two benchmark systems are such
    draws: ``solve_cold`` seed 33's first system (system seed
    468653640, a star with 4 rows; worst error 2.2e-7, in that star)
    and ``session_chain`` seed 960's first chain (system seed
    1221454928, a star with 3 rows; 69 iterations, worst error 1.16e-6,
    in that star).
    """
    rng = np.random.default_rng(seed) if not isinstance(
        seed, np.random.Generator
    ) else seed
    if noise_sigma < 0 or not np.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")

    m = dims.n_obs
    star = _star_of_row(dims, rng, obs_distribution)
    matrix_index_astro = star * ASTRO_PARAMS_PER_STAR

    # Attitude: the observation epoch sweeps the spline support; model
    # the first touched knot as a smooth function of the row index plus
    # jitter, clipped to the valid range.
    span = dims.n_deg_freedom_att - ATT_BLOCK_SIZE
    epoch = np.linspace(0.0, 1.0, m)
    jitter = rng.normal(scale=0.02, size=m)
    matrix_index_att = np.clip(
        np.round((epoch + jitter) * span), 0, span
    ).astype(np.int64)

    instr_col = _sorted_distinct_columns(
        rng, m, INSTR_PARAMS_PER_ROW, dims.n_instr_params
    )

    # Coefficients: partial derivatives of the observable w.r.t. the
    # unknowns, order unity for astro/attitude, smaller for the
    # instrumental and global sections (as in the real design matrix).
    astro_values = rng.normal(loc=0.0, scale=1.0,
                              size=(m, ASTRO_PARAMS_PER_STAR))
    # Guarantee a well-conditioned astrometric diagonal block.
    astro_values[:, 0] += np.sign(astro_values[:, 0]) + 0.5
    att_values = rng.normal(scale=0.5, size=(m, ATT_PARAMS_PER_ROW))
    instr_values = rng.normal(scale=0.2, size=(m, INSTR_PARAMS_PER_ROW))
    glob_values = rng.normal(scale=0.1, size=(m, dims.n_glob_params))

    if shuffle_rows:
        perm = rng.permutation(m)
        matrix_index_astro = matrix_index_astro[perm]
        matrix_index_att = matrix_index_att[perm]
        instr_col = instr_col[perm]
        astro_values = astro_values[perm]
        att_values = att_values[perm]
        instr_values = instr_values[perm]
        glob_values = glob_values[perm]

    if x_true is None:
        x_true = draw_true_solution(dims, rng)
    elif x_true.shape != (dims.n_params,):
        raise ValueError(
            f"x_true has shape {x_true.shape}, expected ({dims.n_params},)"
        )

    system = GaiaSystem(
        dims=dims,
        astro_values=astro_values,
        matrix_index_astro=matrix_index_astro,
        att_values=att_values,
        matrix_index_att=matrix_index_att,
        instr_values=instr_values,
        instr_col=instr_col,
        glob_values=glob_values,
        known_terms=np.zeros(m),
        constraints=(
            attitude_null_space_constraints(dims) if with_constraints else None
        ),
        meta={
            "generator": "repro.system.generator.make_system",
            "noise_sigma": noise_sigma,
            "shuffle_rows": shuffle_rows,
            "x_true": x_true,
        },
    )

    # Known terms b = A x_true (+ noise); computed with the same kernels
    # the solver uses.
    from repro.core.aprod import aprod1

    b_full = aprod1(system, x_true)
    known = b_full[:m]
    if noise_sigma:
        known = known + rng.normal(scale=noise_sigma, size=m)
    system.known_terms = np.ascontiguousarray(known)
    system.validate()
    return system


def make_observation_block(
    parent: GaiaSystem,
    n_new: int,
    *,
    seed: int | np.random.Generator = 0,
    noise_sigma: float | None = None,
) -> GaiaSystem:
    """Generate a fresh block of observations over ``parent``'s unknowns.

    The incremental-re-solve building block: the Gaia pipeline keeps
    observing between data reductions, so a later reduction solves the
    *same* unknown space with more rows.  This draws ``n_new`` new
    observation rows against the parent's generating solution
    (``parent.meta["x_true"]``) using the same sparsity and
    coefficient recipes as :func:`make_system`, with two deliberate
    differences:

    - stars are sampled uniformly *without* the every-star-observed
      guarantee -- a small batch of new transits covers a subset of
      the sky, not all of it;
    - the observation epochs sample the whole attitude spline support
      uniformly (new data lands anywhere in mission time, not on the
      row-index ramp the base generator uses).

    The block carries no constraint rows (the parent's set is
    re-appended below the merged rows by
    :func:`~repro.system.merge.append_observations`) and its known
    terms are exactly consistent with the parent's truth, plus
    optional noise (default: the parent's own ``noise_sigma``).
    """
    rng = np.random.default_rng(seed) if not isinstance(
        seed, np.random.Generator
    ) else seed
    if n_new < 1:
        raise ValueError(f"n_new must be >= 1, got {n_new}")
    x_true = parent.meta.get("x_true")
    if x_true is None:
        raise ValueError(
            "parent has no meta['x_true']: observation blocks are "
            "drawn against the parent's generating solution"
        )
    if noise_sigma is None:
        noise_sigma = float(parent.meta.get("noise_sigma", 0.0))
    if noise_sigma < 0 or not np.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")

    from dataclasses import replace

    d = parent.dims
    dims = replace(d, n_obs=n_new)
    star = np.sort(rng.integers(0, d.n_stars, size=n_new))
    matrix_index_astro = star * ASTRO_PARAMS_PER_STAR
    span = d.n_deg_freedom_att - ATT_BLOCK_SIZE
    matrix_index_att = np.clip(
        np.round(rng.uniform(0.0, 1.0, size=n_new) * span), 0, span
    ).astype(np.int64)
    instr_col = _sorted_distinct_columns(
        rng, n_new, INSTR_PARAMS_PER_ROW, d.n_instr_params
    )
    astro_values = rng.normal(loc=0.0, scale=1.0,
                              size=(n_new, ASTRO_PARAMS_PER_STAR))
    astro_values[:, 0] += np.sign(astro_values[:, 0]) + 0.5
    att_values = rng.normal(scale=0.5, size=(n_new, ATT_PARAMS_PER_ROW))
    instr_values = rng.normal(scale=0.2,
                              size=(n_new, INSTR_PARAMS_PER_ROW))
    glob_values = rng.normal(scale=0.1, size=(n_new, d.n_glob_params))

    block = GaiaSystem(
        dims=dims,
        astro_values=astro_values,
        matrix_index_astro=matrix_index_astro,
        att_values=att_values,
        matrix_index_att=matrix_index_att,
        instr_values=instr_values,
        instr_col=instr_col,
        glob_values=glob_values,
        known_terms=np.zeros(n_new),
        constraints=None,
        meta={
            "generator": "repro.system.generator.make_observation_block",
            "noise_sigma": noise_sigma,
            "x_true": x_true,
        },
    )

    from repro.core.aprod import aprod1

    known = aprod1(block, x_true)[:n_new]
    if noise_sigma:
        known = known + rng.normal(scale=noise_sigma, size=n_new)
    block.known_terms = np.ascontiguousarray(known)
    block.validate()
    return block


def draw_true_solution(
    dims: SystemDims,
    rng: np.random.Generator,
    *,
    astro_scale: float = 1e-6,
    att_scale: float = 1e-7,
    instr_scale: float = 1e-7,
    glob_scale: float = 1e-5,
) -> np.ndarray:
    """Draw a generating solution at realistic magnitudes.

    Astrometric corrections live at the micro-arcsecond radian scale
    (~1e-6 rad, the axes of Fig. 6); attitude and instrumental
    corrections are an order smaller; the PPN-gamma correction is a
    small dimensionless number.
    """
    x = np.empty(dims.n_params)
    s = dims.section_slices()
    x[s["astrometric"]] = rng.normal(scale=astro_scale,
                                     size=dims.n_astro_params)
    # Draw the attitude with zero mean per axis so the truth satisfies
    # the null-space constraint equations exactly (the constraints fix
    # precisely this gauge freedom, so a consistent truth must sit on
    # the constraint surface).
    att = rng.normal(scale=att_scale,
                     size=(ATT_AXES, dims.n_deg_freedom_att))
    att -= att.mean(axis=1, keepdims=True)
    x[s["attitude"]] = att.ravel()
    x[s["instrumental"]] = rng.normal(scale=instr_scale,
                                      size=dims.n_instr_params)
    if dims.n_glob_params:
        x[s["global"]] = rng.normal(scale=glob_scale,
                                    size=dims.n_glob_params)
    return x


def make_system_with_solution(
    dims: SystemDims, **kwargs
) -> tuple[GaiaSystem, np.ndarray]:
    """Convenience wrapper returning ``(system, x_true)``."""
    system = make_system(dims, **kwargs)
    return system, system.meta["x_true"]
