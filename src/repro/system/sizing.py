"""GB <-> dimension accounting for AVU-GSR systems.

The paper parameterizes every experiment by the memory footprint of the
coefficient data (10/30/60 GB problems; 42/306 GB validation datasets).
This module converts between that footprint and concrete
:class:`~repro.system.structure.SystemDims`, and computes the *device*
footprint used by the GPU memory model (coefficients stay resident on
the device for the whole solve, §IV-a).
"""

from __future__ import annotations

import numpy as np

from repro.system.structure import (
    ASTRO_PARAMS_PER_STAR,
    ATT_BLOCK_SIZE,
    ATT_PARAMS_PER_ROW,
    INSTR_PARAMS_PER_ROW,
    SystemDims,
)

#: Stored bytes per observation row: 24 float64 coefficients (192 B),
#: one int64 astrometric index (8 B), one int64 attitude index (8 B),
#: six int32 instrumental columns (24 B) and the float64 known term
#: (8 B).
BYTES_PER_OBSERVATION = (
    8 * (ASTRO_PARAMS_PER_STAR + ATT_PARAMS_PER_ROW + INSTR_PARAMS_PER_ROW + 1)
    + 8  # matrix_index_astro
    + 8  # matrix_index_att
    + 4 * INSTR_PARAMS_PER_ROW  # instr_col
    + 8  # known term
)

#: Default observations per star used by the synthetic generator.  The
#: real mission collects O(10^2-10^3) transits per primary star; the
#: exact ratio only shifts the astrometric column count.
DEFAULT_OBS_PER_STAR = 24

#: Default ratio of observations to attitude degrees of freedom per
#: axis (the attitude spline knots are much sparser than observations).
DEFAULT_OBS_PER_ATT_DOF = 2500

#: Default ratio of observations to instrumental unknowns.
DEFAULT_OBS_PER_INSTR_PARAM = 5000


def dims_from_gb(
    size_gb: float,
    *,
    obs_per_star: int = DEFAULT_OBS_PER_STAR,
    obs_per_att_dof: int = DEFAULT_OBS_PER_ATT_DOF,
    obs_per_instr_param: int = DEFAULT_OBS_PER_INSTR_PARAM,
    n_glob_params: int = 1,
) -> SystemDims:
    """Dimensions of a synthetic system occupying ``size_gb`` gibibytes.

    Mirrors the artifact's runtime ``GB`` argument: the row count is
    chosen so the stored coefficient data (values + compressed indices
    + known terms) totals ``size_gb`` GiB; the unknown sections follow
    the production ratios (astrometric unknowns dominate).
    """
    if size_gb <= 0 or not np.isfinite(size_gb):
        raise ValueError(f"size_gb must be positive and finite, got {size_gb}")
    n_obs = max(1, round(size_gb * 2**30 / BYTES_PER_OBSERVATION))
    n_stars = max(1, n_obs // obs_per_star)
    n_deg_freedom_att = max(ATT_BLOCK_SIZE, n_obs // obs_per_att_dof)
    n_instr_params = max(INSTR_PARAMS_PER_ROW, n_obs // obs_per_instr_param)
    return SystemDims(
        n_stars=n_stars,
        n_obs=n_obs,
        n_deg_freedom_att=n_deg_freedom_att,
        n_instr_params=n_instr_params,
        n_glob_params=n_glob_params,
    )


def system_size_gb(dims: SystemDims) -> float:
    """Stored coefficient-data footprint of ``dims`` in GiB."""
    per_row = BYTES_PER_OBSERVATION - (8 if dims.n_glob_params == 0 else 0)
    return dims.n_obs * per_row / 2**30


def device_footprint_bytes(dims: SystemDims) -> int:
    """Device-resident bytes for one solve on one GPU.

    The coefficient data is copied to the device once before the
    iteration loop and stays there (§IV-a); on top of it the LSQR
    iteration keeps the known-term/mobile ``u`` vector (length m) and
    the ``x``, ``v``, ``w`` unknown-space vectors (length n) resident.
    """
    per_row = BYTES_PER_OBSERVATION - (8 if dims.n_glob_params == 0 else 0)
    matrix = dims.n_obs * per_row
    m_vectors = 1 * 8 * dims.n_obs  # u (known terms are part of per_row)
    n_vectors = 4 * 8 * dims.n_params  # x, v, w, and the variance accumulator
    return matrix + m_vectors + n_vectors


def device_footprint_gb(dims: SystemDims) -> float:
    """Device-resident footprint of one solve in GiB."""
    return device_footprint_bytes(dims) / 2**30


def shard_footprint_bytes(dims: SystemDims, n_ranks: int) -> int:
    """Device-resident bytes of ONE rank of an ``n_ranks`` gang.

    The row-partitioned data (coefficient rows and the ``u`` vector)
    shrinks with the rank count, but the unknown-space vectors
    (``x``, ``v``, ``w``, variance) are replicated on every rank by the
    allreduce design — so R shards together hold *more* than one
    device's footprint.  Worst rank: ``ceil(n_obs / n_ranks)`` rows.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    per_row = BYTES_PER_OBSERVATION - (8 if dims.n_glob_params == 0 else 0)
    rows = -(-dims.n_obs // n_ranks)
    matrix = rows * per_row
    m_vectors = 1 * 8 * rows
    n_vectors = 4 * 8 * dims.n_params
    return matrix + m_vectors + n_vectors


def shard_footprint_gb(dims: SystemDims, n_ranks: int) -> float:
    """Per-rank device footprint of an ``n_ranks`` gang in GiB."""
    return shard_footprint_bytes(dims, n_ranks) / 2**30


def system_from_gb(size_gb: float, *, seed: int = 0, max_gb: float = 0.5,
                   **dim_kwargs):
    """Generate an actual in-memory synthetic system of ``size_gb`` GiB.

    This *allocates* the data, so it guards against accidentally asking
    for a paper-scale problem: raise unless ``size_gb <= max_gb``.
    Modeled (non-allocating) experiments should use
    :func:`dims_from_gb` and the GPU execution model instead.
    """
    if size_gb > max_gb:
        raise ValueError(
            f"refusing to allocate a {size_gb} GiB system "
            f"(max_gb={max_gb}); use dims_from_gb() for modeled runs "
            "or raise max_gb explicitly"
        )
    from repro.system.generator import make_system

    return make_system(dims_from_gb(size_gb, **dim_kwargs), seed=seed)
