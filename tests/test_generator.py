"""Unit tests for the synthetic dataset generator."""

import numpy as np
import pytest

from repro.core.aprod import aprod1
from repro.system.generator import make_system, make_system_with_solution
from repro.system.structure import SystemDims


def test_generator_is_deterministic(small_dims):
    a = make_system(small_dims, seed=5)
    b = make_system(small_dims, seed=5)
    assert np.array_equal(a.astro_values, b.astro_values)
    assert np.array_equal(a.known_terms, b.known_terms)
    assert np.array_equal(a.instr_col, b.instr_col)


def test_different_seeds_differ(small_dims):
    a = make_system(small_dims, seed=5)
    b = make_system(small_dims, seed=6)
    assert not np.array_equal(a.known_terms, b.known_terms)


def test_every_star_observed(small_system):
    observed = np.unique(small_system.star_ids)
    assert observed.size == small_system.dims.n_stars


def test_rows_star_sorted_by_default(small_system):
    assert np.all(np.diff(small_system.star_ids) >= 0)


def test_shuffle_rows_breaks_sorting(shuffled_system):
    assert np.any(np.diff(shuffled_system.star_ids) < 0)


def test_known_terms_consistent_with_truth(small_dims):
    system, x_true = make_system_with_solution(small_dims, seed=9,
                                               noise_sigma=0.0)
    b = aprod1(system, x_true)
    assert np.allclose(b[: small_dims.n_obs], system.known_terms,
                       rtol=1e-13, atol=1e-18)


def test_noise_perturbs_known_terms(small_dims):
    clean = make_system(small_dims, seed=9, noise_sigma=0.0)
    noisy = make_system(small_dims, seed=9, noise_sigma=1e-8)
    diff = noisy.known_terms - clean.known_terms
    assert 0 < np.std(diff) < 1e-7


def test_custom_true_solution_is_used(small_dims, rng):
    x = rng.normal(size=small_dims.n_params) * 1e-6
    system = make_system(small_dims, seed=1, x_true=x)
    assert np.array_equal(system.meta["x_true"], x)
    b = aprod1(system, x)[: small_dims.n_obs]
    assert np.allclose(b, system.known_terms)


def test_bad_x_true_shape_rejected(small_dims, rng):
    with pytest.raises(ValueError, match="x_true"):
        make_system(small_dims, x_true=rng.normal(size=3))


def test_negative_noise_rejected(small_dims):
    with pytest.raises(ValueError, match="noise_sigma"):
        make_system(small_dims, noise_sigma=-1.0)


def test_more_ranks_than_stars_guard():
    dims = SystemDims(n_stars=50, n_obs=40, n_deg_freedom_att=8,
                      n_instr_params=10)
    with pytest.raises(ValueError, match="one observation per star"):
        make_system(dims)


def test_without_constraints(small_dims):
    system = make_system(small_dims, with_constraints=False)
    assert system.constraints is None
    assert system.n_rows == small_dims.n_obs


def test_attitude_indices_span_valid_range(small_system):
    d = small_system.dims
    idx = small_system.matrix_index_att
    assert idx.min() >= 0
    assert idx.max() <= d.n_deg_freedom_att - 4
    # The epoch sweep should cover most of the knot range.
    assert idx.max() - idx.min() >= (d.n_deg_freedom_att - 4) // 2


def test_a_star_with_fewer_rows_than_unknowns_is_unobserved():
    """Why some benchmark seeds miss ``x_true`` (``solve_cold`` seed 33):
    the draw guarantees a star one row, and this one got 4 against its
    five unknowns.  The system is rank-deficient: the solve still stops
    on its tolerance, every other unknown is within 50 noise sigmas,
    and the star's error lies along the direction its rows leave
    unobserved (the null vector of its 4 x 5 coefficient block)."""
    from repro.api import SolveRequest, solve
    from repro.system.sizing import dims_from_gb

    noise = 1e-9
    system = make_system(dims_from_gb(0.001), seed=9028, noise_sigma=noise)
    rows = np.bincount(system.star_ids, minlength=system.dims.n_stars)
    (star,) = np.flatnonzero(rows < 5)
    assert rows[star] == 4
    report = solve(SolveRequest(system=system))
    assert report.converged
    error = report.x - system.meta["x_true"]
    block = slice(5 * star, 5 * star + 5)
    beyond = np.flatnonzero(np.abs(error) > 50 * noise)
    assert beyond.size and set(beyond) <= set(range(5 * star, 5 * star + 5))
    null = np.linalg.svd(system.astro_values[system.star_ids == star])[2][-1]
    assert abs(error[block] @ null) > 0.999 * np.linalg.norm(error[block])
