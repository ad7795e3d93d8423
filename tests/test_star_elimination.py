"""The star Gram stack (:mod:`repro.core.gram`) and the star
elimination of :mod:`repro.validation.agis`: an exact reference
solution and exact ``diag((A^T A)^-1)`` from one direct pass."""

import numpy as np
import pytest

from repro.core.aprod import column_sq_norms
from repro.core.gram import star_grams
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb
from repro.validation.agis import agis_like_solution


@pytest.fixture(scope="module")
def four_row_star():
    """A noise-free system whose draw left star ``s`` four rows against
    its five unknowns (the seed of ``tests/test_generator.py``)."""
    system = make_system(dims_from_gb(0.001), seed=9028)
    rows = np.bincount(system.star_ids, minlength=system.dims.n_stars)
    (star,) = np.flatnonzero(rows < 5)
    assert rows[star] == 4
    return system, star


@pytest.mark.parametrize("size_gb", [0.002, 0.01])
def test_gram_diagonal_is_bitwise_the_column_norms(size_gb):
    system = make_system(dims_from_gb(size_gb), seed=1)
    grams, under_observed = star_grams(system)
    d = system.dims
    assert grams.shape == (d.n_stars, 5, 5)
    diag = np.einsum("sii->si", grams).reshape(-1)
    assert np.array_equal(diag, column_sq_norms(system)[:d.att_offset])
    assert np.array_equal(grams, grams.transpose(0, 2, 1))
    assert under_observed.size == 0


def test_the_predicate_names_and_counts_the_four_row_star(four_row_star):
    system, star = four_row_star
    under_observed = star_grams(system).under_observed
    assert under_observed.tolist() == [star]
    assert len(under_observed) == 1


@pytest.mark.parametrize("size_gb", [0.002, 0.02])
def test_elimination_recovers_x_true_on_noise_free_systems(size_gb):
    system = make_system(dims_from_gb(size_gb), seed=1)
    x, var = agis_like_solution(system)
    x_true = system.meta["x_true"]
    assert np.max(np.abs(x - x_true)) <= 1e-13 * np.max(np.abs(x_true))
    assert np.all(np.isfinite(var)) and np.all(var > 0)


def test_exact_variances_match_the_dense_inverse():
    system = make_system(dims_from_gb(0.002), seed=1, noise_sigma=1e-9)
    _, var = agis_like_solution(system)
    a = system.to_scipy_csr()
    dense = np.diag(np.linalg.inv((a.T @ a).toarray()))
    assert np.max(np.abs(var - dense) / dense) <= 1e-12


def test_an_under_observed_star_gets_infinite_sigma(four_row_star):
    system, star = four_row_star
    x, var = agis_like_solution(system)
    block = np.zeros(system.dims.n_params, dtype=bool)
    block[5 * star:5 * star + 5] = True
    assert np.all(np.isinf(var[block]))
    assert np.all(np.isfinite(var[~block]))
    x_true = system.meta["x_true"]
    assert (np.max(np.abs(x - x_true)[~block])
            <= 1e-13 * np.max(np.abs(x_true)))
