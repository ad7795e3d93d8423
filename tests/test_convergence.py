"""Tests for the convergence instrumentation and reorthogonalization."""

import numpy as np
import pytest

from repro.core import lsqr_solve
from repro.core.convergence import (
    ConvergenceHistory,
    lsqr_solve_reorthogonalized,
    orthogonality_drift,
)


@pytest.fixture()
def history(small_system):
    hist = ConvergenceHistory()
    lsqr_solve(small_system, atol=1e-12, btol=1e-12, callback=hist)
    return hist


def test_history_records_every_iteration(history, small_system):
    res = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    assert len(history) == res.itn
    assert history.iterations == list(range(1, res.itn + 1))


def test_residuals_monotone(history):
    assert history.is_monotone()
    assert history.final_r2norm <= history.r2norms[0]


def test_convergence_rate_below_one_early(small_system):
    hist = ConvergenceHistory()
    lsqr_solve(small_system, iter_lim=15, atol=0.0, btol=0.0,
               callback=hist)
    assert hist.convergence_rate(tail=14) < 1.0


def test_stagnation_detection(history):
    # Fully converged run: the tail has stagnated by definition.
    assert history.stagnated(window=5, rel_tol=1e-3)
    # A fresh 3-iteration run has not.
    short = ConvergenceHistory()
    assert not short.stagnated()


def test_iterations_to_threshold(history):
    target = history.r2norms[len(history.r2norms) // 2]
    itn = history.iterations_to(target)
    assert itn is not None
    assert itn <= history.iterations[-1]
    assert history.iterations_to(0.0) is None or (
        history.final_r2norm == 0.0
    )


def test_empty_history_guards():
    hist = ConvergenceHistory()
    with pytest.raises(ValueError):
        _ = hist.final_r2norm
    with pytest.raises(ValueError):
        hist.convergence_rate()


def test_reorthogonalized_matches_plain_on_well_conditioned(small_system):
    plain = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    reo = lsqr_solve_reorthogonalized(small_system, atol=1e-12,
                                      btol=1e-12)
    rel = np.linalg.norm(reo.x - plain.x) / np.linalg.norm(plain.x)
    assert rel < 1e-8
    # Without orthogonality loss the iteration counts agree closely.
    assert abs(reo.itn - plain.itn) <= 3


def test_orthogonality_drift_small_on_well_conditioned(small_system):
    drift = orthogonality_drift(small_system, n_vectors=25)
    assert drift < 1e-8
