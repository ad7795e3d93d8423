"""Unit tests for standard errors and the comparator solvers."""

import numpy as np
import pytest

from repro.core.aprod import AprodOperator
from repro.core.baseline import textbook_lsqr, scipy_reference
from repro.core.lsqr import lsqr_solve
from repro.core.variance import (
    standard_errors,
    MICROARCSEC_RAD,
    residual_variance,
    to_microarcsec,
)


def test_standard_errors_match_scipy_estimator(noglob_system):
    """Same estimator, same answer: with preconditioning disabled our
    var accumulation is exactly SciPy's ``calc_var``."""
    res = lsqr_solve(noglob_system, atol=1e-13, btol=1e-13,
                     precondition=False)
    se = standard_errors(res)
    _, se_scipy = scipy_reference(noglob_system)
    nz = se_scipy > 0
    assert np.median(np.abs(se[nz] / se_scipy[nz] - 1.0)) < 0.05


def test_standard_errors_track_exact_errors(noglob_system):
    """The truncated-Lanczos var estimate is correlated with (and
    bounded by a small factor of) the exact normal-equations errors."""
    res = lsqr_solve(noglob_system, atol=1e-13, btol=1e-13)
    se = standard_errors(res)
    a = noglob_system.to_scipy_csr().toarray()
    cov_diag = np.diag(np.linalg.inv(a.T @ a))
    r = noglob_system.rhs() - a @ res.x
    s2 = float(r @ r) / (a.shape[0] - a.shape[1])
    exact = np.sqrt(cov_diag * s2)
    assert np.corrcoef(se, exact)[0, 1] > 0.9
    ratio = se / exact
    assert np.all(ratio < 1.0 + 1e-9)  # estimator never overshoots
    assert np.median(ratio) > 0.3


def test_standard_errors_need_var(small_system):
    res = lsqr_solve(small_system, calc_var=False, iter_lim=5,
                     atol=0.0, btol=0.0)
    with pytest.raises(ValueError, match="calc_var"):
        standard_errors(res)


def test_residual_variance_requires_overdetermined(small_system):
    res = lsqr_solve(small_system, iter_lim=3, atol=0.0, btol=0.0)
    res_bad = type(res)(**{**res.__dict__, "m": 5, "n": 10})
    with pytest.raises(ValueError, match="overdetermined"):
        residual_variance(res_bad)


def test_microarcsec_conversion_roundtrip():
    rad = np.array([1.0, 2.0]) * MICROARCSEC_RAD
    assert np.allclose(to_microarcsec(rad), [1.0, 2.0])
    # 1 uas = pi / (180 * 3600e6) rad ~ 4.85e-12 rad.
    assert MICROARCSEC_RAD == pytest.approx(4.8481e-12, rel=1e-4)


def test_textbook_lsqr_solves(small_system):
    op = AprodOperator(small_system)
    out = textbook_lsqr(op, small_system.rhs(), atol=1e-12)
    ref = lsqr_solve(small_system, atol=1e-13, btol=1e-13)
    assert np.allclose(out.x, ref.x, rtol=1e-6, atol=1e-13)
    assert out.itn > 0


def test_textbook_lsqr_zero_rhs(small_system):
    op = AprodOperator(small_system)
    out = textbook_lsqr(op, np.zeros(op.shape[0]))
    assert out.itn == 0 and np.all(out.x == 0)


def test_textbook_lsqr_shape_check(small_system):
    op = AprodOperator(small_system)
    with pytest.raises(ValueError):
        textbook_lsqr(op, np.zeros(3))


def test_scipy_reference_consistency(small_system):
    x, se = scipy_reference(small_system)
    assert x.shape == (small_system.dims.n_params,)
    assert se.shape == x.shape
    assert np.all(se >= 0)
