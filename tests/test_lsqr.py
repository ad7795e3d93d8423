"""Unit tests for the customized LSQR solver."""

import numpy as np
import pytest

from repro.core.aprod import AprodOperator
from repro.core.engine import StopReason
from repro.core.lsqr import lsqr_solve


def test_matches_scipy_reference(small_system):
    from repro.core.baseline import scipy_reference

    res = lsqr_solve(small_system, atol=1e-13, btol=1e-13)
    x_ref, _ = scipy_reference(small_system)
    assert np.linalg.norm(res.x - x_ref) < 1e-10 * np.linalg.norm(x_ref)


def test_recovers_generating_solution(small_dims):
    from repro.system.generator import make_system_with_solution

    system, x_true = make_system_with_solution(small_dims, seed=4,
                                               noise_sigma=0.0)
    res = lsqr_solve(system, atol=1e-13, btol=1e-13)
    assert res.converged
    rel = np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true)
    assert rel < 1e-9


def test_preconditioning_speeds_convergence(small_system):
    tight = dict(atol=1e-12, btol=1e-12, iter_lim=5000)
    pre = lsqr_solve(small_system, precondition=True, **tight)
    raw = lsqr_solve(small_system, precondition=False, **tight)
    assert pre.converged
    # Equilibrated columns converge in (at most) as many iterations.
    assert pre.itn <= raw.itn
    assert np.allclose(pre.x, raw.x, rtol=1e-6, atol=1e-14)


def test_zero_rhs_returns_zero(small_system):
    op = AprodOperator(small_system)
    res = lsqr_solve(op, np.zeros(op.shape[0]), precondition=False)
    assert res.istop is StopReason.X_ZERO
    assert np.all(res.x == 0)
    assert res.itn == 0


def test_iteration_limit_reported(small_system):
    res = lsqr_solve(small_system, iter_lim=2, atol=0.0, btol=0.0,
                     conlim=0.0)
    assert res.istop is StopReason.ITERATION_LIMIT
    assert res.itn == 2
    assert not res.converged


def test_damping_shrinks_solution(small_system):
    plain = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    damped = lsqr_solve(small_system, damp=1e3, atol=1e-12, btol=1e-12)
    assert np.linalg.norm(damped.x) < np.linalg.norm(plain.x)


def test_damped_matches_scipy(small_system):
    import scipy.sparse.linalg as spla

    damp = 0.5
    res = lsqr_solve(small_system, damp=damp, atol=1e-13, btol=1e-13,
                     precondition=False)
    ref = spla.lsqr(small_system.to_scipy_csr(), small_system.rhs(),
                    damp=damp, atol=1e-13, btol=1e-13,
                    iter_lim=10_000)[0]
    assert np.allclose(res.x, ref, rtol=1e-7, atol=1e-14)


def test_callback_receives_physical_solution(small_system):
    calls = []
    lsqr_solve(small_system, iter_lim=5, atol=0.0, btol=0.0,
               callback=lambda itn, x, r: calls.append((itn, x.copy(), r)))
    assert [c[0] for c in calls] == [1, 2, 3, 4, 5]
    assert all(c[1].shape == (small_system.dims.n_params,) for c in calls)
    # Residual norm decreases monotonically in LSQR.
    r2 = [c[2] for c in calls]
    assert all(b <= a + 1e-15 for a, b in zip(r2, r2[1:]))


def test_iteration_times_recorded(small_system):
    res = lsqr_solve(small_system, iter_lim=7, atol=0.0, btol=0.0)
    assert len(res.iteration_times) == 7
    assert res.mean_iteration_time > 0


def test_injectable_clock(small_system):
    ticks = iter(range(10_000))
    res = lsqr_solve(small_system, iter_lim=4, atol=0.0, btol=0.0,
                     clock=lambda: float(next(ticks)))
    assert res.iteration_times == [1.0, 1.0, 1.0, 1.0]


def test_input_validation(small_system):
    op = AprodOperator(small_system)
    with pytest.raises(ValueError, match="right-hand side"):
        lsqr_solve(op.as_linear_operator())  # raw: no system to ask
    with pytest.raises(ValueError, match="taken from the GaiaSystem"):
        lsqr_solve(small_system, np.zeros(3))
    with pytest.raises(ValueError, match="damp"):
        lsqr_solve(small_system, damp=-1.0)
    with pytest.raises(ValueError, match="iter_lim"):
        lsqr_solve(small_system, iter_lim=0)
    with pytest.raises(ValueError, match="non-finite"):
        lsqr_solve(op, np.full(op.shape[0], np.nan), precondition=False)
    with pytest.raises(ValueError, match="shape"):
        lsqr_solve(op, np.zeros(op.shape[0] + 1), precondition=False)


def test_precondition_requires_aprod_operator(small_system):
    class Opaque:
        shape = AprodOperator(small_system).shape

        def aprod1(self, x, out=None):  # pragma: no cover
            raise NotImplementedError

        def aprod2(self, y, out=None):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError, match="column norms"):
        lsqr_solve(Opaque(), np.ones(Opaque.shape[0]), precondition=True)


def test_norm_estimates_are_sane(small_system):
    res = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    a = small_system.to_scipy_csr()
    true_r = small_system.rhs() - a @ res.x
    assert res.r2norm == pytest.approx(np.linalg.norm(true_r),
                                       rel=1e-6, abs=1e-12)
    assert res.xnorm == pytest.approx(np.linalg.norm(res.x), rel=1e-9)
    assert res.anorm > 0 and res.acond > 1
