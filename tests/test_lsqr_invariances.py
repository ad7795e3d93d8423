"""Property-based invariance tests for the solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cgls import cgls_solve
from repro.core.lsqr import lsqr_solve
from repro.system.generator import make_system
from repro.system.structure import SystemDims

_dims = SystemDims(n_stars=8, n_obs=160, n_deg_freedom_att=6,
                   n_instr_params=10, n_glob_params=1)


def _system(seed: int):
    return make_system(_dims, seed=seed, noise_sigma=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16),
       scale=st.floats(1e-3, 1e3))
def test_solution_scales_linearly_with_rhs(seed, scale):
    """LS solutions are linear in b: scaling b scales x."""
    from repro.core.aprod import AprodOperator

    system = _system(seed)
    op = AprodOperator(system)
    b = system.rhs()
    x1 = lsqr_solve(op, b, precondition=False, atol=1e-13,
                    btol=1e-13).x
    x2 = lsqr_solve(op, scale * b, precondition=False, atol=1e-13,
                    btol=1e-13).x
    assert np.allclose(x2, scale * x1, rtol=1e-7,
                       atol=1e-12 * max(scale, 1))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_row_shuffle_leaves_solution_unchanged(seed):
    """The LS solution is invariant under row permutation; only the
    floating-point summation order changes."""
    # Zero noise: the rng stream diverges after the permutation draw,
    # so noisy variants would not share the same data.
    sorted_sys = make_system(_dims, seed=seed, noise_sigma=0.0)
    x_true = sorted_sys.meta["x_true"]
    shuffled = make_system(_dims, seed=seed, noise_sigma=0.0,
                           shuffle_rows=True, x_true=x_true)
    a = lsqr_solve(sorted_sys, atol=1e-13, btol=1e-13)
    b = lsqr_solve(shuffled, atol=1e-13, btol=1e-13)
    # Same data in a different row order converges to the same point.
    assert np.allclose(a.x, b.x, rtol=1e-6, atol=1e-14)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_lsqr_and_cgls_agree(seed):
    system = _system(seed)
    l = lsqr_solve(system, atol=1e-12, btol=1e-12)
    c = cgls_solve(system, atol=1e-12)
    denom = max(np.linalg.norm(l.x), 1e-300)
    assert np.linalg.norm(c.x - l.x) / denom < 1e-7


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), shift_seed=st.integers(0, 2**16))
def test_warm_start_reaches_same_solution(seed, shift_seed):
    system = _system(seed)
    cold = lsqr_solve(system, atol=1e-13, btol=1e-13)
    rng = np.random.default_rng(shift_seed)
    x0 = cold.x + rng.normal(scale=1e-8, size=cold.x.shape)
    warm = lsqr_solve(system, atol=1e-13, btol=1e-13, x0=x0)
    denom = max(np.linalg.norm(cold.x), 1e-300)
    assert np.linalg.norm(warm.x - cold.x) / denom < 1e-7


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), damp=st.floats(0.0, 10.0))
def test_damping_never_grows_the_solution(seed, damp):
    system = _system(seed)
    plain = lsqr_solve(system, atol=1e-12, btol=1e-12)
    damped = lsqr_solve(system, damp=damp, atol=1e-12, btol=1e-12)
    assert (np.linalg.norm(damped.x)
            <= np.linalg.norm(plain.x) * (1 + 1e-9))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_residual_optimality(seed):
    """At the LS optimum, the residual is orthogonal to range(A)."""
    from repro.core.aprod import AprodOperator

    system = _system(seed)
    res = lsqr_solve(system, atol=1e-13, btol=1e-13)
    op = AprodOperator(system)
    r = system.rhs() - op.aprod1(res.x)
    grad = op.aprod2(r)
    col_norms = np.sqrt(op.column_sq_norms())
    rel = np.abs(grad) / np.maximum(col_norms * np.linalg.norm(r),
                                    1e-300)
    assert np.max(rel) < 1e-6
