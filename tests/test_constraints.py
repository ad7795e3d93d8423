"""Unit tests for the constraint equations."""

import numpy as np
import pytest

from repro.system.constraints import (
    ConstraintRow,
    ConstraintSet,
    attitude_null_space_constraints,
)


def test_attitude_constraints_one_per_axis(small_dims):
    cs = attitude_null_space_constraints(small_dims)
    assert len(cs) == 3
    labels = [r.label for r in cs]
    assert labels == ["att-null-axis0", "att-null-axis1", "att-null-axis2"]


def test_attitude_constraints_cover_each_axis_exactly(small_dims):
    cs = attitude_null_space_constraints(small_dims)
    dof = small_dims.n_deg_freedom_att
    for axis, row in enumerate(cs):
        start = small_dims.att_offset + axis * dof
        assert np.array_equal(row.cols, np.arange(start, start + dof))
        assert np.allclose(np.sum(row.vals**2), 1.0)  # unit norm


def test_apply_forward_matches_csr(small_dims, rng):
    cs = attitude_null_space_constraints(small_dims)
    x = rng.normal(size=small_dims.n_params)
    direct = cs.apply_forward(x)
    via_csr = cs.to_scipy_csr(small_dims.n_params) @ x
    assert np.allclose(direct, via_csr)


def test_apply_transpose_matches_csr(small_dims, rng):
    cs = attitude_null_space_constraints(small_dims)
    y = rng.normal(size=len(cs))
    out = np.zeros(small_dims.n_params)
    cs.apply_transpose(y, out)
    via_csr = cs.to_scipy_csr(small_dims.n_params).T @ y
    assert np.allclose(out, via_csr)


def test_apply_transpose_shape_check(small_dims):
    cs = attitude_null_space_constraints(small_dims)
    with pytest.raises(ValueError):
        cs.apply_transpose(np.zeros(len(cs) + 1),
                           np.zeros(small_dims.n_params))


def test_constraint_row_validation():
    with pytest.raises(ValueError, match="distinct"):
        ConstraintRow(cols=np.array([1, 1]), vals=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="at least one"):
        ConstraintRow(cols=np.array([], dtype=np.int64),
                      vals=np.array([]))
    with pytest.raises(ValueError, match="finite"):
        ConstraintRow(cols=np.array([0]), vals=np.array([np.inf]))
    with pytest.raises(ValueError, match="matching"):
        ConstraintRow(cols=np.array([0, 1]), vals=np.array([1.0]))


def test_check_bounds(small_dims):
    cs = ConstraintSet()
    cs.add(ConstraintRow(cols=np.array([small_dims.n_params]),
                         vals=np.array([1.0]), label="oob"))
    with pytest.raises(ValueError, match="oob"):
        cs.check_bounds(small_dims.n_params)


def test_weight_must_be_positive(small_dims):
    with pytest.raises(ValueError):
        attitude_null_space_constraints(small_dims, weight=0.0)


def test_constraints_pull_axis_sums_toward_zero(small_dims):
    """The (soft) constraint rows shrink each axis's coefficient sum.

    They are least-squares constraints, not hard ones, so the check is
    comparative: solving WITH the rows yields smaller |sum(axis)| than
    solving WITHOUT them on the same data.
    """
    from repro.core.lsqr import lsqr_solve
    from repro.system.generator import make_system
    from repro.system.generator import draw_true_solution
    from repro.system.solution import split_solution

    rng = np.random.default_rng(77)
    x_true = draw_true_solution(small_dims, rng)
    with_c = make_system(small_dims, seed=77, x_true=x_true,
                         with_constraints=True)
    without = make_system(small_dims, seed=77, x_true=x_true,
                          with_constraints=False)
    res_c = lsqr_solve(with_c, atol=1e-12, btol=1e-12)
    res_n = lsqr_solve(without, atol=1e-12, btol=1e-12)
    sums_c = np.abs(split_solution(res_c.x, small_dims)
                    .attitude_axes().sum(axis=1))
    sums_n = np.abs(split_solution(res_n.x, small_dims)
                    .attitude_axes().sum(axis=1))
    assert sums_c.sum() <= sums_n.sum()
