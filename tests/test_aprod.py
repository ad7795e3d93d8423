"""Unit tests for the aprod dispatch layer."""

from functools import partial

import numpy as np
import pytest

from repro.core.aprod import AprodOperator, aprod1, aprod2
from repro.validation.compare import PortOperator


@pytest.fixture(scope="module")
def csr_pair(request):
    return None


def _csr(system):
    return system.to_scipy_csr()


def test_aprod1_matches_csr(small_system, rng):
    a = _csr(small_system)
    x = rng.normal(size=small_system.dims.n_params)
    assert np.allclose(aprod1(small_system, x), a @ x, rtol=1e-12)


def test_aprod2_matches_csr(small_system, rng):
    a = _csr(small_system)
    y = rng.normal(size=small_system.n_rows)
    assert np.allclose(aprod2(small_system, y), a.T @ y, rtol=1e-12)


def test_aprod_matches_csr_without_global(noglob_system, rng):
    a = _csr(noglob_system)
    x = rng.normal(size=noglob_system.dims.n_params)
    y = rng.normal(size=noglob_system.n_rows)
    assert np.allclose(aprod1(noglob_system, x), a @ x, rtol=1e-12)
    assert np.allclose(aprod2(noglob_system, y), a.T @ y, rtol=1e-12)


@pytest.mark.parametrize("astro_scatter, scatter", [
    ("atomic", "atomic"), ("bincount", "bincount"),
    ("sorted", "atomic"), ("sorted", "bincount")])
def test_strategy_combinations_agree(small_system, rng, scatter,
                                     astro_scatter):
    """The port variants' ``aprod2`` (astrometric scatter, scatter of
    the other blocks) agree with the operator's own."""
    y = rng.normal(size=small_system.n_rows)
    op = PortOperator(small_system, atomic=scatter == "atomic",
                      star_sorted=astro_scatter == "sorted")
    ref = AprodOperator(small_system).aprod2(y)
    assert np.allclose(op.aprod2(y), ref, rtol=1e-11, atol=1e-16)


def test_adjointness(small_system, rng):
    """<A x, y> == <x, A^T y> -- the operator really is a transpose pair."""
    op = AprodOperator(small_system)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    lhs = float(np.dot(op.aprod1(x), y))
    rhs = float(np.dot(x, op.aprod2(y)))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_accumulation_into_out(small_system, rng):
    op = AprodOperator(small_system)
    x = rng.normal(size=op.shape[1])
    base = rng.normal(size=op.shape[0])
    out = base.copy()
    op.aprod1(x, out=out)
    assert np.allclose(out, base + op.aprod1(x))


def test_shape_validation(small_system):
    op = AprodOperator(small_system)
    with pytest.raises(ValueError):
        op.aprod1(np.zeros(3))
    with pytest.raises(ValueError):
        op.aprod2(np.zeros(3))
    with pytest.raises(ValueError):
        op.aprod1(np.zeros(op.shape[1]), out=np.zeros(3))
    with pytest.raises(ValueError):
        op.aprod2(np.zeros(op.shape[0]), out=np.zeros(3))


def test_column_sq_norms_match_csr(small_system):
    op = AprodOperator(small_system)
    a = _csr(small_system)
    ref = np.asarray(a.multiply(a).sum(axis=0)).ravel()
    assert np.allclose(op.column_sq_norms(), ref, rtol=1e-12)


def test_kernel_hook_sees_all_kernels(small_system, rng):
    """The plan runs one kernel per direction; the port emulation runs
    the paper's four per-submatrix kernels."""
    for op, kernels in (
            (AprodOperator, ["aprod1_fused", "aprod2_fused"]),
            (partial(PortOperator, atomic=True, star_sorted=False), [
                "aprod1_astro", "aprod1_att", "aprod1_instr", "aprod1_glob",
                "aprod2_astro", "aprod2_att", "aprod2_instr",
                "aprod2_glob"])):
        seen = []
        op = op(small_system,
                kernel_hook=lambda name, rows, nnz: seen.append(name))
        op.aprod1(rng.normal(size=op.shape[1]))
        op.aprod2(rng.normal(size=op.shape[0]))
        assert seen == kernels


def test_linear_operator_adapter(small_system, rng):
    op = AprodOperator(small_system)
    lo = op.as_linear_operator()
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    assert np.allclose(lo.matvec(x), op.aprod1(x))
    assert np.allclose(lo.rmatvec(y), op.aprod2(y))


def test_linearity(small_system, rng):
    op = AprodOperator(small_system)
    x1 = rng.normal(size=op.shape[1])
    x2 = rng.normal(size=op.shape[1])
    lhs = op.aprod1(2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * op.aprod1(x1) - 3.0 * op.aprod1(x2)
    assert np.allclose(lhs, rhs, rtol=1e-11)
