"""Unit tests for the block kernels' primitives and the port variants.

The block kernels are the Fig. 6 port emulation
(:mod:`repro.validation.compare`); production runs the compiled plan.

Every gather and scatter must agree with the pure-Python loop
reference (``tests/loop_reference.py``), which is itself pinned against
a dense product -- the kernels differ only in floating-point summation
order.  The cases cover one row block and more rows than one
``CHUNK_ROWS`` block.  Parameter ids name the ``gather_strategy`` /
``scatter_strategy`` spelling of each implementation: ``vectorized`` /
``bincount`` the block kernels, ``atomic`` the RMW ports' scatter,
``loop`` the reference.
"""

import numpy as np
import pytest

import loop_reference
from repro.core.aprod import AprodOperator
from repro.core.kernels import gather_scatter
from repro.core.kernels.gather_scatter import CHUNK_ROWS
from repro.validation.compare import (
    BlockKernels,
    PortKernels,
    atomic_scatter,
    star_segment_scatter,
)

GATHERS = {"vectorized": gather_scatter.gather_dot,
           "loop": loop_reference.gather_dot}
SCATTERS = {"atomic": atomic_scatter,
            "bincount": gather_scatter.scatter_add,
            "loop": loop_reference.scatter_add}


@pytest.fixture()
def gs_case(rng):
    m, k, n = 200, 6, 50
    values = rng.normal(size=(m, k))
    cols = rng.integers(0, n, size=(m, k))
    x = rng.normal(size=n)
    y = rng.normal(size=m)
    return values, cols, x, y, n


def _cases(gs_case):
    """The fixture case (one row block) and one that crosses a block
    boundary."""
    rng = np.random.default_rng(7)
    m = CHUNK_ROWS + 123
    crossing = (rng.normal(size=(m, 3)), rng.integers(0, 50, size=(m, 3)),
                rng.normal(size=50), rng.normal(size=m), 50)
    return (gs_case, crossing)


def _dense(values, cols, n):
    a = np.zeros((values.shape[0], n))
    np.add.at(a, (np.arange(values.shape[0])[:, None], cols), values)
    return a


@pytest.mark.parametrize("strategy", ["vectorized", "loop"])
def test_gather_dot_strategies_agree(gs_case, strategy):
    for values, cols, x, y, n in _cases(gs_case):
        if strategy == "loop":  # the reference, against a dense product
            ref = _dense(values, cols, n) @ x
        else:
            ref = np.zeros(values.shape[0])
            loop_reference.gather_dot(values, cols, x, ref)
        out = np.zeros(values.shape[0])
        GATHERS[strategy](values, cols, x, out)
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("strategy", ["atomic", "bincount", "loop"])
def test_scatter_add_strategies_agree(gs_case, strategy):
    for values, cols, x, y, n in _cases(gs_case):
        if strategy == "loop":  # the reference, against a dense product
            ref = _dense(values, cols, n).T @ y
        else:
            ref = np.zeros(n)
            loop_reference.scatter_add(values, cols, y, ref)
        out = np.zeros(n)
        SCATTERS[strategy](values, cols, y, out)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_gather_accumulates_into_out(gs_case):
    values, cols, x, y, n = gs_case
    out = np.ones(values.shape[0])
    gather_scatter.gather_dot(values, cols, x, out)
    out2 = np.zeros(values.shape[0])
    gather_scatter.gather_dot(values, cols, x, out2)
    assert np.allclose(out, out2 + 1.0)


def test_unknown_strategies_rejected(small_system):
    """A strategy pair spells the plan or is refused, naming the
    accepted pairs: an unknown value, removed ones (the block kernels'
    ``vectorized`` / ``bincount`` among them), and mixed pairs."""
    for pair in (dict(gather_strategy="magic"),
                 dict(scatter_strategy="atomic"),
                 dict(gather_strategy="chunked", scatter_strategy="chunked"),
                 dict(gather_strategy="vectorized",
                      scatter_strategy="bincount"),
                 dict(gather_strategy="fused", scatter_strategy="bincount"),
                 dict(gather_strategy="vectorized",
                      scatter_strategy="sorted_segment")):
        with pytest.raises(ValueError, match="'fused', 'sorted_segment'"):
            AprodOperator(small_system, **pair)


def test_shape_mismatches_rejected(gs_case):
    values, cols, x, y, n = gs_case
    with pytest.raises(ValueError):
        gather_scatter.gather_dot(values, cols[:, :3], x,
                                  np.zeros(values.shape[0]))
    with pytest.raises(ValueError):
        gather_scatter.scatter_add(values, cols, y[:-1], np.zeros(n))
    with pytest.raises(ValueError):
        gather_scatter.gather_dot(values, cols, x, np.zeros(3))


def test_column_sq_norms(gs_case):
    values, cols, x, y, n = gs_case
    out = np.zeros(n)
    gather_scatter.column_sq_norms(values, cols, out)
    ref = np.zeros(n)
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            ref[cols[i, j]] += values[i, j] ** 2
    assert np.allclose(out, ref)


# ----------------------------------------------------------------------
# Astrometric fast path (the tuned ports' star-segment scatter)
# ----------------------------------------------------------------------
def test_astro_sorted_matches_bincount(small_system):
    cols = small_system.astro_columns()
    y = np.linspace(-1, 1, small_system.dims.n_obs)
    ref = np.zeros(small_system.dims.n_params)
    gather_scatter.scatter_add(small_system.astro_values, cols, y, ref)
    out = np.zeros(small_system.dims.n_params)
    star_segment_scatter(small_system.astro_values, cols, y, out)
    assert np.allclose(out, ref, rtol=1e-13)


def test_astro_sorted_rejects_shuffled(shuffled_system):
    cols = shuffled_system.astro_columns()
    y = np.ones(shuffled_system.dims.n_obs)
    with pytest.raises(ValueError, match="star-sorted"):
        star_segment_scatter(shuffled_system.astro_values, cols, y,
                             np.zeros(shuffled_system.dims.n_params))
    kernels = PortKernels(shuffled_system, atomic=False, star_sorted=True)
    with pytest.raises(ValueError, match="star-sorted"):
        kernels.aprod2(y, np.zeros(shuffled_system.dims.n_params))


def test_astro_sorted_empty_is_noop():
    out = np.zeros(5)
    star_segment_scatter(np.zeros((0, 5)), np.zeros((0, 5), dtype=np.int64),
                         np.zeros(0), out)
    assert np.all(out == 0)


# ----------------------------------------------------------------------
# Column reconstruction of the block kernels
# ----------------------------------------------------------------------
def test_att_columns_layout(small_system):
    """Axis ``a``, in-block position ``j`` of row ``i`` lands at
    ``matrix_index_att[i] + a * att_stride + j`` past ``att_offset``."""
    d = small_system.dims
    cols = dict((name, c) for name, _, c in
                BlockKernels(small_system).blocks)["att"]
    pattern = (np.arange(3)[:, None] * d.att_stride
               + np.arange(4)).ravel()
    expected = (small_system.matrix_index_att[:, None] + pattern
                + d.att_offset)
    assert cols.shape == (d.n_obs, 12)
    assert np.array_equal(cols, expected)


def test_instr_columns_offset(small_system):
    d = small_system.dims
    cols = dict((name, c) for name, _, c in
                BlockKernels(small_system).blocks)["instr"]
    assert cols.dtype == np.int64
    assert np.array_equal(cols, small_system.instr_col + d.instr_offset)


# ----------------------------------------------------------------------
# Global lane: one broadcast multiply, one dot product
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["reduce", "atomic", "loop"])
def test_glob_aprod2_strategies_agree(small_system, rng, strategy):
    """The glob ``aprod2`` is ``values @ y`` in every form: the block
    kernels' dot product (``reduce``), which the atomic ports keep, and
    the loop reference's scatter into the one column.  No other block
    touches the global column."""
    d = small_system.dims
    # The column as a contiguous vector: BLAS dot sums a strided
    # operand (a column of the coefficient block) in another order.
    values = np.ascontiguousarray(small_system.glob_values[:, 0])
    y = rng.normal(size=d.n_obs)
    out = np.zeros(d.n_params)
    if strategy == "loop":
        loop_reference.scatter_add(values[:, None],
                                   np.full((d.n_obs, 1), d.glob_offset),
                                   y, out)
        assert out[d.glob_offset] == pytest.approx(float(values @ y),
                                                   rel=1e-12)
    else:
        kernels = (BlockKernels(small_system) if strategy == "reduce" else
                   PortKernels(small_system, atomic=True, star_sorted=False))
        kernels.aprod2(y, out)
        assert out[d.glob_offset] == float(np.dot(values, y))


def test_glob_aprod1(small_system):
    d = small_system.dims
    x = np.zeros(d.n_params)
    x[d.glob_offset] = 2.5
    out = np.zeros(d.n_obs)
    BlockKernels(small_system).aprod1(x, out)
    assert np.array_equal(out, small_system.glob_values[:, 0] * 2.5)


def test_glob_empty_section_noop(noglob_system):
    """Without a global section there is no glob lane and no glob
    kernel to report."""
    kernels = BlockKernels(noglob_system)
    assert kernels.glob is None
    assert [name for product in kernels.work.values()
            for name, _, _ in product] == [
        "aprod1_astro", "aprod1_att", "aprod1_instr",
        "aprod2_astro", "aprod2_att", "aprod2_instr"]
