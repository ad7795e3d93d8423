"""The compiled aprod plan layer (repro.core.kernels.plan).

Property-based pins of the four plan products against the ``loop``
reference kernels (random shapes, duplicate-column collisions, keys
repeated inside a row, unoccupied columns, zero rows), plus the
plan/operator integration contracts: one kernel set (the plan) at
every size, the plan against the production-reference port emulation,
empty-glob systems, bitwise determinism (two applications; member ``j``
of a stacked product against the single product; two threads on one
operator), telemetry side channels, and the memory accounting the
engine reports.  The last section pins the *order* the plan sums in:
the matrix is the block as packed, never canonicalized, its transpose
is a view of the same arrays, and the transpose product is bitwise the
row sums of the explicit transpose a stable ``argsort`` of the flat
keys gives (:func:`_reference_transpose`) -- that order is the
summation order, hence the determinism contract.
"""

import dataclasses
import functools
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import SolveRequest, solve, solve_batch
import loop_reference
from repro.core.aprod import AprodOperator
from repro.core.engine import LSQRStepEngine, SerialReduction
from repro.core.kernels.gather_scatter import CHUNK_ROWS, column_sq_norms
from repro.core.kernels.plan import (
    FUSED_KERNEL_NAMES,
    FUSED_GATHER,
    SORTED_SEGMENT_SCATTER,
    STRATEGY_PAIRS,
    AprodPlan,
)
from repro.core.lsqr import lsqr_solve
from repro.core.precond import ColumnScaling, PreconditionedAprod
from repro.dist.decomposition import partition_by_rows, slice_system
from repro.obs.telemetry import Telemetry
from repro.system.generator import make_system
from repro.system.sparse import GaiaSystem
from repro.system.structure import SystemDims
from repro.validation.compare import PortKernels, PortOperator


# ----------------------------------------------------------------------
# Strategies: random (values, cols, x/y) triples.  Column counts are
# drawn far below m * k so duplicate columns (scatter collisions, and
# keys repeated inside one row) are the norm, not the exception, and
# m = 0 is drawn too.
# ----------------------------------------------------------------------
@st.composite
def packed_case(draw):
    m = draw(st.integers(0, 40))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, k))
    cols = rng.integers(0, n, size=(m, k))
    return values, cols.astype(np.int64), n, rng


class _Block:
    """A raw packed ``(values, cols)`` block over ``n`` unknowns, with
    the two members of a system that :class:`AprodPlan` reads: compiles
    shapes no ``GaiaSystem`` has (no rows, a key twice in one row)."""

    def __init__(self, values, cols, n):
        self.values = values
        self.cols = np.asarray(cols, dtype=np.int64)
        self.dims = SimpleNamespace(nnz_per_row=values.shape[1], n_params=n)

    def observation_csr(self):
        m, k = self.values.shape
        return sp.csr_matrix(
            (self.values.reshape(-1), self.cols.reshape(-1),
             np.arange(0, m * k + 1, k)), shape=(m, self.dims.n_params))


def _assert_gather_is_the_loop_reference(plan, values, cols, n, rng):
    """``aprod1`` accumulates what the ``loop`` gather does, and member
    ``j`` of the stacked product is bitwise the single product."""
    m = values.shape[0]
    X = rng.normal(size=(3, n))
    base = rng.normal(size=(3, m))
    ref, solo, batched = base.copy(), base.copy(), base.copy()
    for j in range(3):
        loop_reference.gather_dot(values, cols, X[j], ref[j])
        plan.aprod1(X[j], solo[j])
    np.testing.assert_allclose(solo, ref, rtol=1e-12, atol=1e-12)
    plan.aprod1_batch(X, batched)
    assert np.array_equal(batched, solo)


def _assert_scatter_is_the_loop_reference(plan, values, cols, n, rng):
    m = values.shape[0]
    Y = rng.normal(size=(3, m))
    base = rng.normal(size=(3, n))
    ref, solo, batched = base.copy(), base.copy(), base.copy()
    for j in range(3):
        loop_reference.scatter_add(values, cols, Y[j], ref[j])
        plan.aprod2(Y[j], solo[j])
    np.testing.assert_allclose(solo, ref, rtol=1e-12, atol=1e-12)
    plan.aprod2_batch(Y, batched)
    assert np.array_equal(batched, solo)


@settings(max_examples=50, deadline=None)
@given(case=packed_case())
def test_fused_gather_matches_loop_reference(case):
    values, cols, n, rng = case
    plan = AprodPlan(_Block(values, cols, n))
    _assert_gather_is_the_loop_reference(plan, values, cols, n, rng)


@settings(max_examples=50, deadline=None)
@given(case=packed_case())
def test_sorted_segment_matches_loop_reference(case):
    values, cols, n, rng = case
    plan = AprodPlan(_Block(values, cols, n))
    _assert_scatter_is_the_loop_reference(plan, values, cols, n, rng)


@settings(max_examples=30, deadline=None)
@given(case=packed_case())
def test_sorted_segment_bitwise_deterministic(case):
    """Frozen summation order: re-applications, and applications of a
    plan compiled again, are bitwise identical in both directions."""
    values, cols, n, rng = case
    x = rng.normal(size=n)
    y = rng.normal(size=values.shape[0])
    plan = AprodPlan(_Block(values, cols, n))
    outs = []
    for p in (plan, plan, AprodPlan(_Block(values, cols, n))):
        obs, back = np.zeros(values.shape[0]), np.zeros(n)
        p.aprod1(x, obs)
        p.aprod2(y, back)
        outs.append((obs, back))
    for obs, back in outs[1:]:
        assert np.array_equal(obs, outs[0][0])
        assert np.array_equal(back, outs[0][1])


def test_sorted_segment_rejects_bad_shapes():
    plan = AprodPlan(_Block(np.ones((3, 2)), np.zeros((3, 2)), 5))
    with pytest.raises(ValueError):
        plan.aprod2(np.ones(4), np.zeros(5))
    with pytest.raises(ValueError):
        plan.aprod2(np.ones(3), np.zeros(4))
    with pytest.raises(ValueError):
        plan.aprod2_batch(np.ones((2, 3)), np.zeros((3, 5)))


def test_fused_gather_bounds_and_shape_checks():
    """The native kernel indexes ``x`` unchecked, so a column outside
    the unknown space must fail the build, not read past the operand."""
    with pytest.raises(ValueError, match="outside the unknown space"):
        AprodPlan(_Block(np.ones((2, 2)), np.full((2, 2), 9), 3))
    plan = AprodPlan(_Block(np.ones((2, 2)), np.zeros((2, 2)), 3))
    with pytest.raises(ValueError):
        plan.aprod1(np.ones(4), np.zeros(2))
    with pytest.raises(ValueError):
        plan.aprod1(np.ones(3), np.zeros(5))


# ----------------------------------------------------------------------
# Plan vs the production-reference port emulation on real systems
# ----------------------------------------------------------------------
def _fused_and_reference(system):
    fused = AprodOperator(system, gather_strategy=FUSED_GATHER,
                          scatter_strategy=SORTED_SEGMENT_SCATTER)
    ref = PortOperator(system, atomic=True, star_sorted=False)
    return fused, ref


def test_plan_matches_reference_on_glob_system(small_system, rng):
    fused, ref = _fused_and_reference(small_system)
    m, n = ref.shape
    x = rng.normal(size=n)
    y = rng.normal(size=m)
    np.testing.assert_allclose(fused.aprod1(x), ref.aprod1(x), rtol=1e-12)
    np.testing.assert_allclose(fused.aprod2(y), ref.aprod2(y), rtol=1e-12)


def test_plan_matches_reference_without_glob(noglob_system, rng):
    """Empty-glob systems pack k_total=23 columns (no glob lane)."""
    fused, ref = _fused_and_reference(noglob_system)
    assert fused.plan is not None
    assert fused.plan.k_total == 23
    m, n = ref.shape
    x = rng.normal(size=n)
    y = rng.normal(size=m)
    np.testing.assert_allclose(fused.aprod1(x), ref.aprod1(x), rtol=1e-12)
    np.testing.assert_allclose(fused.aprod2(y), ref.aprod2(y), rtol=1e-12)


def test_plan_solution_matches_reference_solve(small_system):
    fused, ref = (lsqr_solve(op, iter_lim=40, calc_var=False)
                  for op in _fused_and_reference(small_system))
    np.testing.assert_allclose(fused.x, ref.x, rtol=1e-8, atol=1e-10)


def test_plan_workspace_reported_through_engine(small_system):
    op = AprodOperator(small_system, gather_strategy="fused",
                       scatter_strategy="sorted_segment")
    wrapped = PreconditionedAprod(op, ColumnScaling.from_operator(op))
    engine = LSQRStepEngine(wrapped, backend=SerialReduction())
    assert engine.workspace_bytes >= op.plan.workspace_nbytes
    assert op.plan.workspace_nbytes > 0
    assert op.plan.build_seconds >= 0.0


def test_plan_emits_fused_kernel_telemetry(small_system, rng):
    tel = Telemetry()
    op = AprodOperator(small_system, gather_strategy="fused",
                       scatter_strategy="sorted_segment", telemetry=tel)
    assert tel.metrics.gauge("aprod.plan_build_ms").value >= 0.0
    assert (tel.metrics.gauge("aprod.plan_bytes").value
            == float(op.plan.workspace_nbytes))
    op.aprod1(rng.normal(size=op.shape[1]))
    op.aprod2(rng.normal(size=op.shape[0]))
    for name in FUSED_KERNEL_NAMES:
        assert tel.metrics.counter_value("aprod.kernel_calls",
                                         kernel=name) == 1


# ----------------------------------------------------------------------
# One production kernel set
# ----------------------------------------------------------------------
def test_auto_compiles_a_plan_on_a_60_row_system():
    """No size threshold: the smallest system compiles the plan too."""
    dims = SystemDims(n_stars=2, n_obs=60, n_deg_freedom_att=4,
                      n_instr_params=6, n_glob_params=1)
    op = AprodOperator(make_system(dims, seed=3))
    assert isinstance(op.kernels, AprodPlan)
    assert op.plan is op.kernels
    assert op.plan.n_obs == 60


def test_auto_resolves_fused_above_min_obs():
    """At 4 096 rows ``auto`` compiles the plan, 24 entries a row."""
    dims = SystemDims(n_stars=200, n_obs=4096,
                      n_deg_freedom_att=24, n_instr_params=30,
                      n_glob_params=1)
    op = AprodOperator(make_system(dims, seed=3))
    assert op.plan is not None
    assert op.plan.k_total == 24


def test_explicit_strategies_remain_selectable(small_system, rng):
    """Both accepted spellings compile the plan and give the same bits;
    any other pair is refused, naming the accepted ones."""
    x = rng.normal(size=small_system.dims.n_params)
    results = []
    for gather, scatter in STRATEGY_PAIRS:
        op = AprodOperator(small_system, gather_strategy=gather,
                           scatter_strategy=scatter)
        assert isinstance(op.kernels, AprodPlan)
        results.append(op.aprod1(x))
    assert np.array_equal(results[0], results[1])
    with pytest.raises(ValueError, match="sorted_segment"):
        AprodOperator(small_system, gather_strategy="vectorized",
                      scatter_strategy="bincount")


# ----------------------------------------------------------------------
# Summation order: the transpose view == the stable-argsort transpose
# ----------------------------------------------------------------------
def _reference_transpose(values, cols, n):
    """``(data, indices, indptr)`` of the transpose in CSR by the stable
    ``argsort`` of the flat keys: a column lists its entries in
    row-major order, duplicates inside one row left to right."""
    k = values.shape[1]
    keys = np.ascontiguousarray(cols, dtype=np.int64).reshape(-1)
    perm = np.argsort(keys, kind="stable")
    return (np.ascontiguousarray(values, dtype=np.float64).reshape(-1)[perm],
            perm // k, np.searchsorted(keys[perm], np.arange(n + 1)))


def _assert_plan_is_the_reference(plan, values, cols, n):
    # A is the block as packed: not sorted, not deduplicated ...
    assert np.array_equal(plan.A.data, values.reshape(-1))
    assert np.array_equal(plan.A.indices, cols.reshape(-1))
    # ... and the only copy: the transpose is a view of its arrays.
    for mine, theirs in zip((plan.At.data, plan.At.indices, plan.At.indptr),
                            (plan.A.data, plan.A.indices, plan.A.indptr)):
        assert np.shares_memory(mine, theirs) or mine.size == 0
    # The explicit transpose, built two ways (stable argsort; SciPy's
    # counting sort), is one matrix array for array, and the view's
    # product is bitwise its row sums.
    m = values.shape[0]
    reference = _reference_transpose(values, cols, n)
    counted = plan.A.T.tocsr()
    for got, ref in zip((counted.data, counted.indices, counted.indptr),
                        reference):
        assert np.array_equal(got, ref)
    y = np.random.default_rng(m + n).normal(size=m)
    out = np.zeros(n)
    plan.aprod2(y, out)
    assert np.array_equal(out,
                          sp.csr_matrix(reference, shape=(n, m)) @ y)


def _rank_local_block():
    """Packed block of one rank's row slice: its columns have gaps (the
    stars the rank does not observe), so some unknowns get no term."""
    dims = SystemDims(n_stars=40, n_obs=200, n_deg_freedom_att=12,
                      n_instr_params=18, n_glob_params=1)
    system = make_system(dims, seed=5)
    block = partition_by_rows(system, 2)[1]
    plan = AprodPlan(slice_system(system, block))
    assert np.bincount(plan.A.indices, minlength=plan.n_params).min() == 0
    shape = (plan.n_obs, plan.k_total)
    return (plan.A.data.reshape(shape),
            plan.A.indices.reshape(shape).astype(np.int64), plan.n_params)


@functools.cache
def _fixed_blocks():
    rng = np.random.default_rng(99)

    def block(cols):
        cols = np.asarray(cols, dtype=np.int64)
        n = int(cols.max()) + 3 if cols.size else 3
        return rng.normal(size=cols.shape), cols, n

    return {
        "no rows": block(np.zeros((0, 3))),
        "one column": block(np.full((6, 2), 4)),
        "gaps": block([[0, 9], [9, 30], [2, 30], [0, 2]]),
        "key repeats inside a row": block([[3, 3, 1], [1, 3, 3],
                                           [3, 1, 3]]),
        "descending keys": block([[9, 5, 2, 0], [8, 5, 1, 0]]),
        "rank-local slice": _rank_local_block(),
    }


@settings(max_examples=100, deadline=None)
@given(case=packed_case())
def test_counting_sort_build_equals_the_argsort_reference(case):
    values, cols, n, _ = case
    _assert_plan_is_the_reference(AprodPlan(_Block(values, cols, n)),
                                  values, cols, n)


@pytest.mark.parametrize("name", _fixed_blocks())
def test_fixed_blocks_build_and_scatter_as_the_reference(name):
    values, cols, n = _fixed_blocks()[name]
    plan = AprodPlan(_Block(values, cols, n))
    _assert_plan_is_the_reference(plan, values, cols, n)
    rng = np.random.default_rng(5)
    _assert_gather_is_the_loop_reference(plan, values, cols, n, rng)
    _assert_scatter_is_the_loop_reference(plan, values, cols, n, rng)


def test_negative_column_key_is_rejected_at_build():
    with pytest.raises(ValueError, match="outside the unknown space"):
        AprodPlan(_Block(np.ones((3, 2)),
                         np.array([[0, -1], [1, -1], [2, 0]]), 3))


def test_fused_column_scaling_is_bitwise_from_system(plan_system):
    """``from_system``'s docstring promise, for the operator that takes
    its norms from the compiled matrix (its ``(n_obs, k_total)`` view,
    a row block at a time)."""
    assert plan_system.dims.n_glob_params
    assert len(plan_system.constraints)
    fused = AprodOperator(plan_system)
    assert fused.plan is not None
    expected = ColumnScaling.from_system(plan_system).scale
    assert np.array_equal(ColumnScaling.from_operator(fused).scale, expected)


def _whole_block_sq_norms(values, cols, n):
    """The reference: one keyed reduction over the whole block, each
    column summing its squares in row-major order from 0.0."""
    return np.bincount(cols.ravel(), weights=(values**2).ravel(),
                       minlength=n)[:n]


@settings(max_examples=25, deadline=None)
@given(blocks=st.integers(0, 2), tail=st.integers(0, 300),
       k=st.integers(1, 6), n=st.integers(1, 40),
       repeat=st.booleans(), seed=st.integers(0, 2**16))
@example(blocks=2, tail=77, k=4, n=30, repeat=True, seed=0)
def test_row_blocked_norms_are_bitwise_the_whole_block_reduction(
        blocks, tail, k, n, repeat, seed):
    """Pin: walking ``CHUNK_ROWS`` row blocks into one accumulator keeps
    every column's row-major chain, for row counts on and off the block
    size, keys repeated inside a row, and the plan's ``(m, k)`` view of
    its arrays.  Magnitudes spread over eight decades, so a
    re-associated sum (a partial per block) would show in the bits."""
    m = max(1, blocks * CHUNK_ROWS + tail)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-4, 5, (m, k))
    cols = rng.integers(0, n, size=(m, k))
    if repeat:
        cols[:, -1] = cols[:, 0]
    expected = _whole_block_sq_norms(values, cols, n)
    out = np.zeros(n)
    column_sq_norms(values, cols, out)
    assert np.array_equal(out, expected)
    out = np.zeros(n)
    AprodPlan(_Block(values, cols, n)).column_sq_norms(out)
    assert np.array_equal(out, expected)


@pytest.fixture()
def derived_columns(monkeypatch):
    """Names of the ``GaiaSystem.*_columns`` derivations made (the block
    columns, which packing a plan derives too)."""
    derived = []
    for name in ("astro_columns", "att_columns", "instr_columns"):
        real = getattr(GaiaSystem, name)

        def counting(self, out=None, _real=real, _name=name):
            derived.append(_name)
            return _real(self, out=out)

        monkeypatch.setattr(GaiaSystem, name, counting)
    return derived


@pytest.mark.parametrize("preset", ["auto", "fused"])
def test_an_operator_holds_exactly_one_kernel_set(
        small_system, plan_system, derived_columns, preset):
    """By construction, at every size: an operator holds one plan and
    derives the block columns once, to pack it.  The port emulation
    holds its block kernels instead, never a plan beside them."""
    for system in (small_system, plan_system):
        derived_columns.clear()
        gather, scatter = SolveRequest(system=system,
                                       strategy=preset).strategies
        op = AprodOperator(system, gather_strategy=gather,
                           scatter_strategy=scatter)
        assert sorted(derived_columns) == ["astro_columns", "att_columns",
                                           "instr_columns"]
        held = [value for value in vars(op).values()
                if isinstance(value, (AprodPlan, PortKernels))]
        assert held == [op.kernels] and op.plan is op.kernels
    port = PortOperator(small_system, atomic=True, star_sorted=False)
    held = [value for value in vars(port).values()
            if isinstance(value, (AprodPlan, PortKernels))]
    assert held == [port.kernels] and port.plan is None


@pytest.fixture()
def argsort_built_plans(monkeypatch):
    """Every plan built inside the test applies the reference (argsort)
    transpose, an explicit CSR matrix, in place of its view."""
    init = AprodPlan.__init__
    swapped = []

    def init_then_swap(self, system):
        init(self, system)
        shape = (self.n_obs, self.k_total)
        self.At = sp.csr_matrix(
            _reference_transpose(self.A.data.reshape(shape),
                                 self.A.indices.reshape(shape),
                                 self.n_params), shape=self.At.shape)
        swapped.append(1)

    monkeypatch.setattr(AprodPlan, "__init__", init_then_swap)
    return swapped


def _outcome(report):
    return (report.x.tobytes(), report.itn, report.r2norm, report.acond)


def test_route_ladder_is_bitwise_on_reference_arrays(
        plan_system, argsort_built_plans, monkeypatch):
    members = [
        SolveRequest(system=dataclasses.replace(
            plan_system, known_terms=plan_system.known_terms * (1 + j)),
            iter_lim=8, damp=0.1 * j)
        for j in range(3)]

    def routes():
        yield [solve(SolveRequest(system=plan_system, iter_lim=12))]
        yield solve_batch(members)
        yield [solve(SolveRequest(system=plan_system, iter_lim=12,
                                  ranks=2))]

    reference = [[_outcome(r) for r in reports] for reports in routes()]
    assert len(argsort_built_plans) == 1 + 1 + 2
    monkeypatch.undo()
    production = [[_outcome(r) for r in reports] for reports in routes()]
    assert len(argsort_built_plans) == 4
    assert production == reference


def test_two_threads_share_one_operator(plan_system, rng):
    """A compiled operator holds no mutable state: applied from two
    threads at once it gives each the sequential bits."""
    op = AprodOperator(plan_system, batch_hint=2)
    X = rng.normal(size=(2, plan_system.dims.n_params))
    Y = rng.normal(size=(2, plan_system.n_rows))
    expected = [(op.aprod1(X[j]), op.aprod2(Y[j])) for j in range(2)]
    expected_batch = (op.aprod1_batch(X), op.aprod2_batch(Y))
    barrier = threading.Barrier(2)
    mismatches = []

    def worker(j):
        barrier.wait()
        for _ in range(20):
            got = (op.aprod1(X[j]), op.aprod2(Y[j]))
            got_batch = (op.aprod1_batch(X), op.aprod2_batch(Y))
            if not all(np.array_equal(g, e) for g, e in
                       zip(got + got_batch, expected[j] + expected_batch)):
                mismatches.append(j)

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mismatches == []


def _stacked_product_peak(plan, width):
    """Peak bytes the two ``width``-wide products allocate while run."""
    X = np.zeros((width, plan.n_params))
    Y = np.zeros((width, plan.n_obs))
    out_obs, out = np.zeros_like(Y), np.zeros_like(X)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    plan.aprod1_batch(X, out_obs)
    plan.aprod2_batch(Y, out)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("shape", [
    dict(n_stars=200, n_obs=4096, n_deg_freedom_att=24,
         n_instr_params=30, n_glob_params=1),
    dict(n_stars=300, n_obs=8948, n_deg_freedom_att=12,
         n_instr_params=18, n_glob_params=0),
    dict(n_stars=900, n_obs=20_000, n_deg_freedom_att=40,
         n_instr_params=60, n_glob_params=1),
])
def test_plan_workspace_bytes_is_what_a_plan_holds(shape, batch):
    """What a plan holds is its 4 B index per coefficient and its row
    pointers (the values are the system's block), and a ``batch``-wide
    product allocates only each further member's operand and result
    columns over a 1-wide one: no second matrix, whatever the width."""
    dims = SystemDims(**shape)
    expected = (4 * dims.nnz + 4 * (dims.n_obs + 1)
                + (batch - 1) * 8 * (dims.n_obs + dims.n_params))
    plan = AprodPlan(make_system(dims, seed=1))
    held = (plan.workspace_nbytes + _stacked_product_peak(plan, batch)
            - _stacked_product_peak(plan, 1))
    # numpy stages the transposed result of a stacked product through
    # its fixed-size ufunc buffer: a constant, not a per-member cost.
    staging = 8 * np.getbufsize() if batch > 1 else 0
    assert abs(expected - held) <= 0.01 * held + staging
