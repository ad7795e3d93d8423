"""The fused aprod plan layer (repro.core.kernels.plan).

Property-based pins of the two plan primitives against the ``loop``
reference kernels (random shapes, duplicate-column collisions), plus
the plan/operator integration contracts: strategy auto-resolution,
empty-glob systems, bitwise determinism of the sorted-segment scatter,
telemetry side channels, and the workspace accounting the engine
reports.  The last section pins how the plan is *generated*: the
counting-sort build must produce, dtype for dtype, the arrays of the
stable ``argsort`` construction it replaced
(:func:`_reference_scatter_arrays`), so every product, iterate and
report is bitwise what that construction gave.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SolveRequest, solve, solve_batch
from repro.core.aprod import FUSED_KERNEL_NAMES, AprodOperator
from repro.core.engine import LSQRStepEngine, SerialReduction
from repro.core.kernels.gather_scatter import gather_dot, scatter_add
from repro.core.kernels.plan import (
    FUSED_GATHER,
    FUSED_MIN_OBS,
    PLAN_BUDGET_BYTES,
    SORTED_SEGMENT_SCATTER,
    AprodPlan,
    SortedSegmentScatter,
    fused_gather_dot,
    plan_workspace_bytes,
    select_strategies,
)
from repro.core.lsqr import lsqr_solve
from repro.core.precond import ColumnScaling, PreconditionedAprod
from repro.dist import partition_by_rows
from repro.dist.decomposition import slice_system
from repro.obs.telemetry import Telemetry
from repro.system import SystemDims, make_system


# ----------------------------------------------------------------------
# Strategies: random (values, cols, x/y) triples.  Column counts are
# drawn far below m * k so duplicate columns (scatter collisions) are
# the norm, not the exception.
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


@settings(max_examples=50, deadline=None)
@given(case=packed_case())
def test_fused_gather_matches_loop_reference(case):
    values, cols, n, rng = case
    x = rng.normal(size=n)
    ref = np.zeros(values.shape[0])
    gather_dot(values, cols, x, ref, strategy="loop")
    out = np.zeros(values.shape[0])
    fused_gather_dot(values, cols, x, out)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    # With caller-owned workspaces (the plan's hot configuration).
    out2 = np.zeros(values.shape[0])
    fused_gather_dot(values, cols, x, out2, work=np.empty(values.shape),
                     row_work=np.empty(values.shape[0]))
    np.testing.assert_allclose(out2, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(case=packed_case())
def test_sorted_segment_matches_loop_reference(case):
    values, cols, n, rng = case
    y = rng.normal(size=values.shape[0])
    ref = np.zeros(n)
    scatter_add(values, cols, y, ref, strategy="loop")
    scatter = SortedSegmentScatter(values, cols)
    out = np.zeros(n)
    scatter.add_into(y, out)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(case=packed_case())
def test_sorted_segment_bitwise_deterministic(case):
    """Frozen summation order: re-applications are bitwise identical."""
    values, cols, n, rng = case
    y = rng.normal(size=values.shape[0])
    first = np.zeros(n)
    SortedSegmentScatter(values, cols).add_into(y, first)
    again = np.zeros(n)
    SortedSegmentScatter(values, cols).add_into(y, again)
    assert np.array_equal(first, again)


def test_sorted_segment_rejects_bad_shapes():
    values = np.ones((3, 2))
    scatter = SortedSegmentScatter(values, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="y has shape"):
        scatter.add_into(np.ones(4), np.zeros(5))
    with pytest.raises(ValueError, match="targets"):
        SortedSegmentScatter(
            values, np.full((3, 2), 7, dtype=np.int64)
        ).add_into(np.ones(3), np.zeros(5))
    with pytest.raises(ValueError, match="must be"):
        SortedSegmentScatter(np.ones(3), np.zeros(3, dtype=np.int64))


def test_fused_gather_bounds_and_shape_checks():
    with pytest.raises(ValueError, match="cols index outside"):
        fused_gather_dot(np.ones((2, 2)),
                         np.full((2, 2), 9, dtype=np.int64),
                         np.ones(3), np.zeros(2))
    with pytest.raises(ValueError, match="must match"):
        fused_gather_dot(np.ones((2, 2)), np.zeros((2, 3), dtype=np.int64),
                         np.ones(3), np.zeros(2))
    with pytest.raises(ValueError, match="work has shape"):
        fused_gather_dot(np.ones((2, 2)), np.zeros((2, 2), dtype=np.int64),
                         np.ones(3), np.zeros(2), work=np.empty((3, 3)))


# ----------------------------------------------------------------------
# Plan vs the classic operator on real systems
# ----------------------------------------------------------------------
def _fused_and_reference(system):
    fused = AprodOperator(system, gather_strategy=FUSED_GATHER,
                          scatter_strategy=SORTED_SEGMENT_SCATTER)
    ref = AprodOperator(system, gather_strategy="vectorized",
                        scatter_strategy="bincount",
                        astro_scatter_strategy="bincount")
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
    assert (tel.metrics.gauge("aprod.plan_workspace_bytes").value
            == float(op.plan.workspace_nbytes))
    op.aprod1(rng.normal(size=op.shape[1]))
    op.aprod2(rng.normal(size=op.shape[0]))
    for name in FUSED_KERNEL_NAMES:
        assert tel.metrics.counter_value("aprod.kernel_calls",
                                         kernel=name) == 1


# ----------------------------------------------------------------------
# The shape heuristic
# ----------------------------------------------------------------------
def test_auto_resolves_classic_below_min_obs(small_system):
    op = AprodOperator(small_system)  # fixtures sit below FUSED_MIN_OBS
    assert small_system.dims.n_obs < FUSED_MIN_OBS
    assert op.gather_strategy == "vectorized"
    assert op.scatter_strategy == "bincount"
    assert op.plan is None


def test_auto_resolves_fused_above_min_obs():
    dims = SystemDims(n_stars=200, n_obs=FUSED_MIN_OBS,
                      n_deg_freedom_att=24, n_instr_params=30,
                      n_glob_params=1)
    selection = select_strategies(dims)
    assert selection.fused
    assert selection.gather == FUSED_GATHER
    assert selection.scatter == SORTED_SEGMENT_SCATTER
    op = AprodOperator(make_system(dims, seed=3))
    assert op.plan is not None
    assert op.plan.k_total == 24


def test_auto_falls_back_to_chunked_past_budget():
    huge = SystemDims(n_stars=60_000_000, n_obs=3_000_000_000,
                      n_deg_freedom_att=24, n_instr_params=60,
                      n_glob_params=1)
    assert plan_workspace_bytes(huge) > PLAN_BUDGET_BYTES
    selection = select_strategies(huge)
    assert not selection.fused
    assert selection.gather == "chunked"
    assert selection.scatter == "chunked"


def test_explicit_strategies_remain_selectable(small_system, rng):
    """The pre-plan strategies stay available and agree with each other."""
    x = rng.normal(size=small_system.dims.n_params)
    results = [
        AprodOperator(small_system, gather_strategy=g).aprod1(x)
        for g in ("vectorized", "chunked", "loop", "fused")
    ]
    for got in results[1:]:
        np.testing.assert_allclose(got, results[0], rtol=1e-12)


# ----------------------------------------------------------------------
# Plan generation: the counting-sort build == the stable-argsort build
# ----------------------------------------------------------------------
_SCATTER_ARRAYS = ("_sorted_values", "_sorted_rows", "_seg_starts",
                   "segment_cols")


def _reference_scatter_arrays(values, cols):
    """``(sorted values, sorted rows, segment starts, segment cols)``
    by the stable ``argsort`` of the flat keys: the construction the
    plan used before the counting sort, kept as the reference."""
    m, k = values.shape
    cols_flat = np.ascontiguousarray(cols, dtype=np.int64).reshape(-1)
    perm = np.argsort(cols_flat, kind="stable")
    sorted_cols = cols_flat[perm]
    if m * k:
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_cols)) + 1])
    else:
        starts = np.zeros(0, dtype=np.int64)
    sorted_values = np.ascontiguousarray(
        values, dtype=np.float64).reshape(-1)[perm]
    sorted_rows = ((perm // k).astype(np.int64) if k
                   else np.zeros(0, dtype=np.int64))
    segment_cols = sorted_cols[starts] if m * k else starts
    return sorted_values, sorted_rows, starts, segment_cols


def _assert_arrays_are_the_reference(scatter, values, cols):
    for name, ref in zip(_SCATTER_ARRAYS,
                         _reference_scatter_arrays(values, cols)):
        got = getattr(scatter, name)
        assert got.dtype == ref.dtype, (name, got.dtype, ref.dtype)
        assert np.array_equal(got, ref), name


def _reference_add_into(values, cols, y, out):
    """``add_into`` spelled on the reference arrays (``y``/``out`` may
    carry a leading batch axis)."""
    sorted_values, sorted_rows, starts, segment_cols = (
        _reference_scatter_arrays(values, cols))
    if sorted_values.size:
        out[..., segment_cols] += np.add.reduceat(
            y[..., sorted_rows] * sorted_values, starts, axis=-1)


def _rank_local_block():
    """Packed block of one rank's row slice of a fused-size system: its
    columns have gaps (the stars the rank does not observe)."""
    dims = SystemDims(n_stars=400, n_obs=2 * FUSED_MIN_OBS,
                      n_deg_freedom_att=12, n_instr_params=18,
                      n_glob_params=1)
    system = make_system(dims, seed=5)
    block = partition_by_rows(system, 2)[1]
    plan = AprodPlan(slice_system(system, block))
    assert plan._scatter.n_segments < dims.n_params
    return plan.packed_values, plan.packed_cols


@functools.cache
def _fixed_blocks():
    rng = np.random.default_rng(99)

    def block(cols):
        cols = np.asarray(cols, dtype=np.int64)
        return rng.normal(size=cols.shape), cols

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
    values, cols, n, rng = case
    scatter = SortedSegmentScatter(values, cols)
    _assert_arrays_are_the_reference(scatter, values, cols)
    y = rng.normal(size=(3, values.shape[0]))
    out, ref = np.ones((2, 3, n))
    for j in range(3):
        scatter.add_into(y[j], out[j])
    _reference_add_into(values, cols, y, ref)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("name", _fixed_blocks())
def test_fixed_blocks_build_and_scatter_as_the_reference(name):
    values, cols = _fixed_blocks()[name]
    scatter = SortedSegmentScatter(values, cols)
    _assert_arrays_are_the_reference(scatter, values, cols)
    rng = np.random.default_rng(5)
    n = int(cols.max()) + 3 if cols.size else 3
    Y = rng.normal(size=(3, values.shape[0]))
    base = rng.normal(size=(3, n))
    ref = base.copy()
    _reference_add_into(values, cols, Y, ref)
    solo = base.copy()
    for j in range(3):
        scatter.add_into(Y[j], solo[j])
    assert np.array_equal(solo, ref)
    batched = base.copy()
    scatter.add_into_batch(Y, batched)
    assert np.array_equal(batched, ref)
    # ... and the single-member pass still works in member 0's planes.
    again = base[0].copy()
    scatter.add_into(Y[0], again)
    assert np.array_equal(again, ref[0])


def test_negative_column_key_is_rejected_at_build():
    """It used to wrap: key -1 scattered into the last unknown."""
    with pytest.raises(ValueError, match="negative column key -1"):
        SortedSegmentScatter(np.ones((3, 2)),
                             np.array([[0, -1], [1, -1], [2, 0]]))


def test_fused_column_scaling_is_bitwise_from_system(plan_system):
    """``from_system``'s docstring promise, for the operator that takes
    its norms from the packed block in one keyed reduction."""
    assert plan_system.dims.n_glob_params
    assert len(plan_system.constraints)
    fused = AprodOperator(plan_system)
    assert fused.plan is not None
    assert np.array_equal(ColumnScaling.from_operator(fused).scale,
                          ColumnScaling.from_system(plan_system).scale)
    mixed = AprodOperator(plan_system, gather_strategy=FUSED_GATHER,
                          scatter_strategy="bincount")
    assert np.array_equal(mixed.column_sq_norms(),
                          fused.column_sq_norms())


def test_mixed_strategy_reads_the_packed_columns(plan_system, rng):
    """Per-block kernels beside a plan run on slices of ``packed_cols``
    and give what they give on freshly derived columns."""
    y = rng.normal(size=plan_system.n_rows)
    mixed = AprodOperator(plan_system, gather_strategy=FUSED_GATHER,
                          scatter_strategy="bincount")
    classic = AprodOperator(plan_system, gather_strategy="vectorized",
                            scatter_strategy="bincount")
    assert np.shares_memory(mixed._att_cols, mixed.plan.packed_cols)
    assert np.array_equal(mixed.aprod2(y), classic.aprod2(y))


@pytest.fixture()
def argsort_built_plans(monkeypatch):
    """Every scatter built inside the test carries the reference
    (argsort) arrays in place of the ones it generated."""
    init = SortedSegmentScatter.__init__
    swapped = []

    def init_then_swap(self, values, cols):
        init(self, values, cols)
        for name, ref in zip(_SCATTER_ARRAYS,
                             _reference_scatter_arrays(values, cols)):
            setattr(self, name, ref)
        swapped.append(1)

    monkeypatch.setattr(SortedSegmentScatter, "__init__", init_then_swap)
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


def test_plan_hot_loop_reuses_one_scratch_plane(plan_system, rng):
    plan = AprodPlan(plan_system)
    d = plan_system.dims
    x = rng.normal(size=d.n_params)
    obs = np.zeros(d.n_obs)
    back = np.zeros(d.n_params)
    plan.aprod1(x, obs)
    plan.aprod2(obs, back)
    expected = back.copy()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    plan.aprod1(x, obs)
    plan.aprod2(obs, back)
    plan.aprod1(x, obs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak - base < 4096
    # The batched products borrow the same planes (the solo plane is
    # member 0): interleaving them must leave the solo products alone.
    obs[:] = 0.0
    back[:] = 0.0
    X = rng.normal(size=(3, d.n_params))
    plan.aprod1(x, obs)
    Y = plan_system.rhs()[: d.n_obs] * np.arange(1, 4)[:, None]
    plan.aprod1_batch(X, np.zeros((3, d.n_obs)))
    plan.aprod2_batch(Y, np.zeros((3, d.n_params)))
    plan.aprod2(obs, back)
    assert np.array_equal(back, expected)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("shape", [
    dict(n_stars=200, n_obs=FUSED_MIN_OBS, n_deg_freedom_att=24,
         n_instr_params=30, n_glob_params=1),
    dict(n_stars=300, n_obs=8948, n_deg_freedom_att=12,
         n_instr_params=18, n_glob_params=0),
    dict(n_stars=900, n_obs=20_000, n_deg_freedom_att=40,
         n_instr_params=60, n_glob_params=1),
])
def test_plan_workspace_bytes_is_what_a_plan_holds(shape, batch):
    """The number ``select_strategies`` budgets with and the tuning
    report quotes is the footprint of the plan it stands for."""
    dims = SystemDims(**shape)
    plan = AprodPlan(make_system(dims, seed=1))
    plan.ensure_batch(batch)
    held = plan.workspace_nbytes
    assert abs(plan_workspace_bytes(dims, batch) - held) / held <= 0.01
