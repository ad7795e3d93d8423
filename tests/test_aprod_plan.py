"""The fused aprod plan layer (repro.core.kernels.plan).

Property-based pins of the two plan primitives against the ``loop``
reference kernels (random shapes, duplicate-column collisions), plus
the plan/operator integration contracts: strategy auto-resolution,
empty-glob systems, bitwise determinism of the sorted-segment scatter,
telemetry side channels, and the workspace accounting the engine
reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aprod import FUSED_KERNEL_NAMES, AprodOperator
from repro.core.engine import LSQRStepEngine, SerialReduction
from repro.core.kernels.gather_scatter import gather_dot, scatter_add
from repro.core.kernels.plan import (
    FUSED_GATHER,
    FUSED_MIN_OBS,
    PLAN_BUDGET_BYTES,
    SORTED_SEGMENT_SCATTER,
    SortedSegmentScatter,
    fused_gather_dot,
    plan_workspace_bytes,
    select_strategies,
)
from repro.core.lsqr import lsqr_solve
from repro.core.precond import ColumnScaling, PreconditionedAprod
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
