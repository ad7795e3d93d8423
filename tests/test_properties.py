"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aprod import AprodOperator
from repro.core.kernels import gather_scatter
from repro.portability.metrics import (
    application_efficiency,
    harmonic_mean,
    pennycook_p,
)
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation.compare import PortOperator

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
dims_strategy = st.builds(
    SystemDims,
    n_stars=st.integers(2, 12),
    n_obs=st.integers(40, 120),
    n_deg_freedom_att=st.integers(4, 10),
    n_instr_params=st.integers(6, 15),
    n_glob_params=st.integers(0, 1),
)


@st.composite
def system_strategy(draw):
    dims = draw(dims_strategy)
    seed = draw(st.integers(0, 2**16))
    shuffle = draw(st.booleans())
    return make_system(dims, seed=seed, shuffle_rows=shuffle)


finite_eff = st.floats(min_value=0.01, max_value=1.0)


# ----------------------------------------------------------------------
# aprod invariants
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(system=system_strategy(), seed=st.integers(0, 2**16))
def test_aprod_adjointness(system, seed):
    """<A x, y> == <x, A^T y> for every generated structure."""
    rng = np.random.default_rng(seed)
    op = AprodOperator(system)
    x = rng.normal(size=op.shape[1])
    y = rng.normal(size=op.shape[0])
    lhs = float(np.dot(op.aprod1(x), y))
    rhs = float(np.dot(x, op.aprod2(y)))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) / scale < 1e-10


@settings(max_examples=25, deadline=None)
@given(system=system_strategy(), seed=st.integers(0, 2**16),
       a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_aprod_linearity(system, seed, a, b):
    rng = np.random.default_rng(seed)
    op = AprodOperator(system)
    x1 = rng.normal(size=op.shape[1])
    x2 = rng.normal(size=op.shape[1])
    lhs = op.aprod1(a * x1 + b * x2)
    rhs = a * op.aprod1(x1) + b * op.aprod1(x2)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(system=system_strategy(), seed=st.integers(0, 2**16))
def test_scatter_strategies_agree_on_any_structure(system, seed):
    """Every port variant's ``aprod2`` agrees with the compiled plan's
    (the star-segment ones on star-sorted rows only)."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=system.n_rows)
    ref = AprodOperator(system).aprod2(y)
    sorted_rows = bool(np.all(np.diff(system.matrix_index_astro) >= 0))
    for atomic in (False, True):
        for star_sorted in {False, sorted_rows}:
            alt = PortOperator(system, atomic=atomic,
                               star_sorted=star_sorted).aprod2(y)
            assert np.allclose(alt, ref, rtol=1e-10, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 60), k=st.integers(1, 8), n=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_gather_scatter_duality(m, k, n, seed):
    """sum(gather_dot(x)) over rows with y == scatter_add(y) dotted
    with x -- both compute y^T A x."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, k))
    cols = rng.integers(0, n, size=(m, k))
    x = rng.normal(size=n)
    y = rng.normal(size=m)
    g = np.zeros(m)
    gather_scatter.gather_dot(values, cols, x, g)
    s = np.zeros(n)
    gather_scatter.scatter_add(values, cols, y, s)
    assert float(np.dot(g, y)) == pytest.approx(float(np.dot(s, x)),
                                                rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(values=st.lists(finite_eff, min_size=1, max_size=8))
def test_harmonic_mean_bounds(values):
    hm = harmonic_mean(values)
    assert min(values) - 1e-12 <= hm <= max(values) + 1e-12
    assert hm <= sum(values) / len(values) + 1e-12


@settings(max_examples=50, deadline=None)
@given(effs=st.dictionaries(st.sampled_from(["P1", "P2", "P3", "P4"]),
                            finite_eff, min_size=1, max_size=4))
def test_p_bounded_by_extremes(effs):
    platforms = tuple(effs)
    p = pennycook_p(effs, platforms)
    assert min(effs.values()) - 1e-12 <= p <= max(effs.values()) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    t1=st.floats(0.1, 10), t2=st.floats(0.1, 10),
    t3=st.floats(0.1, 10), t4=st.floats(0.1, 10),
    scale=st.floats(0.01, 100),
)
def test_p_invariance_under_platform_rescaling(t1, t2, t3, t4, scale):
    """Multiplying every port's time on one platform by the same factor
    leaves efficiencies (hence P) unchanged."""
    times = {"a": {"P1": t1, "P2": t2}, "b": {"P1": t3, "P2": t4}}
    scaled = {k: {"P1": v["P1"] * scale, "P2": v["P2"]}
              for k, v in times.items()}
    e1 = application_efficiency(times, ("P1", "P2"))
    e2 = application_efficiency(scaled, ("P1", "P2"))
    for port in ("a", "b"):
        for plat in ("P1", "P2"):
            assert e1[port][plat] == pytest.approx(e2[port][plat])


@settings(max_examples=50, deadline=None)
@given(effs=st.lists(finite_eff, min_size=2, max_size=6),
       extra=finite_eff)
def test_adding_a_worse_platform_lowers_p(effs, extra):
    """P over a superset including a platform at the current minimum
    efficiency or lower can only drop."""
    platforms = tuple(f"P{i}" for i in range(len(effs)))
    base = pennycook_p(dict(zip(platforms, effs)), platforms)
    lower = min(min(effs), extra)
    bigger = dict(zip(platforms, effs))
    bigger["PX"] = lower
    p2 = pennycook_p(bigger, platforms + ("PX",))
    assert p2 <= base + 1e-12


# ----------------------------------------------------------------------
# Serialization / decomposition round trips
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(system=system_strategy())
def test_serialization_roundtrip_property(system, tmp_path_factory):
    from repro.system.dataset import load_system, save_system

    path = tmp_path_factory.mktemp("ds") / "sys.npz"
    loaded = load_system(save_system(system, path))
    assert np.array_equal(loaded.known_terms, system.known_terms)
    assert np.array_equal(loaded.instr_col, system.instr_col)
    assert loaded.dims == system.dims


@settings(max_examples=15, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**16),
       n_ranks=st.integers(1, 5))
def test_partition_reassembly_roundtrip(dims, seed, n_ranks):
    from repro.dist.decomposition import partition_by_rows, slice_system

    system = make_system(dims, seed=seed)
    n_ranks = min(n_ranks, dims.n_stars)
    blocks = partition_by_rows(system, n_ranks)
    pieces = [slice_system(system, b) for b in blocks]
    rebuilt = np.concatenate([p.known_terms for p in pieces])
    assert np.array_equal(rebuilt, system.known_terms)
    rebuilt_idx = np.concatenate([p.matrix_index_astro for p in pieces])
    assert np.array_equal(rebuilt_idx, system.matrix_index_astro)
