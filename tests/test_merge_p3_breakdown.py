"""Tests for system merging and the breakdown table."""

import numpy as np
import pytest

from repro.core.lsqr import lsqr_solve
from repro.frameworks.executor import breakdown_table
from repro.frameworks.registry import ALL_PORTS
from repro.gpu.platforms import H100, MI250X
from repro.system.generator import make_system
from repro.system.merge import concatenate_systems, split_rows
from repro.system.sizing import dims_from_gb
from repro.system.structure import SystemDims


# ----------------------------------------------------------------------
# Merge / split
# ----------------------------------------------------------------------
def test_split_then_merge_is_identity(small_system):
    a, b = split_rows(small_system, 200)
    merged = concatenate_systems(a, b)
    merged.validate()
    assert merged.dims == small_system.dims
    # Star-sorted merge of a star-sorted split reproduces the data.
    r_full = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    r_merge = lsqr_solve(merged, atol=1e-12, btol=1e-12)
    assert np.allclose(r_full.x, r_merge.x, rtol=1e-10)


def test_merge_of_independent_segments(small_dims):
    """Two segments generated over the same unknown space merge into a
    solvable combined system with more constraints on the solution."""
    x_true = make_system(small_dims, seed=1).meta["x_true"]
    seg1 = make_system(small_dims, seed=1, x_true=x_true,
                       noise_sigma=1e-9)
    seg2 = make_system(small_dims, seed=2, x_true=x_true,
                       noise_sigma=1e-9)
    merged = concatenate_systems(seg1, seg2)
    assert merged.dims.n_obs == 2 * small_dims.n_obs
    res = lsqr_solve(merged, atol=1e-12, btol=1e-12)
    err_merged = np.linalg.norm(res.x - x_true)
    err_single = np.linalg.norm(
        lsqr_solve(seg1, atol=1e-12, btol=1e-12).x - x_true
    )
    # Twice the data cannot hurt the fit.
    assert err_merged < err_single * 1.1


def test_merge_keeps_star_sorting(small_system):
    a, b = split_rows(small_system, 301)
    merged = concatenate_systems(a, b)
    assert np.all(np.diff(merged.star_ids) >= 0)


@pytest.mark.parametrize("resort", [True, False])
def test_merge_is_the_stable_sort_of_the_concatenation(small_dims, resort):
    """Reference: each merged array is the two inputs concatenated and,
    when resorting, taken in stable star order -- bit for bit."""
    a = make_system(small_dims, seed=3)
    b = make_system(small_dims, seed=4, shuffle_rows=True,
                    with_constraints=False)
    merged = concatenate_systems(a, b, resort=resort)
    stars = np.concatenate([a.matrix_index_astro, b.matrix_index_astro])
    order = (np.argsort(stars, kind="stable") if resort
             else np.arange(stars.size))
    for name in ("coefficients", "matrix_index_astro", "matrix_index_att",
                 "instr_col", "known_terms"):
        want = np.concatenate([getattr(a, name), getattr(b, name)])[order]
        got = getattr(merged, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_merge_rejects_different_spaces(small_system, noglob_system):
    with pytest.raises(ValueError, match="unknown spaces"):
        concatenate_systems(small_system, noglob_system)


def test_split_bounds(small_system):
    with pytest.raises(ValueError):
        split_rows(small_system, 0)
    with pytest.raises(ValueError):
        split_rows(small_system, small_system.dims.n_obs)


# ----------------------------------------------------------------------
# Breakdown table
# ----------------------------------------------------------------------
def test_breakdown_table_phases_sum():
    text = breakdown_table(ALL_PORTS, H100, dims_from_gb(10.0),
                           size_gb=10.0)
    lines = text.splitlines()
    assert "Iteration breakdown on H100" in lines[0]
    cuda = next(ln for ln in lines if ln.startswith("CUDA"))
    cols = cuda.split()
    a1, a2, vec, press, resid, total = map(float, cols[1:])
    assert (a1 + a2 + vec) * press * resid == pytest.approx(total,
                                                            rel=1e-3)
    # aprod2 (the atomic scatters) dominates, per the paper's profile.
    assert a2 > a1 > vec


def test_breakdown_table_marks_unsupported():
    text = breakdown_table(ALL_PORTS, MI250X, dims_from_gb(10.0),
                           size_gb=10.0)
    cuda = next(ln for ln in text.splitlines()
                if ln.startswith("CUDA"))
    assert "unsupported" in cuda
