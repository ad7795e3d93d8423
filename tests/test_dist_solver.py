"""Tests for the decomposition and the distributed LSQR."""

import numpy as np
import pytest

from repro.core.aprod import AprodOperator
from repro.core.lsqr import lsqr_solve
from repro.dist.decomposition import partition_by_rows, slice_system
from repro.dist.runner import distributed_lsqr_solve


# ----------------------------------------------------------------------
# Decomposition
# ----------------------------------------------------------------------
def test_partition_covers_all_rows(small_system):
    blocks = partition_by_rows(small_system, 4)
    assert blocks[0].row_start == 0
    assert blocks[-1].row_stop == small_system.dims.n_obs
    for a, b in zip(blocks, blocks[1:]):
        assert a.row_stop == b.row_start
    assert sum(b.n_rows for b in blocks) == small_system.dims.n_obs


def test_partition_is_star_aligned(small_system):
    star = small_system.star_ids
    for block in partition_by_rows(small_system, 5):
        if 0 < block.row_start < star.size:
            assert star[block.row_start] != star[block.row_start - 1]


def test_partition_is_roughly_balanced(small_system):
    blocks = partition_by_rows(small_system, 4)
    sizes = [b.n_rows for b in blocks]
    assert max(sizes) < 2 * min(sizes)


def test_constraints_assigned_to_last_rank(small_system):
    blocks = partition_by_rows(small_system, 3)
    assert [b.owns_constraints for b in blocks] == [False, False, True]


def test_partition_rejects_shuffled_when_aligned(shuffled_system):
    with pytest.raises(ValueError, match="star-sorted"):
        partition_by_rows(shuffled_system, 2)
    blocks = partition_by_rows(shuffled_system, 2, align_to_stars=False)
    assert sum(b.n_rows for b in blocks) == shuffled_system.dims.n_obs


def test_partition_bounds(small_system):
    with pytest.raises(ValueError):
        partition_by_rows(small_system, 0)
    with pytest.raises(ValueError):
        partition_by_rows(small_system, small_system.dims.n_obs + 1)


def test_slice_system_local_aprod_sums_to_global(small_system, rng):
    """Row-block aprod2 partials sum to the global A^T y."""
    blocks = partition_by_rows(small_system, 3)
    y = rng.normal(size=small_system.n_rows)
    global_out = AprodOperator(small_system).aprod2(y)
    total = np.zeros(small_system.dims.n_params)
    for block in blocks:
        local = slice_system(small_system, block)
        y_local = y[block.row_start:block.row_stop]
        if block.owns_constraints:
            y_local = np.concatenate(
                [y_local, y[small_system.dims.n_obs:]]
            )
        total += AprodOperator(local).aprod2(y_local)
    assert np.allclose(total, global_out, rtol=1e-12)


def test_sliced_systems_validate(small_system):
    for block in partition_by_rows(small_system, 3):
        slice_system(small_system, block).validate()


# ----------------------------------------------------------------------
# Distributed solve
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 5, 8])
def test_distributed_matches_serial(small_system, n_ranks):
    serial = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    dist = distributed_lsqr_solve(small_system, n_ranks, atol=1e-12)
    rel = np.linalg.norm(dist.x - serial.x) / np.linalg.norm(serial.x)
    assert rel < 1e-9
    assert dist.n_ranks == n_ranks
    assert abs(dist.itn - serial.itn) <= 3


def test_distributed_iteration_counts_match(small_system):
    d1 = distributed_lsqr_solve(small_system, 1, atol=1e-12)
    d3 = distributed_lsqr_solve(small_system, 3, atol=1e-12)
    # Same algorithm, same stopping rule; rounding may move it by a hair.
    assert abs(d1.itn - d3.itn) <= 2


def test_distributed_without_preconditioning(small_system):
    serial = lsqr_solve(small_system, atol=1e-12, btol=1e-12,
                        precondition=False)
    dist = distributed_lsqr_solve(small_system, 2, atol=1e-12,
                                  precondition=False)
    rel = np.linalg.norm(dist.x - serial.x) / np.linalg.norm(serial.x)
    assert rel < 1e-9


def test_max_over_ranks_timing_protocol(small_system):
    dist = distributed_lsqr_solve(small_system, 2, atol=1e-10)
    assert len(dist.max_iteration_times) == dist.itn
    assert dist.mean_iteration_time > 0
    assert all(t >= 0 for t in dist.max_iteration_times)


def test_distributed_standard_errors_match_serial(small_system):
    from repro.core.variance import standard_errors

    serial = lsqr_solve(small_system, atol=1e-12, btol=1e-12)
    dist = distributed_lsqr_solve(small_system, 3, atol=1e-12)
    se_serial = standard_errors(serial)
    se_dist = dist.standard_errors()
    assert np.allclose(se_dist, se_serial, rtol=1e-5)


def test_distributed_calc_var_off(small_system):
    dist = distributed_lsqr_solve(small_system, 2, calc_var=False)
    with pytest.raises(ValueError, match="calc_var"):
        dist.standard_errors()
