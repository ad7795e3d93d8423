"""Unit tests for GB <-> dimension accounting."""

import pytest

from repro.system.sizing import (
    BYTES_PER_OBSERVATION,
    dims_from_gb,
    device_footprint_bytes,
    system_from_gb,
    system_size_gb,
    device_footprint_gb,
)


def test_bytes_per_observation_accounting():
    # 24 float64 values + int64 astro idx + int64 att idx + 6 int32
    # instr cols + float64 known term.
    assert BYTES_PER_OBSERVATION == 24 * 8 + 8 + 8 + 24 + 8


def test_round_trip_size():
    # Row counts are integers, so the round trip is exact up to one
    # row's worth of bytes.
    for gb in (0.01, 0.5, 10.0, 30.0, 60.0):
        dims = dims_from_gb(gb)
        quantum = BYTES_PER_OBSERVATION / 2**30
        assert abs(system_size_gb(dims) - gb) <= quantum


def test_paper_scale_row_counts():
    dims = dims_from_gb(10.0)
    # 10 GiB / 240 B per row ~ 44.7M observation rows.
    assert dims.n_obs == pytest.approx(10 * 2**30 / 240, abs=1)
    # Astrometric unknowns dominate the column space.
    assert dims.n_astro_params > 0.8 * dims.n_params


def test_footprint_exceeds_matrix_size():
    dims = dims_from_gb(10.0)
    assert device_footprint_bytes(dims) > 10 * 2**30
    assert device_footprint_gb(dims) == pytest.approx(
        device_footprint_bytes(dims) / 2**30
    )


def test_paper_capacity_exclusions():
    """T4 loses 30 GB; only H100/MI250X hold 60 GB (SSV-B)."""
    from repro.gpu.memory import fits
    from repro.gpu.platforms import A100, H100, MI250X, T4, V100

    need30 = device_footprint_bytes(dims_from_gb(30.0))
    assert not fits(T4, need30)
    for dev in (V100, A100, H100, MI250X):
        assert fits(dev, need30)

    need60 = device_footprint_bytes(dims_from_gb(60.0))
    assert fits(H100, need60)
    assert fits(MI250X, need60)
    assert not fits(A100, need60)
    assert not fits(V100, need60)


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        dims_from_gb(0.0)
    with pytest.raises(ValueError):
        dims_from_gb(float("nan"))


def test_system_from_gb_guards_against_large_allocations():
    with pytest.raises(ValueError, match="refusing to allocate"):
        system_from_gb(10.0)


def test_system_from_gb_small_allocation_works():
    system = system_from_gb(0.002, seed=1)
    assert system_size_gb(system.dims) == pytest.approx(0.002, rel=1e-3)
    system.validate()
