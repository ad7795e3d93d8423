"""Unit tests for device specs and the platform roster."""

import dataclasses

import pytest

from repro.gpu.device import DeviceSpec, Vendor
from repro.gpu.platforms import (
    ALL_DEVICES,
    A100,
    H100,
    MI250X,
    T4,
    V100,
    device_by_name,
    CLUSTER_OF_DEVICE,
)


def test_roster_matches_paper():
    names = [d.name for d in ALL_DEVICES]
    assert names == ["T4", "V100", "A100", "H100", "MI250X"]
    assert sum(d.vendor is Vendor.NVIDIA for d in ALL_DEVICES) == 4
    assert MI250X.vendor is Vendor.AMD


def test_cluster_table():
    assert CLUSTER_OF_DEVICE["H100"] == "GraceHopper"
    assert CLUSTER_OF_DEVICE["MI250X"] == "Setonix"
    assert set(CLUSTER_OF_DEVICE) == {d.name for d in ALL_DEVICES}


def test_memory_ordering_enables_paper_exclusions():
    assert T4.memory_gb < 30 < V100.memory_gb
    assert A100.memory_gb < 60 < H100.memory_gb
    assert MI250X.memory_gb > 60


def test_bandwidth_ordering():
    # Newer boards are faster -- the Fig. 4 left-to-right trend.
    assert T4.mem_bandwidth_gbs < V100.mem_bandwidth_gbs
    assert V100.mem_bandwidth_gbs < A100.mem_bandwidth_gbs
    assert A100.mem_bandwidth_gbs < H100.mem_bandwidth_gbs


def test_block_size_optima_from_paper():
    # SSV-B: 32 threads/block optimal on T4/V100, 256 on A100/H100.
    assert T4.optimal_threads_per_block == 32
    assert V100.optimal_threads_per_block == 32
    assert A100.optimal_threads_per_block == 256
    assert H100.optimal_threads_per_block == 256
    assert MI250X.warp_size == 64


def test_mi250x_noncoalesced_penalty():
    # The SSV-B non-coalesced access hypothesis: wider transactions.
    assert MI250X.random_transaction_bytes > H100.random_transaction_bytes
    assert MI250X.cas_loop_factor > H100.cas_loop_factor


def test_device_by_name():
    assert device_by_name("A100") is A100
    with pytest.raises(KeyError, match="unknown device"):
        device_by_name("B200")


def test_spec_validation():
    base = dataclasses.asdict(T4)
    for field, bad in [("memory_gb", 0.0), ("stream_efficiency", 1.5),
                       ("cas_loop_factor", 0.5)]:
        kwargs = dict(base)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)


def test_derived_properties():
    assert T4.memory_bytes == int(15 * 2**30)
    assert H100.peak_bandwidth_bytes == pytest.approx(3.35e12)
    assert MI250X.random_amplification == pytest.approx(16.0)
