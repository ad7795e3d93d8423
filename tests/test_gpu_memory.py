"""Unit tests for the device memory model."""

import pytest

from repro.gpu.memory import (
    DeviceMemory,
    DeviceOutOfMemory,
    CoherenceMode,
    fits,
)
from repro.gpu.platforms import T4, V100


def test_alloc_and_free():
    mem = DeviceMemory(T4)
    a = mem.alloc("matrix", 4 * 2**30)
    assert a.nbytes == 4 * 2**30
    assert mem.used_bytes == 4 * 2**30
    assert mem.free_bytes == T4.memory_bytes - 4 * 2**30
    mem.free("matrix")
    assert mem.used_bytes == 0


def test_oom_raises_with_context():
    mem = DeviceMemory(T4)
    with pytest.raises(DeviceOutOfMemory, match="T4"):
        mem.alloc("matrix", 16 * 2**30)


def test_oom_accounts_for_existing_allocations():
    mem = DeviceMemory(T4)
    mem.alloc("a", 10 * 2**30)
    with pytest.raises(DeviceOutOfMemory):
        mem.alloc("b", 6 * 2**30)
    mem.alloc("b", 4 * 2**30)  # fits after all


def test_duplicate_name_rejected():
    mem = DeviceMemory(T4)
    mem.alloc("x", 1)
    with pytest.raises(ValueError, match="already exists"):
        mem.alloc("x", 1)


def test_free_unknown_name():
    mem = DeviceMemory(T4)
    with pytest.raises(KeyError):
        mem.free("nope")


def test_negative_size_rejected():
    mem = DeviceMemory(T4)
    with pytest.raises(ValueError):
        mem.alloc("x", -1)
    with pytest.raises(ValueError):
        mem.transfer_time(-1)


def test_reset():
    mem = DeviceMemory(T4)
    mem.alloc("x", 5)
    mem.reset()
    assert mem.used_bytes == 0


def test_coherence_modes_recorded():
    mem = DeviceMemory(T4)
    a = mem.alloc("fine", 8, coherence=CoherenceMode.FINE_GRAIN)
    assert a.coherence is CoherenceMode.FINE_GRAIN
    b = mem.alloc("coarse", 8)
    assert b.coherence is CoherenceMode.COARSE_GRAIN


def test_transfer_time_scales_with_size():
    mem = DeviceMemory(V100)
    t1 = mem.transfer_time(2**30)
    t2 = mem.transfer_time(2 * 2**30)
    assert t2 > t1 > 0
    # 1 GiB over 12 GB/s ~ 90 ms.
    assert t1 == pytest.approx(2**30 / 12e9, rel=0.01)


def test_fits_helper():
    assert fits(T4, 10 * 2**30)
    assert not fits(T4, 16 * 2**30)
