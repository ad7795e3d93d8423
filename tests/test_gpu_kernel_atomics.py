"""Unit tests for launch geometry, atomics and the timing model."""

import pytest

from repro.gpu import AtomicMode, LaunchConfig, atomic_time, kernel_time
from repro.gpu.atomics import collision_pressure
from repro.gpu.kernel import (
    default_geometry,
    geometry_efficiency,
    grid_for,
    tuned_geometry,
)
from repro.gpu.platforms import ALL_DEVICES, H100, MI250X, T4
from repro.gpu.timing import KernelWork
from repro.gpu.workload import build_iteration_workload
from repro.system.sizing import dims_from_gb


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
def test_grid_for_covers_work():
    cfg = grid_for(1000, 256)
    assert cfg.blocks == 4
    assert cfg.total_threads >= 1000


def test_grid_for_cap():
    cfg = grid_for(10**6, 256, max_blocks=8)
    assert cfg.blocks == 8


def test_launch_config_validation():
    with pytest.raises(ValueError):
        LaunchConfig(threads_per_block=0, blocks=1)
    with pytest.raises(ValueError):
        LaunchConfig(threads_per_block=2048, blocks=1)
    with pytest.raises(ValueError):
        LaunchConfig(threads_per_block=32, blocks=0)
    with pytest.raises(ValueError):
        grid_for(0, 32)


def test_geometry_efficiency_peaks_at_optimum():
    n = 10**7
    best = geometry_efficiency(T4, grid_for(n, T4.optimal_threads_per_block))
    worse = geometry_efficiency(T4, grid_for(n, 256))
    assert best == pytest.approx(1.0)
    assert worse < best
    # H100 is much flatter (SSV-B: 256 efficient on H100, poor on T4).
    h_best = geometry_efficiency(H100, grid_for(n, 256))
    h_alt = geometry_efficiency(H100, grid_for(n, 32))
    assert h_best == pytest.approx(1.0)
    assert h_alt > worse


def test_pstl_fixed_256_against_the_block_size_optimum():
    """SSV-B's PSTL geometry study: the optimum is 32 on T4/V100, 256 on
    A100/H100 and one 64-wide wavefront on MI250X, and PSTL's fixed 256
    costs T4 the 30-45 % gap."""
    workload = build_iteration_workload(dims_from_gb(10.0))
    block_sizes = (32, 64, 128, 256, 512)

    def iteration_time(device, tpb):
        grid = grid_for(workload.dims.n_obs, tpb)
        return sum(
            kernel_time(device, w, grid,
                        atomic_mode=(AtomicMode.RMW if w.atomic_updates
                                     else AtomicMode.NONE)).total
            for w in workload.all_kernels)

    sweep = {device.name: {tpb: iteration_time(device, tpb)
                           for tpb in block_sizes}
             for device in ALL_DEVICES}
    best = {name: min(row, key=row.get) for name, row in sweep.items()}
    assert best == {"T4": 32, "V100": 32, "A100": 256, "H100": 256,
                    "MI250X": 64}
    assert 1.3 < sweep["T4"][256] / sweep["T4"][32] < 1.9


def test_small_grids_underutilize():
    full = geometry_efficiency(T4, grid_for(10**7, 32))
    tiny = geometry_efficiency(T4, LaunchConfig(threads_per_block=32,
                                                blocks=2))
    assert tiny < 0.2 * full


def test_subwarp_blocks_waste_lanes():
    # 16-thread blocks on a 64-wide wavefront machine waste 3/4 lanes.
    wide = geometry_efficiency(MI250X, grid_for(10**7, 64))
    narrow = geometry_efficiency(MI250X, grid_for(10**7, 16))
    assert narrow < wide


def test_default_and_tuned_geometry():
    assert default_geometry(T4, 10**6).threads_per_block == 256
    t = tuned_geometry(T4, 10**6)
    assert t.threads_per_block == 32
    capped = tuned_geometry(T4, 10**6, atomic_region=True)
    assert capped.blocks <= 4 * T4.sm_count


# ----------------------------------------------------------------------
# Atomics
# ----------------------------------------------------------------------
def test_collision_pressure_bounded_by_inflight():
    c_full = collision_pressure(H100, 10**9, 50_000)
    c_small = collision_pressure(H100, 10**9, 50_000,
                                 inflight_threads=5_000)
    assert c_small <= 1.0 < c_full


def test_atomic_time_zero_without_atomics():
    assert atomic_time(H100, 0, 10, AtomicMode.RMW) == 0.0
    assert atomic_time(H100, 10**6, 10, AtomicMode.NONE) == 0.0


def test_cas_costs_more_than_rmw():
    rmw = atomic_time(MI250X, 10**8, 10**4, AtomicMode.RMW)
    cas = atomic_time(MI250X, 10**8, 10**4, AtomicMode.CAS_LOOP)
    assert cas > 10 * rmw  # the SSV-B MI250X cliff
    # On the attitude scatter of a 10 GB iteration the MI250X cliff
    # dwarfs the NVIDIA one.
    (att,) = [w for w in build_iteration_workload(dims_from_gb(10.0)).aprod2
              if w.name == "aprod2_att"]

    def ratio(device):
        return (atomic_time(device, att.atomic_updates, att.atomic_targets,
                            AtomicMode.CAS_LOOP)
                / atomic_time(device, att.atomic_updates,
                              att.atomic_targets, AtomicMode.RMW))

    assert ratio(MI250X) > 10
    assert ratio(MI250X) > 3 * ratio(H100)


def test_contention_increases_cost():
    sparse = atomic_time(H100, 10**8, 10**7, AtomicMode.RMW)
    dense = atomic_time(H100, 10**8, 10**2, AtomicMode.RMW)
    assert dense > sparse


def test_atomic_validation():
    with pytest.raises(ValueError):
        collision_pressure(H100, -1, 10)
    with pytest.raises(ValueError):
        collision_pressure(H100, 10, 0)
    with pytest.raises(ValueError):
        atomic_time(H100, 10, 5, AtomicMode.RMW, inflight_threads=0)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _work(**kw):
    base = dict(name="k", streamed_bytes=1e9, random_accesses=0.0,
                flops=1e6)
    base.update(kw)
    return KernelWork(**base)


def test_kernel_time_memory_bound():
    cfg = grid_for(10**7, 256)
    t = kernel_time(H100, _work(), cfg)
    assert t.memory > t.compute
    assert t.total == pytest.approx(t.launch + t.memory + t.atomics)
    # 1 GB over ~2.9 TB/s effective -> ~0.34 ms.
    assert t.memory == pytest.approx(
        1e9 / (H100.peak_bandwidth_bytes * H100.stream_efficiency),
        rel=1e-6,
    )


def test_random_accesses_amplified():
    cfg = grid_for(10**7, 256)
    streamed = kernel_time(MI250X, _work(), cfg).memory
    random = kernel_time(
        MI250X, _work(streamed_bytes=0.0, random_accesses=1e9 / 8), cfg
    ).memory
    # 1 GB touched via isolated 8-byte accesses costs ~16x on CDNA2.
    assert random > 10 * streamed


def test_overhead_factor_applies_to_data_terms():
    cfg = grid_for(10**7, 256)
    t1 = kernel_time(H100, _work(), cfg, overhead_factor=1.0)
    t2 = kernel_time(H100, _work(), cfg, overhead_factor=1.5)
    assert t2.memory == pytest.approx(1.5 * t1.memory)
    assert t2.launch == t1.launch
    with pytest.raises(ValueError):
        kernel_time(H100, _work(), cfg, overhead_factor=0.9)


def test_geometry_divides_all_data_terms():
    work = _work(atomic_updates=10**7, atomic_targets=10**4)
    good = kernel_time(T4, work, grid_for(10**7, 32),
                       atomic_mode=AtomicMode.RMW)
    bad = kernel_time(T4, work, grid_for(10**7, 256),
                      atomic_mode=AtomicMode.RMW)
    assert bad.memory > good.memory
    assert bad.atomics >= good.atomics


def test_kernel_work_validation():
    with pytest.raises(ValueError):
        KernelWork(name="k", streamed_bytes=-1, random_accesses=0, flops=0)
    with pytest.raises(ValueError):
        KernelWork(name="k", streamed_bytes=0, random_accesses=0, flops=0,
                   atomic_updates=5, atomic_targets=0)
