"""Unit tests for stream scheduling, the profiler and workload counts."""

import pytest

from repro.gpu.kernel import grid_for
from repro.gpu.profiler import Profiler, KernelEvent
from repro.gpu.stream import StreamSchedule
from repro.gpu.timing import KernelTiming
from repro.gpu.workload import build_iteration_workload
from repro.system.structure import SystemDims


def _timing(name="k", launch=1e-6, memory=1e-3, compute=1e-4,
            atomics=0.0) -> KernelTiming:
    return KernelTiming(name=name, launch=launch, memory=memory,
                        compute=compute, atomics=atomics)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def test_empty_schedule():
    s = StreamSchedule()
    assert s.makespan() == 0.0
    assert s.overlap_gain() == 1.0


def test_single_stream_serializes():
    s = StreamSchedule()
    s.submit(0, _timing())
    s.submit(0, _timing())
    assert s.makespan() == pytest.approx(s.serial_time())


def test_memory_bound_kernels_do_not_overlap():
    """Bandwidth serializes: two memory-bound kernels on two streams
    still take the sum of their memory times."""
    s = StreamSchedule()
    s.submit(0, _timing(memory=1e-3))
    s.submit(1, _timing(memory=1e-3))
    assert s.makespan() >= 2e-3


def test_launch_overhead_hidden_by_overlap():
    s = StreamSchedule()
    for i in range(4):
        s.submit(i, _timing(launch=1e-4, memory=1e-3))
    # Serial pays 4 launches; overlapped pays one on the critical path.
    assert s.makespan() < s.serial_time()
    assert s.overlap_gain() > 1.0


def test_negative_stream_rejected():
    with pytest.raises(ValueError):
        StreamSchedule().submit(-1, _timing())


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_aggregation():
    p = Profiler()
    cfg = grid_for(1000, 256)
    p.record(KernelEvent("aprod1_astro", cfg, _timing(memory=2e-3)))
    p.record(KernelEvent("aprod2_att", cfg, _timing(memory=3e-3)))
    p.record(KernelEvent("vector_ops", cfg, _timing(memory=1e-4)))
    by = p.by_kernel()
    assert by["aprod2_att"] > by["aprod1_astro"] > by["vector_ops"]
    assert p.fraction("aprod") > 0.9
    assert p.threads_per_block() == {256}
    assert "aprod2_att" in p.summary()


def test_profiler_empty():
    p = Profiler()
    assert p.total_time() == 0.0
    assert p.fraction("aprod") == 0.0


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    dims = SystemDims(n_stars=1000, n_obs=24_000, n_deg_freedom_att=64,
                      n_instr_params=60, n_glob_params=1)
    return dims, build_iteration_workload(dims)


def test_workload_kernel_names(workload):
    dims, w = workload
    assert [k.name for k in w.aprod1] == [
        "aprod1_astro", "aprod1_att", "aprod1_instr", "aprod1_glob"
    ]
    assert [k.name for k in w.aprod2] == [
        "aprod2_astro", "aprod2_att", "aprod2_instr", "aprod2_glob"
    ]


def test_workload_atomics_match_paper_structure(workload):
    """Only the attitude and instrumental aprod2 kernels need atomics
    (astro is block-diagonal, glob is a reduction) -- SSIV."""
    dims, w = workload
    by_name = {k.name: k for k in w.aprod2}
    assert by_name["aprod2_astro"].atomic_updates == 0
    assert by_name["aprod2_glob"].atomic_updates == 0
    assert by_name["aprod2_att"].atomic_updates == dims.n_obs * 12
    assert by_name["aprod2_att"].atomic_targets == dims.n_att_params
    assert by_name["aprod2_instr"].atomic_updates == dims.n_obs * 6
    assert by_name["aprod2_instr"].atomic_targets == dims.n_instr_params


def test_workload_traffic_scales_with_rows(workload):
    dims, w = workload
    half = build_iteration_workload(
        SystemDims(n_stars=1000, n_obs=12_000, n_deg_freedom_att=64,
                   n_instr_params=60, n_glob_params=1)
    )
    full_bytes = sum(k.streamed_bytes for k in w.all_kernels)
    half_bytes = sum(k.streamed_bytes for k in half.all_kernels)
    assert full_bytes > 1.8 * half_bytes


def test_workload_without_global_section():
    dims = SystemDims(n_stars=100, n_obs=2400, n_deg_freedom_att=16,
                      n_instr_params=12, n_glob_params=0)
    w = build_iteration_workload(dims)
    assert len(w.aprod1) == 3
    assert len(w.aprod2) == 3


def test_attitude_dominates_matrix_traffic(workload):
    """12 of the 24 per-row coefficients are attitude ones."""
    dims, w = workload
    by_name = {k.name: k for k in w.aprod1}
    assert by_name["aprod1_att"].streamed_bytes > (
        by_name["aprod1_astro"].streamed_bytes
    )
    assert by_name["aprod1_att"].streamed_bytes > (
        by_name["aprod1_instr"].streamed_bytes
    )
