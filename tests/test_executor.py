"""Unit tests for the modeled executor."""

import numpy as np
import pytest

from repro.frameworks import model_iteration, port_by_key, run_modeled
from repro.frameworks.base import UnsupportedPlatform
from repro.frameworks.executor import memory_pressure_factor
from repro.frameworks.registry import ALL_PORTS
from repro.gpu import Profiler
from repro.gpu.memory import DeviceOutOfMemory
from repro.gpu.platforms import ALL_DEVICES, A100, H100, MI250X, T4, V100
from repro.system.sizing import dims_from_gb


@pytest.fixture(scope="module")
def dims10():
    return dims_from_gb(10.0)


def test_cuda_on_amd_raises(dims10):
    with pytest.raises(UnsupportedPlatform):
        model_iteration(port_by_key("CUDA"), MI250X, dims10)


def test_oom_exclusion():
    dims30 = dims_from_gb(30.0)
    with pytest.raises(DeviceOutOfMemory):
        model_iteration(port_by_key("CUDA"), T4, dims30)


def test_breakdown_is_positive_and_dominated_by_aprod(dims10):
    m = model_iteration(port_by_key("CUDA"), H100, dims10)
    assert m.aprod1_time > 0 and m.aprod2_time > 0 and m.vector_time > 0
    # The paper's profiler check: aprod kernels dominate the iteration.
    assert (m.aprod1_time + m.aprod2_time) > 5 * m.vector_time
    assert m.total > 0


def test_profiler_sees_nine_kernels(dims10):
    prof = Profiler()
    model_iteration(port_by_key("CUDA"), H100, dims10, profiler=prof)
    names = [e.name for e in prof.events]
    assert len(names) == 9  # 4 + 4 + vector_ops
    assert prof.fraction("aprod") > 0.8


def test_pstl_profiler_shows_fixed_256(dims10):
    """The nsys observation of SSV-B: PSTL spans 256 threads/block on
    every architecture."""
    for device in (T4, V100, A100, H100, MI250X):
        prof = Profiler()
        model_iteration(port_by_key("PSTL+ACPP"), device, dims10,
                        profiler=prof)
        assert prof.threads_per_block() == {256}


def test_production_variant_about_2x_slower(dims10):
    """SSV-B: optimized CUDA is 2.0x the production code (on A100)."""
    opt = model_iteration(port_by_key("CUDA"), A100, dims10).total
    prod = model_iteration(port_by_key("CUDA"), A100, dims10,
                           variant="production").total
    assert prod / opt == pytest.approx(2.0, abs=0.35)
    # The speed-up is size-insensitive (the paper's 42 GB run needed
    # several A100s; the model measures it at sizes one A100 holds).
    for gb in (1.0, 30.0):
        dims = dims_from_gb(gb)
        ratio = (model_iteration(port_by_key("CUDA"), A100, dims,
                                 variant="production").total
                 / model_iteration(port_by_key("CUDA"), A100, dims).total)
        assert 1.5 < ratio < 2.6, gb


def test_unknown_variant_rejected(dims10):
    with pytest.raises(ValueError, match="variant"):
        model_iteration(port_by_key("CUDA"), H100, dims10,
                        variant="debug")


def test_untuned_slower_on_t4(dims10):
    tuned = model_iteration(port_by_key("CUDA"), T4, dims10,
                            tuned=True).total
    untuned = model_iteration(port_by_key("CUDA"), T4, dims10,
                              tuned=False).total
    assert untuned > 1.3 * tuned  # the up-to-40% tuning effect


def test_memory_pressure_kicks_in_near_capacity():
    hip = port_by_key("HIP")
    assert memory_pressure_factor(hip, V100, dims_from_gb(30.0)) > 1.0
    assert memory_pressure_factor(hip, V100, dims_from_gb(10.0)) == 1.0
    assert memory_pressure_factor(hip, H100, dims_from_gb(30.0)) == 1.0


def test_run_modeled_protocol(dims10):
    run = run_modeled(port_by_key("HIP"), H100, dims10, size_gb=10.0,
                      repetitions=3, jitter=0.01, seed=5)
    assert run.supported
    assert len(run.repetition_means) == 3
    assert run.mean_iteration_time > 0
    # Jitter is small: repetitions agree within a few percent.
    spread = np.ptp(run.repetition_means) / run.mean_iteration_time
    assert spread < 0.05


def test_run_modeled_determinism(dims10):
    a = run_modeled(port_by_key("HIP"), H100, dims10, size_gb=10.0, seed=5)
    b = run_modeled(port_by_key("HIP"), H100, dims10, size_gb=10.0, seed=5)
    assert a.repetition_means == b.repetition_means


def test_every_run_fits_the_artifact_budget():
    """Artifact appendix B2: one 100-iteration run 'should not exceed 5
    minutes'.  The CAS-loop cells on MI250X (SYCL+DPCPP, OMP+LLVM: the
    broken codegen of SSV-B) overrun it in the calibrated model, a
    known deviation (EXPERIMENTS.md, E31)."""
    cas_on_amd = {("SYCL+DPCPP", "MI250X"), ("OMP+LLVM", "MI250X")}
    fractions = []
    for size in (10.0, 30.0, 60.0):
        dims = dims_from_gb(size)
        for port in ALL_PORTS:
            for device in ALL_DEVICES:
                run = run_modeled(port, device, dims, size_gb=size)
                if not run.supported:
                    continue
                fractions.append(run.setup_time / run.total_run_time)
                if (port.key, device.name) in cas_on_amd:
                    continue
                assert run.total_run_time < 300.0, (size, port.key,
                                                    device.name)
    # The matrices are copied once; the loop dominates everywhere.
    assert max(fractions) < 0.5


def test_run_modeled_records_exclusions(dims10):
    run = run_modeled(port_by_key("CUDA"), MI250X, dims10, size_gb=10.0)
    assert not run.supported
    assert "unsupported" in run.excluded_reason
    assert run.mean_iteration_time == float("inf")

    run2 = run_modeled(port_by_key("CUDA"), T4, dims_from_gb(30.0),
                       size_gb=30.0)
    assert not run2.supported
    assert "out of memory" in run2.excluded_reason


def test_newer_hardware_is_faster(dims10):
    """Fig. 4 shape: iteration time drops from T4 to H100."""
    cuda = port_by_key("CUDA")
    times = [model_iteration(cuda, d, dims10).total
             for d in (T4, V100, A100, H100)]
    assert times == sorted(times, reverse=True)


def test_mi250x_slower_than_a100_h100(dims10):
    """SSV-B: MI250X observed slower than A100/H100 on these kernels."""
    hip = port_by_key("HIP")
    t_mi = model_iteration(hip, MI250X, dims10).total
    assert t_mi > model_iteration(hip, A100, dims10).total
    assert t_mi > model_iteration(hip, H100, dims10).total
