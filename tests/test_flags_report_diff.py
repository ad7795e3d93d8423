"""Tests for compile commands and study diffs."""

import pytest

from repro.frameworks import (
    all_compile_commands,
    compile_command,
    gpu_arch_token,
    port_by_key,
    resolve_flags,
)
from repro.frameworks.registry import ALL_PORTS
from repro.gpu.platforms import ALL_DEVICES, A100, H100, MI250X, T4, V100
from repro.portability import diff_studies
from repro.portability.study import run_study


# ----------------------------------------------------------------------
# Compile commands (artifact Makefile fidelity)
# ----------------------------------------------------------------------
def test_arch_tokens():
    assert gpu_arch_token(T4) == "sm_75"
    assert gpu_arch_token(V100) == "sm_70"
    assert gpu_arch_token(A100) == "sm_80"
    assert gpu_arch_token(H100) == "sm_90"
    assert gpu_arch_token(MI250X) == "gfx90a"


def test_flags_substitute_architecture():
    flags = resolve_flags(port_by_key("CUDA"), H100)
    assert "sm_90" in flags and "compute_90" in flags
    assert "XX" not in flags
    omp = resolve_flags(port_by_key("OMP+V"), A100)
    assert "cc80" in omp and "sm_80" in omp


def test_cuda_command_matches_table2():
    cmd = compile_command(port_by_key("CUDA"), T4)
    assert cmd.startswith("nvcc ")
    assert "-gencode=arch=compute_75,code=sm_75" in cmd
    assert "lsqr_cuda.cu" in cmd and "solvergaiaSim.cpp" in cmd
    # EpiTo (A100) builds with c++17 (SSV-A); others with c++20.
    assert "-std=c++20" in cmd
    assert "-std=c++17" in compile_command(port_by_key("CUDA"), A100)


def test_amd_commands_carry_unsafe_atomics():
    for key in ("HIP", "SYCL+ACPP", "OMP+V", "PSTL+ACPP", "PSTL+V"):
        cmd = compile_command(port_by_key(key), MI250X)
        assert "-munsafe-fp-atomics" in cmd, key
        assert "gfx90a" in cmd
    for key in ("SYCL+DPCPP", "OMP+LLVM"):
        cmd = compile_command(port_by_key(key), MI250X)
        assert "-munsafe-fp-atomics" not in cmd, key


def test_hipstdpar_flag_not_duplicated():
    cmd = compile_command(port_by_key("PSTL+V"), MI250X)
    assert cmd.count("--hipstdpar ") == 1


def test_all_commands_cover_support_matrix():
    cmds = all_compile_commands(ALL_PORTS, ALL_DEVICES)
    # CUDA: 4 NVIDIA devices; everyone else: all 5.
    assert len(cmds) == 4 + 7 * 5
    assert ("CUDA", "MI250X") not in cmds
    assert all("solvergaiaSim" in c for c in cmds.values())


def test_unknown_device_arch_raises():
    import dataclasses

    fake = dataclasses.replace(T4, name="B200")
    with pytest.raises(KeyError, match="B200"):
        gpu_arch_token(fake)


# ----------------------------------------------------------------------
# Study diff
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def study():
    return run_study(sizes=(10.0,), jitter=0.0, repetitions=1)


def test_self_diff_is_clean(study):
    assert diff_studies(study, study).clean
    assert "identical" in diff_studies(study, study).summary()


def test_diff_detects_time_changes(study):
    other = run_study(sizes=(10.0,), jitter=0.05, repetitions=1, seed=9)
    diff = diff_studies(study, other, time_rtol=1e-9, p_atol=1e-9)
    assert not diff.clean
    assert diff.time_deltas
    assert "time" in diff.summary()


def test_diff_tolerances_absorb_jitter(study):
    other = run_study(sizes=(10.0,), jitter=0.002, repetitions=3, seed=9)
    diff = diff_studies(study, other, time_rtol=0.05, p_atol=0.05)
    assert diff.clean


def test_diff_rejects_mismatched_grids(study):
    other = run_study(sizes=(30.0,), jitter=0.0, repetitions=1)
    with pytest.raises(ValueError, match="size grids"):
        diff_studies(study, other)
