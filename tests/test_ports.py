"""Unit tests for the port capability records and the registry."""

import pytest

from repro.frameworks import (
    ALL_PORTS,
    PORTS_BY_KEY,
    GeometryPolicy,
    UnsupportedPlatform,
    port_by_key,
)
from repro.frameworks.base import Port, VendorSupport
from repro.frameworks.registry import (
    CLUSTER_GPU_TABLE,
    COMPILE_FLAGS_AMD,
    COMPILE_FLAGS_NVIDIA,
    SOFTWARE_VERSIONS_NVIDIA,
    cpp_standard,
)
from repro.gpu import AtomicMode, Vendor
from repro.gpu.platforms import H100, MI250X, T4


def test_roster_is_the_papers_eight_plus_cuda():
    keys = {p.key for p in ALL_PORTS}
    assert keys == {
        "CUDA", "HIP", "OMP+LLVM", "OMP+V",
        "PSTL+ACPP", "PSTL+V", "SYCL+ACPP", "SYCL+DPCPP",
    }


def test_cuda_is_nvidia_only():
    cuda = port_by_key("CUDA")
    assert cuda.supports(H100)
    assert not cuda.supports(MI250X)
    with pytest.raises(UnsupportedPlatform, match="MI250X"):
        cuda.vendor_support(MI250X)


def test_every_other_port_targets_both_vendors():
    for port in ALL_PORTS:
        if port.key == "CUDA":
            continue
        assert port.supports(H100) and port.supports(MI250X), port.key


def test_atomic_codegen_matches_flag_tables():
    """Ports with -munsafe-fp-atomics in Table III emit RMW on AMD;
    DPC++ and base clang++ OpenMP fall back to CAS loops (SSV-B)."""
    rmw_on_amd = {"HIP", "SYCL+ACPP", "OMP+V", "PSTL+ACPP", "PSTL+V"}
    cas_on_amd = {"SYCL+DPCPP", "OMP+LLVM"}
    for key in rmw_on_amd:
        assert port_by_key(key).atomic_mode(MI250X) is AtomicMode.RMW, key
        assert port_by_key(key).support[Vendor.AMD].unsafe_fp_atomics_flag
    for key in cas_on_amd:
        assert port_by_key(key).atomic_mode(MI250X) is AtomicMode.CAS_LOOP
    # Everyone has native FP64 atomics on NVIDIA.
    for port in ALL_PORTS:
        assert port.atomic_mode(H100) is AtomicMode.RMW


def test_geometry_policies():
    assert port_by_key("CUDA").support[Vendor.NVIDIA].geometry is (
        GeometryPolicy.TUNED
    )
    for key in ("PSTL+ACPP", "PSTL+V"):
        port = port_by_key(key)
        for vendor in (Vendor.NVIDIA, Vendor.AMD):
            assert port.support[vendor].geometry is GeometryPolicy.FIXED_256
        # PSTL launches 256 threads/block no matter the device (SSV-B).
        assert port.geometry(T4, 10**6).threads_per_block == 256
        assert port.geometry(MI250X, 10**6).threads_per_block == 256
    assert port_by_key("OMP+V").support[Vendor.NVIDIA].geometry is (
        GeometryPolicy.COMPILER_DEFAULT
    )
    assert port_by_key("OMP+V").support[Vendor.AMD].geometry is (
        GeometryPolicy.TUNED
    )


def test_tuned_geometry_uses_device_optimum():
    hip = port_by_key("HIP")
    assert hip.geometry(T4, 10**6).threads_per_block == 32
    assert hip.geometry(H100, 10**6).threads_per_block == 256
    # Untuned falls back to the compiler default.
    assert hip.geometry(T4, 10**6, tuned=False).threads_per_block == 256


def test_residual_lookup():
    hip = port_by_key("HIP")
    assert hip.residual(H100, 10.0) != 1.0
    assert hip.residual(H100, None) == 1.0  # size-specific entry only
    assert hip.residual(T4, 10.0) == 1.0
    pstl = port_by_key("PSTL+ACPP")
    # Size-independent and size-specific entries multiply.
    assert pstl.residual(MI250X, 10.0) == pstl.residual(MI250X, 30.0)


def test_port_validation():
    with pytest.raises(ValueError, match="no vendor"):
        Port(key="empty", framework="X", support={})
    with pytest.raises(ValueError, match="overhead"):
        VendorSupport(compiler="cc", geometry=GeometryPolicy.TUNED,
                      rmw_atomics=True, overhead=0.5)
    with pytest.raises(ValueError, match="residual"):
        Port(key="bad", framework="X",
             support={Vendor.NVIDIA: VendorSupport(
                 compiler="cc", geometry=GeometryPolicy.TUNED,
                 rmw_atomics=True, overhead=1.0)},
             residuals={("T4", None): -1.0})


def test_port_by_key_error():
    with pytest.raises(KeyError, match="unknown port"):
        port_by_key("OpenACC")


# ----------------------------------------------------------------------
# Tables I-IV
# ----------------------------------------------------------------------
def test_table1_components():
    assert set(SOFTWARE_VERSIONS_NVIDIA) == {
        "CUDA", "NVC++", "AdaptiveCpp", "HIP", "Clang", "DPC++"
    }
    assert SOFTWARE_VERSIONS_NVIDIA["CUDA"] == ("12.3", "11.8", "12.3")
    assert SOFTWARE_VERSIONS_NVIDIA["AdaptiveCpp"] == ("24.06",) * 3


def test_table2_table3_cover_all_framework_compiler_pairs():
    assert ("CUDA", "nvcc") in COMPILE_FLAGS_NVIDIA
    assert ("PSTL", "nvc++") in COMPILE_FLAGS_NVIDIA
    assert ("CUDA", "nvcc") not in COMPILE_FLAGS_AMD  # no CUDA on AMD
    assert all("-munsafe-fp-atomics" in COMPILE_FLAGS_AMD[k]
               for k in [("HIP", "hipcc"), ("OpenMP", "amdclang++"),
                         ("PSTL", "acpp")])
    assert "-munsafe-fp-atomics" not in COMPILE_FLAGS_AMD[("SYCL", "dpc++")]
    assert "-munsafe-fp-atomics" not in COMPILE_FLAGS_AMD[
        ("OpenMP", "clang++")
    ]
    amd = " ".join(COMPILE_FLAGS_AMD.values())
    assert amd.count("-munsafe-fp-atomics") == 5
    assert "gfx90a" in amd
    nvidia = " ".join(COMPILE_FLAGS_NVIDIA.values())
    assert "-stdpar=gpu" in nvidia and "nvptx64-nvidia-cuda" in nvidia


def test_table4_cluster_map():
    assert CLUSTER_GPU_TABLE["GraceHopper"] == "NVIDIA H100"
    assert CLUSTER_GPU_TABLE["Setonix"] == "AMD MI250X"
    assert len(CLUSTER_GPU_TABLE) == 5


def test_cpp_standard_exceptions():
    # SSV-A: c++17 for CUDA/HIP on EpiTo and for SYCL under DPC++.
    assert cpp_standard("CUDA", "A100") == "c++17"
    assert cpp_standard("HIP", "A100") == "c++17"
    assert cpp_standard("SYCL+DPCPP", "H100") == "c++17"
    assert cpp_standard("CUDA", "H100") == "c++20"
    assert cpp_standard("PSTL+V", "A100") == "c++20"
