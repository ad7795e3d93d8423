"""Port roster and the paper's software/flag tables (Tables I-IV).

The tables are data, reproduced verbatim from the paper so the
benchmark harness can regenerate them (experiments E1-E4 of
``DESIGN.md``).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.frameworks.base import Port
from repro.frameworks.cuda import CUDA, CUDA_CONFIG
from repro.frameworks.hip import HIP, HIP_CONFIG
from repro.frameworks.openmp import (
    OMP_LLVM,
    OMP_LLVM_CONFIG,
    OMP_VENDOR,
    OMP_VENDOR_CONFIG,
)
from repro.frameworks.pstl import (
    PSTL_ACPP,
    PSTL_ACPP_CONFIG,
    PSTL_VENDOR,
    PSTL_VENDOR_CONFIG,
)
from repro.frameworks.sycl import (
    SYCL_ACPP,
    SYCL_ACPP_CONFIG,
    SYCL_DPCPP,
    SYCL_DPCPP_CONFIG,
)

#: Every port of the study, in the paper's presentation order.
ALL_PORTS: tuple[Port, ...] = (
    CUDA,
    HIP,
    OMP_LLVM,
    OMP_VENDOR,
    PSTL_ACPP,
    PSTL_VENDOR,
    SYCL_ACPP,
    SYCL_DPCPP,
)

#: Lookup by port key.
PORTS_BY_KEY: dict[str, Port] = {p.key: p for p in ALL_PORTS}

#: The declarative configs every port is constructed from, keyed like
#: :data:`PORTS_BY_KEY`.  All framework modules build their ports via
#: ``Port.from_config(config=...)`` -- one unified constructor
#: signature with one canonical key spelling
#: (see :mod:`repro.frameworks.base`).
PORT_CONFIGS: dict[str, dict[str, Any]] = {
    config["key"]: config
    for config in (
        CUDA_CONFIG,
        HIP_CONFIG,
        OMP_LLVM_CONFIG,
        OMP_VENDOR_CONFIG,
        PSTL_ACPP_CONFIG,
        PSTL_VENDOR_CONFIG,
        SYCL_ACPP_CONFIG,
        SYCL_DPCPP_CONFIG,
    )
}


def port_by_key(key: str) -> Port:
    """Look a port up by key, with a helpful error."""
    try:
        return PORTS_BY_KEY[key]
    except KeyError:
        raise KeyError(
            f"unknown port {key!r}; expected one of {sorted(PORTS_BY_KEY)}"
        ) from None


def port_from_config(config: Mapping[str, Any]) -> Port:
    """Construct a port (custom or roster) from a plain-data config.

    The registry-level factory for user-defined ports: the same
    unified construction path the roster uses, so ad-hoc what-if ports
    (a hypothetical toolchain, a tweaked overhead) go through the same
    validation and legacy-key shims.
    """
    return Port.from_config(config=config)


#: Table I -- software versions on the NVIDIA architectures.
#: Columns: (T4 & V100, A100, H100).
SOFTWARE_VERSIONS_NVIDIA: dict[str, tuple[str, str, str]] = {
    "CUDA": ("12.3", "11.8", "12.3"),
    "NVC++": ("24.3", "24.3", "24.3"),
    "AdaptiveCpp": ("24.06", "24.06", "24.06"),
    "HIP": ("5.7.3", "5.7.3", "5.7.3"),
    "Clang": ("17.0.6", "17.0.6", "17.0.6"),
    "DPC++": ("19.0.0", "19.0.0", "19.0.0"),
}

#: Table II -- compilation flags on the NVIDIA architectures,
#: keyed by (framework, compiler).
COMPILE_FLAGS_NVIDIA: dict[tuple[str, str], str] = {
    ("CUDA", "nvcc"): "-gencode=arch=compute_XX,code=sm_XX",
    ("HIP", "hipcc"): "--gpu-architecture=sm_XX",
    ("SYCL", "acpp"): (
        "--acpp-platform=cuda --acpp-targets=cuda:sm_XX "
        "--acpp-gpu-arch=sm_XX"
    ),
    ("SYCL", "dpc++"): (
        "-fsycl -fsycl-targets=nvptx64-nvidia-cuda "
        "-Xsycl-target-backend --cuda-gpu-arch=sm_XX"
    ),
    ("OpenMP", "clang++"): (
        "-fopenmp -fopenmp-targets=nvptx64-nvidia-cuda "
        "-Xopenmp-target=nvptx64-nvidia-cuda -march=sm_XX"
    ),
    ("OpenMP", "nvc++"): "-mp=gpu -gpu=ccXX,sm_XX",
    ("PSTL", "acpp"): (
        "--acpp-platform=cuda --acpp-stdpar --acpp-targets=cuda:sm_XX "
        "--acpp-stdpar-unconditional-offload --acpp-gpu-arch=sm_XX"
    ),
    ("PSTL", "nvc++"): "-stdpar=gpu -gpu=ccXX,sm_XX",
}

#: Table III -- compilation flags on the AMD architecture,
#: keyed by (framework, compiler).
COMPILE_FLAGS_AMD: dict[tuple[str, str], str] = {
    ("HIP", "hipcc"): "--offload-arch=gfx90a -munsafe-fp-atomics",
    ("SYCL", "acpp"): (
        "--acpp-platform=rocm --acpp-targets=generic "
        "--acpp-gpu-arch=gfx90a -munsafe-fp-atomics"
    ),
    ("SYCL", "dpc++"): (
        "-fsycl -fsycl-targets=amdgcn-amd-amdhsa "
        "-Xsycl-target-backend --offload-arch=gfx90a"
    ),
    ("OpenMP", "clang++"): (
        "-fopenmp -fopenmp-targets=amdgcn-amd-amdhsa "
        "-Xopenmp-target=amdgcn-amd-amdhsa -march=gfx90a"
    ),
    ("OpenMP", "amdclang++"): (
        "-fopenmp --offload-arch=gfx90a -munsafe-fp-atomics"
    ),
    ("PSTL", "acpp"): (
        "--acpp-platform=rocm --acpp-stdpar --acpp-targets=hip:gfx90a "
        "--acpp-stdpar-unconditional-offload --acpp-gpu-arch=gfx90a "
        "-munsafe-fp-atomics"
    ),
    ("PSTL", "clang++ --hipstdpar"): (
        "--hipstdpar --hipstdpar-path=$(HIPSTDPAR_ROOT) "
        "--offload-arch=gfx90a -munsafe-fp-atomics"
    ),
}

#: Table IV -- cluster name to GPU model reference table.
CLUSTER_GPU_TABLE: dict[str, str] = {
    "CascadeLake": "NVIDIA V100s",
    "TeslaT4": "NVIDIA T4",
    "EpiTo": "NVIDIA A100",
    "GraceHopper": "NVIDIA H100",
    "Setonix": "AMD MI250X",
}

#: C++ standard used per platform (§V-A: -std=c++20 everywhere except
#: CUDA/HIP on EpiTo and SYCL under DPC++, which use -std=c++17).
CPP_STANDARD_DEFAULT = "c++20"
CPP_STANDARD_EXCEPTIONS: dict[tuple[str, str], str] = {
    ("CUDA", "A100"): "c++17",
    ("HIP", "A100"): "c++17",
    ("SYCL+DPCPP", "T4"): "c++17",
    ("SYCL+DPCPP", "V100"): "c++17",
    ("SYCL+DPCPP", "A100"): "c++17",
    ("SYCL+DPCPP", "H100"): "c++17",
}


def cpp_standard(port_key: str, device_name: str) -> str:
    """C++ standard flag used for ``port_key`` on ``device_name``."""
    return CPP_STANDARD_EXCEPTIONS.get((port_key, device_name),
                                       CPP_STANDARD_DEFAULT)
