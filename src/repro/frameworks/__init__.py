"""The framework+compiler ports of the AVU-GSR solver.

§IV/§V of the paper evaluate eight framework-plus-compiler
combinations (plus CUDA, the production language):

==============  =========================  =========================
port            NVIDIA toolchain           AMD toolchain
==============  =========================  =========================
CUDA            nvcc                       (unsupported)
HIP             hipcc (CUDA backend)       hipcc / ROCm
SYCL+ACPP       AdaptiveCpp                AdaptiveCpp
SYCL+DPCPP      DPC++ (clang nvptx)        DPC++ (clang amdgcn)
OMP+V           nvc++                      amdclang++
OMP+LLVM        clang++                    clang++
PSTL+ACPP       AdaptiveCpp --acpp-stdpar  AdaptiveCpp --acpp-stdpar
PSTL+V          nvc++ -stdpar=gpu          clang++ --hipstdpar
==============  =========================  =========================

Each port is a :class:`~repro.frameworks.base.Port` record of the
capabilities the paper's analysis turns on: platform support, kernel
geometry control (hand-tuned / compiler default / PSTL's fixed 256
threads per block), FP64 atomic codegen (native RMW vs CAS loop, i.e.
whether ``-munsafe-fp-atomics`` is available), runtime abstraction
overhead, and stream usage.  :mod:`repro.frameworks.executor` runs the
LSQR iteration workload through a port on a device of the GPU
substrate; :mod:`repro.frameworks.registry` holds the full roster and
the software/flag tables (Tables I-IV).
"""

from repro.frameworks.base import GeometryPolicy, Port, UnsupportedPlatform
from repro.frameworks.registry import (
    ALL_PORTS,
    CLUSTER_GPU_TABLE,
    COMPILE_FLAGS_AMD,
    COMPILE_FLAGS_NVIDIA,
    PORT_CONFIGS,
    PORTS_BY_KEY,
    SOFTWARE_VERSIONS_NVIDIA,
    port_by_key,
    port_from_config,
)
from repro.frameworks.executor import (
    IterationModel,
    ModeledRun,
    breakdown_table,
    model_iteration,
    model_setup,
    run_modeled,
)
from repro.frameworks.scaling import (
    ClusterSpec,
    ScalingCurve,
    ScalingPoint,
    strong_scaling,
    weak_scaling,
)
from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.flags import (
    all_compile_commands,
    compile_command,
    gpu_arch_token,
    resolve_flags,
)
from repro.frameworks.port_matrix import capability_matrix, port_row

__all__ = [
    "GeometryPolicy",
    "Port",
    "UnsupportedPlatform",
    "ALL_PORTS",
    "PORT_CONFIGS",
    "PORTS_BY_KEY",
    "port_by_key",
    "port_from_config",
    "SOFTWARE_VERSIONS_NVIDIA",
    "COMPILE_FLAGS_NVIDIA",
    "COMPILE_FLAGS_AMD",
    "CLUSTER_GPU_TABLE",
    "IterationModel",
    "ModeledRun",
    "breakdown_table",
    "model_iteration",
    "model_setup",
    "run_modeled",
    "ClusterSpec",
    "ScalingCurve",
    "ScalingPoint",
    "weak_scaling",
    "strong_scaling",
    "PSTL_EXECUTORS",
    "gpu_arch_token",
    "resolve_flags",
    "compile_command",
    "all_compile_commands",
    "capability_matrix",
    "port_row",
]
