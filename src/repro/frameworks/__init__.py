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
