"""``solvergaiaSim`` -- the artifact's executable, as a library call.

The paper's artifact builds one solver binary per framework
(``lsqr_hip.cpp``, ``lsqr_stdpar.cpp``, ``lsqr_openmp_gpu.cpp``,
``lsqr_sycl.cpp``, ``lsqr_cuda.cu`` driven by ``solvergaiaSim.cpp``)
that takes a problem size in GB, generates a seeded random dataset
"distributed in the system as the real data", and runs 100 LSQR
iterations, reporting the average iteration time.

:func:`solvergaia_sim` is that workflow: pick a framework port and a
platform, get back both the *real numerics* (the solve is actually
executed with the port's kernel strategies on a scaled-down system of
the same structure) and the *modeled timing* on the requested GPU at
the requested size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aprod import AprodOperator
from repro.core.lsqr import LSQRResult, lsqr_solve
from repro.frameworks.executor import ModeledRun, run_modeled
from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import device_by_name
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb
from repro.validation.compare import port_operator

#: Row count of the scaled-down numerical twin of the requested size.
NUMERICS_ROWS = 20_000


@dataclass(frozen=True)
class SolverSimResult:
    """Outcome of one ``solvergaiaSim`` run.

    ``numerics`` is the real (scaled-down) solve executed with the
    port's kernel strategies; ``timing`` is the modeled run at the
    requested size on the requested GPU.
    """

    framework: str
    device: str
    size_gb: float
    seed: int
    numerics: LSQRResult
    timing: ModeledRun

    @property
    def mean_iteration_time(self) -> float:
        """Modeled mean iteration time at the requested scale [s]."""
        return self.timing.mean_iteration_time

    @property
    def supported(self) -> bool:
        """False when the port cannot run on the device (or OOM)."""
        return self.timing.supported

    def report(self) -> str:
        """The artifact-style run report."""
        lines = [
            f"solvergaiaSim: framework={self.framework} "
            f"device={self.device} size={self.size_gb:g}GB "
            f"seed={self.seed}",
        ]
        if not self.supported:
            lines.append(f"  EXCLUDED: {self.timing.excluded_reason}")
            return "\n".join(lines)
        lines += [
            f"  modeled mean iteration time over "
            f"{self.timing.n_iterations} iterations: "
            f"{self.mean_iteration_time:.4f} s",
            f"  numerics (scaled twin): {self.numerics.istop.name} "
            f"after {self.numerics.itn} iterations, "
            f"|r| = {self.numerics.r2norm:.3e}",
        ]
        return "\n".join(lines)


def solvergaia_sim(
    size_gb: float,
    framework: str = "CUDA",
    device: str = "H100",
    *,
    seed: int = 0,
    n_iterations: int = 100,
    numerics_rows: int = NUMERICS_ROWS,
) -> SolverSimResult:
    """Run the artifact workflow for one (framework, device, size).

    Parameters mirror the artifact's command line: the dataset size in
    GB (given at runtime), the framework the binary was compiled for,
    the GPU it runs on, and the generator seed.
    """
    port = port_by_key(framework)
    dev = device_by_name(device)
    dims = dims_from_gb(size_gb)

    # Modeled timing at full scale (no allocation).
    timing = run_modeled(port, dev, dims, size_gb=size_gb,
                         n_iterations=n_iterations, seed=seed)

    # Real numerics on a structure-identical scaled twin.
    if dims.n_obs > numerics_rows:
        twin = dims_from_gb(size_gb * numerics_rows / dims.n_obs)
    else:
        twin = dims
    system = make_system(twin, seed=seed, noise_sigma=1e-9)
    op = (port_operator(system, port, dev) if port.supports(dev)
          else AprodOperator(system))
    numerics = lsqr_solve(op, atol=1e-10, btol=1e-10)
    return SolverSimResult(
        framework=framework,
        device=device,
        size_gb=size_gb,
        seed=seed,
        numerics=numerics,
        timing=timing,
    )


def compare_frameworks(
    size_gb: float,
    device: str,
    frameworks: tuple[str, ...] = ("CUDA", "HIP", "SYCL+ACPP", "OMP+V",
                                   "PSTL+V"),
    *,
    seed: int = 0,
) -> dict[str, SolverSimResult]:
    """Run several frameworks on one platform (the artifact's test
    scripts, one per framework)."""
    return {
        fw: solvergaia_sim(size_gb, fw, device, seed=seed)
        for fw in frameworks
    }


def _check_solutions_agree(results: dict[str, SolverSimResult],
                           rtol: float = 1e-8) -> bool:
    """All supported frameworks' numerics agree (the artifact's
    cross-check)."""
    xs = [r.numerics.x for r in results.values() if r.supported]
    if len(xs) < 2:
        return True
    ref = xs[0]
    return all(
        np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)
        for x in xs[1:]
    )
