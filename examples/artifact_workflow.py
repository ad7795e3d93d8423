"""The original artifact's workflow, end to end.

Mirrors the README of the paper's repository: show how each framework
binary would be compiled per platform (the Scripts/<arch>/comp step),
"execute" solvergaiaSim for each framework on one platform (the
Scripts/<arch>/test step), and cross-check that all ports produce the
same solution.

Run:  python examples/artifact_workflow.py
"""

from repro.frameworks.flags import compile_command
from repro.frameworks.registry import port_by_key
from repro.frameworks.port_matrix import capability_matrix
from repro.gpu.platforms import H100, MI250X
from repro.solver_sim import _check_solutions_agree, compare_frameworks


def main() -> None:
    print("Port capability matrix (SSIV):\n")
    print(capability_matrix())

    print("\nCompile step (Scripts/GraceHopper/comp, "
          "Scripts/Setonix/comp):\n")
    for key in ("CUDA", "HIP", "SYCL+ACPP", "OMP+V", "PSTL+V"):
        port = port_by_key(key)
        for device in (H100, MI250X):
            if not port.supports(device):
                print(f"  [{key} on {device.name}]  (unsupported)")
                continue
            print(f"  [{key} on {device.name}]")
            print(f"    {compile_command(port, device)}")

    print("\nTest step: solvergaiaSim on MI250X, 10 GB, seed 0:\n")
    results = compare_frameworks(10.0, "MI250X", seed=0)
    for key, r in results.items():
        if not r.supported:
            print(f"  {key:<12} EXCLUDED "
                  f"({r.timing.excluded_reason.split(':')[0]})")
            continue
        print(f"  {key:<12} mean iteration "
              f"{r.mean_iteration_time:7.4f} s   "
              f"numerics: {r.numerics.istop.name} "
              f"@{r.numerics.itn} iterations")

    agree = _check_solutions_agree(results)
    print(f"\nAll supported ports produced the same solution: {agree}")


if __name__ == "__main__":
    main()
