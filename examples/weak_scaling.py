"""Multi-GPU scaling outlook (footnote 3 / Malenza et al. context).

Models the distributed MPI+GPU solver at scale: weak scaling with a
fixed 10 GB block per GPU (the production regime on Leonardo) and
strong scaling of one 60 GB problem, for two contrasting ports.

Run:  python examples/weak_scaling.py
"""

from repro.frameworks.registry import port_by_key
from repro.frameworks.scaling import strong_scaling, weak_scaling
from repro.gpu.platforms import A100, H100


def _bar(value: float, width: int = 40) -> str:
    return "#" * max(1, int(width * value))


def main() -> None:
    print("Weak scaling on A100, 10 GB per GPU "
          "(per-iteration, max over ranks)\n")
    curves = {key: weak_scaling(port_by_key(key), A100, per_gpu_gb=10.0)
              for key in ("CUDA", "PSTL+V")}
    print(f"{'GPUs':>6}  " + "".join(f"{k:>22}" for k in curves))
    for i, n in enumerate(p.n_gpus for p in curves["CUDA"].points):
        cells = ""
        for key, curve in curves.items():
            point = curve.points[i]
            eff = curve.efficiency()[n]
            cells += f"{point.iteration_time:>12.4f}s  e={eff:>5.3f}"
        print(f"{n:>6}  {cells}")

    print("\nEfficiency profile (CUDA):")
    eff = curves["CUDA"].efficiency()
    for n, e in eff.items():
        print(f"  {n:>4} GPUs  {e:5.3f}  {_bar(e)}")

    print("\nStrong scaling of HIP on H100, 60 GB total:")
    strong = strong_scaling(port_by_key("HIP"), H100, total_gb=60.0,
                            gpu_counts=(1, 2, 4, 8, 16))
    s_eff = strong.efficiency()
    for p in strong.points:
        print(f"  {p.n_gpus:>3} GPUs: {p.iteration_time:8.4f} s/iter "
              f"(compute {p.compute_time:.4f}, comm {p.comm_time:.5f}) "
              f"e={s_eff[p.n_gpus]:.3f}")
    print("\nThe shared attitude/instrumental sections are all that is "
          "globally reduced\n(each star's unknowns live on one rank), "
          "which is why the solver weak-scales.")


if __name__ == "__main__":
    main()
