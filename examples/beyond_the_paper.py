"""Extensions beyond the paper's measurements.

Four analyses the paper motivates but does not run:

1. the C++26 executors projection (SSVI: "reduce the observed
   performance gap" of PSTL);
2. the P3 navigation chart -- P against code divergence, the
   maintenance cost of portability;
3. the storage-scheme ablation behind the "seven orders of magnitude"
   claim of SSIII-B;
4. the energy view of the same study (green-computing companion
   theme).

Run:  python examples/beyond_the_paper.py
"""

from repro.frameworks.executors_future import PSTL_EXECUTORS
from repro.frameworks.registry import ALL_PORTS, port_by_key
from repro.gpu.energy import energy_efficiency_table
from repro.gpu.platforms import ALL_DEVICES
from repro.portability import navigation_chart
from repro.portability.study import run_study
from repro.system.sizing import dims_from_gb
from repro.system.storage import mission_dims, storage_comparison


def main() -> None:
    print("1) C++26 executors projection")
    print("-" * 60)
    study = run_study(ports=tuple(ALL_PORTS) + (PSTL_EXECUTORS,))
    for key in ("PSTL+V", "PSTL+ACPP", "PSTL+EXEC", "HIP"):
        print(f"   {key:<12} average P = {study.average_p(key):.3f}")
    print("   -> geometry control alone closes most of PSTL's gap.\n")

    print("2) P3 navigation chart (10 GB): P vs code divergence")
    print("-" * 60)
    chart = navigation_chart(tuple(ALL_PORTS), tuple(ALL_DEVICES),
                             study.p_scores(10.0))
    for pt in sorted(chart, key=lambda p: (-p.p, p.divergence)):
        marker = "  <- ideal corner" if pt.unicorn else ""
        print(f"   {pt.port_key:<12} P={pt.p:5.3f}  "
              f"divergence={pt.divergence:5.3f}{marker}")
    print()

    print("3) Storage-scheme ablation at the real mission scale")
    print("-" * 60)
    fp = storage_comparison(mission_dims())
    for line in fp.summary().splitlines():
        print("   " + line)
    print()

    print("4) Energy per iteration (HIP port, 10 GB problem)")
    print("-" * 60)
    table = energy_efficiency_table(port_by_key("HIP"),
                                    tuple(ALL_DEVICES),
                                    dims_from_gb(10.0), size_gb=10.0)
    for name, e in table.items():
        print(f"   {name:<8} {e.board_power_w:4.0f} W x "
              f"{e.iteration_time_s:7.4f} s = "
              f"{e.joules_per_iteration:7.1f} J/iter  "
              f"({e.iterations_per_kilojoule:5.2f} iter/kJ)")
    print("   -> the 70 W T4 is the most frugal per iteration; "
          "the fast boards\n      win wall-clock, not joules, on this "
          "memory-bound solver.")


if __name__ == "__main__":
    main()
