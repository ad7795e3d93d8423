"""Kernel-geometry tuning across platforms (the SSIV/SSV-B study).

Sweeps block sizes and atomic-region grid caps for the tunable ports
on every platform, reproducing two paper facts: the optimum is 32
threads/block on T4/V100 versus 256 on A100/H100, and tuning buys up
to ~40% of the iteration time.

Run:  python examples/tuning_sweep.py
"""

from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import ALL_DEVICES
from repro.system.sizing import dims_from_gb
from repro.tuning import GeometrySweeper, default_spec, size_class_for


def main() -> None:
    dims = dims_from_gb(10.0)
    label = size_class_for(10.0).label  # its representative is 10 GB
    print("10 GB problem;", dims.describe(), "\n")

    sweeper = GeometrySweeper()
    header = (f"{'port':<12}{'device':<10}{'best tpb':>9}"
              f"{'atomic cap':>11}{'default':>10}{'tuned':>9}{'gain':>8}")
    print(header)
    print("-" * len(header))
    for key in ("CUDA", "HIP", "SYCL+ACPP"):
        port = port_by_key(key)
        for device in ALL_DEVICES:
            if not port.supports(device):
                continue
            c = sweeper.sweep(default_spec(key, device.name, label))
            cap = "-" if c.atomic_cap is None else f"{c.atomic_cap}xSM"
            print(f"{key:<12}{device.name:<10}{c.block_size:>9}"
                  f"{cap:>11}{c.default_iteration_s:>10.4f}"
                  f"{c.tuned_iteration_s:>9.4f}{c.gain:>8.1%}")

    print("\nPSTL has no geometry control (SSIV-e):")
    try:
        sweeper.sweep(default_spec("PSTL+ACPP", ALL_DEVICES[0].name, label))
    except ValueError as exc:
        print(f"  sweep(PSTL+ACPP, T4) -> ValueError: {exc}")


if __name__ == "__main__":
    main()
