"""Cross-port correctness validation (SSV-C / Fig. 6).

Solves a validation-shaped dataset (production ratios, no global
section) with every port's kernel configuration and compares solutions
and standard errors against the production reference -- the paper's
1-sigma and 10-micro-arcsecond criteria.

Run:  python examples/validation_fig6.py
"""

import numpy as np

from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import H100, MI250X
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation import (
    compare_solutions,
    run_validation,
    solve_as_port,
    solve_production_reference,
)


def main() -> None:
    dims = SystemDims(n_stars=80, n_obs=2400, n_deg_freedom_att=16,
                      n_instr_params=32, n_glob_params=0)
    system = make_system(dims, seed=42, noise_sigma=1e-9)
    print(f"validation dataset: {dims.describe()}\n")

    report = run_validation(system, dataset_label="42GB-shaped (scaled)")
    print(report.summary())

    # The Fig. 6 scatter, in numbers: HIP-on-H100 and HIP-on-MI250X
    # against the production solution.
    reference = solve_production_reference(system)
    for device in (H100, MI250X):
        candidate = solve_as_port(system, port_by_key("HIP"), device)
        comp = compare_solutions(reference, candidate, dims)
        astro = comp.sections["astrometric"]
        print(f"\nFig. 6 (HIP on {device.name} vs CUDA-production):")
        print(f"  solution one-to-one slope: "
              f"{astro.one_to_one_slope:.6f} (paper: on the 1:1 line)")
        print(f"  max |dx|: {astro.max_abs_diff:.2e} rad")
        print(f"  std-error differences: mean "
              f"{astro.se_mean_diff_uas:+.4f} uas, std "
              f"{astro.se_std_diff_uas:.4f} uas "
              "(paper threshold: 10 uas)")
        corr = np.corrcoef(reference.x[: dims.n_astro_params],
                           candidate.x[: dims.n_astro_params])[0, 1]
        print(f"  astrometric correlation: {corr:.9f}")


if __name__ == "__main__":
    main()
