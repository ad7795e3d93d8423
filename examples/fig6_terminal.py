"""Fig. 6 in the terminal: port-vs-production scatter plots.

Renders the paper's validation figure as ASCII scatters: the HIP
solution and standard errors against the production reference, with
the one-to-one line -- every marker must sit on it.

Run:  python examples/fig6_terminal.py
"""

from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import H100, MI250X
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation import (
    fig6_scatter,
    render_fig6,
    solve_as_port,
    solve_production_reference,
)


def main() -> None:
    dims = SystemDims(n_stars=60, n_obs=1800, n_deg_freedom_att=12,
                      n_instr_params=24, n_glob_params=0)
    system = make_system(dims, seed=42, noise_sigma=1e-9)
    reference = solve_production_reference(system)

    for device in (H100, MI250X):
        candidate = solve_as_port(system, port_by_key("HIP"), device)
        scatter = fig6_scatter(reference, candidate, dims)
        print(render_fig6(scatter))
        print("\n" + "=" * 70 + "\n")


if __name__ == "__main__":
    main()
