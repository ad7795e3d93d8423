"""Text rendering of the study results (the figure/table regenerator).

Every figure of §V is a view over the study's time table; these
formatters print the same rows/series as ASCII tables for the
``repro-gaia study`` subcommand.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.portability.metrics import TimeTable


def _fmt(value: float | None, width: int = 8, digits: int = 3) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.{digits}f}".rjust(width)


def format_time_table(
    times: TimeTable,
    platforms: Sequence[str],
    *,
    title: str = "",
) -> str:
    """Fig. 4 view: average iteration time [s] per port and platform."""
    lines = []
    if title:
        lines.append(title)
    header = "port".ljust(12) + "".join(p.rjust(10) for p in platforms)
    lines.append(header)
    lines.append("-" * len(header))
    for port, row in times.items():
        lines.append(
            port.ljust(12)
            + "".join(_fmt(row.get(p), 10, 4) for p in platforms)
        )
    return "\n".join(lines)


def format_efficiency_table(
    efficiencies: Mapping[str, Mapping[str, float | None]],
    platforms: Sequence[str],
    *,
    title: str = "",
) -> str:
    """Fig. 5 view: application efficiency per port and platform."""
    lines = []
    if title:
        lines.append(title)
    header = "port".ljust(12) + "".join(p.rjust(9) for p in platforms)
    lines.append(header)
    lines.append("-" * len(header))
    for port, row in efficiencies.items():
        lines.append(
            port.ljust(12)
            + "".join(_fmt(row.get(p), 9, 3) for p in platforms)
        )
    return "\n".join(lines)


def format_p_table(
    p_by_port: Mapping[str, float],
    *,
    title: str = "",
    paper_values: Mapping[str, float] | None = None,
) -> str:
    """Fig. 3 right-panel view: P per port, optionally vs. the paper."""
    lines = []
    if title:
        lines.append(title)
    header = "port".ljust(12) + "P".rjust(8)
    if paper_values:
        header += "paper".rjust(8)
    lines.append(header)
    lines.append("-" * len(header))
    for port, p in sorted(p_by_port.items(), key=lambda kv: -kv[1]):
        line = port.ljust(12) + _fmt(p, 8, 3)
        if paper_values and port in paper_values:
            line += _fmt(paper_values[port], 8, 3)
        lines.append(line)
    return "\n".join(lines)


def format_cascade(cascades: Sequence) -> str:
    """Fig. 3 left-panel view: per-port efficiency cascades."""
    lines = []
    for c in cascades:
        effs = ", ".join(
            f"{p}={'-' if e is None else f'{e:.3f}'}"
            for p, e in zip(c.platforms, c.efficiencies)
        )
        lines.append(f"{c.port:<12} P={c.p:.3f}  [{effs}]")
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    *,
    title: str = "",
    width: int = 44,
    vmax: float | None = None,
) -> str:
    """Horizontal ASCII bar chart (the terminal rendering of the
    paper's bar figures)."""
    if not values:
        raise ValueError("bar_chart of an empty mapping")
    if vmax is None:
        vmax = max(values.values()) or 1.0
    if vmax <= 0:
        raise ValueError(f"vmax must be positive, got {vmax}")
    lines = [title] if title else []
    for label, value in values.items():
        filled = int(round(width * min(value, vmax) / vmax))
        lines.append(f"{label:<12} {value:7.3f} |{'#' * filled}")
    return "\n".join(lines)


def render_fig3(study, size_gb: float) -> str:
    """Fig. 3 as text: cascades plus a P bar chart for one size."""
    from repro.portability.cascade import efficiency_cascade

    platforms = study.platforms(size_gb)
    eff = study.efficiencies(size_gb)
    cascades = [efficiency_cascade(p, eff[p], platforms)
                for p in study.port_keys]
    p = study.p_scores(size_gb)
    return "\n".join([
        f"Fig. 3 ({size_gb:g} GB) -- platforms: {', '.join(platforms)}",
        format_cascade(cascades),
        "",
        bar_chart(dict(sorted(p.items(), key=lambda kv: -kv[1])),
                  title="P per port", vmax=1.0),
    ])


def render_fig4(study, size_gb: float) -> str:
    """Fig. 4 as text: per-platform iteration-time bar groups."""
    platforms = study.platforms(size_gb)
    times = study.times(size_gb)
    vmax = max(t for row in times.values()
               for t in row.values() if t is not None)
    blocks = [f"Fig. 4 ({size_gb:g} GB) -- mean iteration time [s]"]
    for platform in platforms:
        series = {port: row[platform]
                  for port, row in times.items()
                  if row.get(platform) is not None}
        blocks.append(bar_chart(series, title=f"[{platform}]",
                                vmax=vmax))
    return "\n\n".join(blocks)


def render_fig5(study, size_gb: float) -> str:
    """Fig. 5 as text: per-platform efficiency bar groups."""
    platforms = study.platforms(size_gb)
    eff = study.efficiencies(size_gb)
    blocks = [f"Fig. 5 ({size_gb:g} GB) -- application efficiency"]
    for platform in platforms:
        series = {port: row[platform]
                  for port, row in eff.items()
                  if row.get(platform) is not None}
        blocks.append(bar_chart(series, title=f"[{platform}]", vmax=1.0))
    return "\n\n".join(blocks)
