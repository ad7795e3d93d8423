"""Unified telemetry: span tracing, metrics, and exporters.

The paper's claims all rest on *measured* behavior: nsys/rocprof
traces showing that ``aprod1``/``aprod2`` dominate the LSQR iteration
(§V-A), per-platform efficiency tables (§V-B), and the validation of
every port against the CUDA solution (§V-C).  This package is the
reproduction's single measurement substrate:

- :class:`~repro.obs.span.Tracer` / :class:`~repro.obs.span.Span` --
  nested, monotonic-clock span tracing with per-thread tracks (so the
  SPMD rank threads of :mod:`repro.dist` each get their own timeline);
- :class:`~repro.obs.metrics.MetricsRegistry` -- labeled counters,
  gauges and histograms;
- :class:`~repro.obs.telemetry.Telemetry` -- the facade the
  instrumented hot paths (``core/lsqr.py``, ``core/aprod.py``,
  ``frameworks/executor.py``, ``dist/runner.py``) accept as an
  optional argument;
- :mod:`repro.obs.export` -- Chrome-trace JSON (Perfetto-loadable,
  merging with the :mod:`repro.gpu.trace` kernel timelines), flat
  JSON, and markdown summaries.

Naming conventions are documented in ``docs/observability.md``.
"""

from repro.obs.export import to_markdown, write_chrome_trace, write_flat_json
from repro.obs.telemetry import Telemetry
