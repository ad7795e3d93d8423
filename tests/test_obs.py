"""Unit and property tests for the repro.obs telemetry layer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    to_chrome_trace,
    to_flat_json,
    to_markdown,
    write_chrome_trace,
    write_flat_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry


class FakeClock:
    """Deterministic monotonic clock: advances by `step` per reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------
def test_simple_span_records_duration():
    tel = Telemetry(clock=FakeClock())
    with tel.span("work", kind="demo"):
        pass
    (s,) = tel.spans
    assert s.name == "work"
    assert s.labels == {"kind": "demo"}
    assert s.duration > 0.0
    assert s.parent_id is None


def test_nested_span_parentage_and_containment():
    tel = Telemetry(clock=FakeClock())
    with tel.span("outer") as outer:
        with tel.span("inner") as inner:
            pass
    spans = {s.name: s for s in tel.spans}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].contains(spans["inner"])
    assert not spans["inner"].contains(spans["outer"])


@st.composite
def nesting_programs(draw):
    """Random push/pop programs with balanced, well-nested spans."""
    ops = []
    depth = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        if depth == 0 or draw(st.booleans()):
            ops.append("push")
            depth += 1
        else:
            ops.append("pop")
            depth -= 1
    ops.extend(["pop"] * depth)
    return ops


@settings(max_examples=50, deadline=None)
@given(nesting_programs())
def test_property_children_contained_in_parents(program):
    """Every child interval lies within its parent's interval."""
    tel = Telemetry(clock=FakeClock())
    stack = []
    for i, op in enumerate(program):
        if op == "push":
            span = tel.span(f"s{i}")
            span.__enter__()
            stack.append(span)
        else:
            stack.pop().__exit__(None, None, None)
    spans = tel.spans
    assert len(spans) == program.count("push")
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id is not None:
            assert by_id[s.parent_id].contains(s)
    # Sibling spans under one parent must not overlap (sequential
    # program, monotonic clock).
    for s in spans:
        siblings = [o for o in spans
                    if o.parent_id == s.parent_id and o is not s]
        for o in siblings:
            assert s.end <= o.start or o.end <= s.start


def test_exception_still_closes_span():
    tel = Telemetry(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tel.span("doomed"):
            raise RuntimeError("boom")
    (s,) = tel.spans
    assert s.finished


def test_span_share():
    tel = Telemetry(clock=FakeClock())
    with tel.span("whole"):
        with tel.span("part"):
            pass
    share = tel.span_share(("part",), ("whole",))
    assert 0.0 < share < 1.0
    assert tel.span_share(("missing",), ("whole",)) == 0.0
    assert tel.span_share(("part",), ("missing",)) == 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_counter_label_isolation():
    reg = MetricsRegistry()
    reg.counter("calls", kernel="aprod1").inc()
    reg.counter("calls", kernel="aprod1").inc(2)
    reg.counter("calls", kernel="aprod2").inc(5)
    assert reg.counter_value("calls", kernel="aprod1") == 3
    assert reg.counter_value("calls", kernel="aprod2") == 5
    assert reg.counter_value("calls", kernel="vector") == 0
    # Label order must not matter.
    reg.counter("multi", a="1", b="2").inc()
    reg.counter("multi", b="2", a="1").inc()
    assert reg.counter_value("multi", a="1", b="2") == 2


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("occupancy", device="A100")
    g.set(0.5)
    g.set(0.75)
    assert g.value == 0.75


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False),
                min_size=1, max_size=200))
def test_property_histogram_percentile_monotonicity(values):
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.min <= h.percentile(25) <= h.percentile(50)
    assert h.percentile(50) <= h.percentile(90) <= h.percentile(99)
    assert h.percentile(99) <= h.max
    assert h.min <= h.mean <= h.max


def test_histogram_percentile_bounds():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    with pytest.raises(ValueError):
        h.percentile(101)
    assert h.percentile(50) == 0.0  # empty


def test_registry_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("c", k="v").inc()
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(2.0)
    snap = reg.snapshot()
    assert snap["counters"][0] == {"name": "c", "labels": {"k": "v"},
                                   "value": 1.0}
    assert snap["gauges"][0]["value"] == 1.5
    assert snap["histograms"][0]["count"] == 1


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_telemetry() -> Telemetry:
    tel = Telemetry(clock=FakeClock(step=0.25))
    with tel.span("iteration", itn=1):
        with tel.span("aprod1"):
            pass
        with tel.span("aprod2"):
            pass
    tel.counter("kernel_calls", kernel="aprod1_astro").inc(4)
    tel.histogram("kernel_time_s", kernel="aprod1_astro").observe(1e-3)
    return tel


def test_chrome_trace_round_trip(tmp_path):
    tel = _sample_telemetry()
    path = write_chrome_trace(tel, tmp_path / "trace.json")
    doc = json.loads(path.read_text())  # valid JSON on disk
    assert doc["displayTimeUnit"] == "ms"
    x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(x_events) == 3
    for e in x_events:
        # The fields Perfetto requires of a complete event.
        assert e["ph"] == "X"
        assert e["ts"] >= 0.0
        assert e["dur"] > 0.0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    # Nesting survives export: child events within the parent's window.
    by_name = {e["name"]: e for e in x_events}
    parent = by_name["iteration"]
    for child in ("aprod1", "aprod2"):
        e = by_name[child]
        assert parent["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"]


def test_chrome_trace_merges_extra_events():
    tel = _sample_telemetry()
    extra = [{"name": "aprod1_astro", "ph": "X", "ts": 0.0, "dur": 5.0,
              "pid": 0, "tid": 0}]
    doc = to_chrome_trace(tel, extra_events=extra)
    merged = [e for e in doc["traceEvents"]
              if e["name"] == "aprod1_astro" and e["ph"] == "X"]
    assert len(merged) == 1
    # Extras land on their own process row, away from the span tracks.
    assert merged[0]["pid"] != 0


def test_flat_json_round_trip(tmp_path):
    tel = _sample_telemetry()
    path = write_flat_json(tel, tmp_path / "flat.json")
    doc = json.loads(path.read_text())
    assert {s["name"] for s in doc["spans"]} == {"iteration", "aprod1",
                                                "aprod2"}
    parent = next(s for s in doc["spans"] if s["name"] == "iteration")
    child = next(s for s in doc["spans"] if s["name"] == "aprod1")
    assert child["parent_id"] == parent["span_id"]
    assert doc["counters"][0]["name"] == "kernel_calls"
    assert doc["histograms"][0]["count"] == 1


def test_markdown_summary_mentions_everything():
    text = to_markdown(_sample_telemetry())
    for needle in ("iteration", "aprod1", "aprod2", "kernel_calls",
                   "kernel_time_s", "### Spans", "### Counters",
                   "### Histograms"):
        assert needle in text


def test_markdown_summary_empty_telemetry():
    text = to_markdown(Telemetry())
    assert "no spans recorded" in text
    assert "no counters recorded" in text


# ----------------------------------------------------------------------
# Cross-process dump/absorb (the worker-pool wire format)
# ----------------------------------------------------------------------
def test_dump_absorb_merges_metrics_and_rebases_spans():
    from repro.obs.telemetry import NullTelemetry

    remote = Telemetry()
    with remote.span("solve", job="j1"):
        remote.counter("kernel_calls").inc(3)
        remote.histogram("exec_s").observe(0.5)
    remote.gauge("depth").set(7)
    dump = remote.dump()
    assert set(dump) >= {"metrics", "spans", "perf_anchor",
                         "wall_anchor"}

    parent = Telemetry()
    parent.counter("kernel_calls").inc(1)
    parent.absorb(dump, track_prefix="mp/")

    assert parent.counter("kernel_calls").value == 4
    assert parent.gauge("depth").value == 7
    (span,) = parent.spans
    assert span.name == "solve"
    assert span.track.startswith("mp/")
    # Rebasing keeps the span's duration and lands it near "now" on
    # the parent clock (both clocks run in this process, so the wall
    # anchors agree to within scheduling noise).
    src = remote.spans[0]
    assert (span.end - span.start) == pytest.approx(src.end - src.start)
    assert abs(span.start - src.start) < 5.0

    # Absorbing nothing is a no-op on both implementations.
    parent.absorb(None)
    assert len(parent.spans) == 1
    null = NullTelemetry()
    assert null.dump() is None
    null.absorb(dump, track_prefix="mp/")
    assert null.spans == []
