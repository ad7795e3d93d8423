"""Golden-shape regression tests: telemetry through the hot paths.

These lock down the measured facts the paper's argument rests on: the
aprod1+aprod2 products dominate the LSQR iteration (§V-A), one
distributed iteration has exactly two communication epochs, and two
framework ports running the same system produce identical solutions
and identical kernel-launch counts (the Fig. 6 validation path).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.lsqr import lsqr_solve
from repro.dist.runner import distributed_lsqr_solve
from repro.frameworks.executor import model_iteration
from repro.frameworks.registry import port_by_key
from repro.gpu.kernel import grid_for
from repro.gpu.platforms import device_by_name
from repro.gpu.profiler import KernelEvent, Profiler
from repro.gpu.timing import KernelTiming
from repro.gpu.trace import trace_iteration
from repro.obs.telemetry import Telemetry
from repro.validation.compare import port_operator

ITERATION_PHASES = ("lsqr.aprod1", "lsqr.normalize", "lsqr.aprod2",
                    "lsqr.update")


# ----------------------------------------------------------------------
# Instrumented serial solve (§V-A shape)
# ----------------------------------------------------------------------
def test_solve_emits_nested_phase_spans(small_system):
    tel = Telemetry()
    res = lsqr_solve(small_system, iter_lim=30, telemetry=tel)
    iterations = tel.tracer.find("lsqr.iteration")
    assert len(iterations) == res.itn
    by_id = {s.span_id: s for s in tel.spans}
    for phase in ITERATION_PHASES:
        spans = tel.tracer.find(phase)
        assert len(spans) == res.itn
        for s in spans:
            parent = by_id[s.parent_id]
            assert parent.name == "lsqr.iteration"
            assert parent.contains(s)


def test_aprod_spans_dominate_iteration():
    """The §V-A fact: aprod1+aprod2 is where the iteration time goes.

    Uses a system large enough that the O(nnz) aprod kernels dwarf the
    O(n) normalize/update vector ops even under scheduler noise — with
    the tiny shared fixture the per-phase spans are microseconds and
    the share is timing-flaky inside a full suite run.
    """
    from repro.system.structure import SystemDims
    from repro.system.generator import make_system
    dims = SystemDims(n_stars=150, n_obs=9000, n_deg_freedom_att=24,
                      n_instr_params=24, n_glob_params=1)
    system = make_system(dims, seed=7, noise_sigma=1e-10)
    tel = Telemetry()
    lsqr_solve(system, iter_lim=40, telemetry=tel)
    share = tel.span_share(("lsqr.aprod1", "lsqr.aprod2"),
                           ("lsqr.iteration",))
    other = tel.span_share(("lsqr.normalize", "lsqr.update"),
                           ("lsqr.iteration",))
    assert share >= 0.5
    assert share > other


def test_solve_metrics_match_result(small_system):
    tel = Telemetry()
    res = lsqr_solve(small_system, iter_lim=25, telemetry=tel)
    assert tel.metrics.counter_value("lsqr.iterations") == res.itn
    hist = tel.histogram("lsqr.iteration_time_s")
    assert hist.count == res.itn
    assert hist.sum == pytest.approx(sum(res.iteration_times))
    # aprod1 kernels run once per iteration; aprod2 also runs in the
    # initialization (v = A^T u), hence the +1.
    calls = tel.metrics.counter_value
    assert calls("aprod.kernel_calls", kernel="aprod1_fused") == res.itn
    assert calls("aprod.kernel_calls",
                 kernel="aprod2_fused") == res.itn + 1


def test_uninstrumented_solve_unchanged(small_system):
    """telemetry=None is the exact solve it always was."""
    res_plain = lsqr_solve(small_system, iter_lim=20)
    res_tel = lsqr_solve(small_system, iter_lim=20,
                         telemetry=Telemetry())
    assert np.array_equal(res_plain.x, res_tel.x)
    assert res_plain.itn == res_tel.itn
    assert res_plain.istop == res_tel.istop


# ----------------------------------------------------------------------
# Distributed solve: exactly two comm epochs per iteration
# ----------------------------------------------------------------------
def test_distributed_two_comm_epochs_per_iteration(small_system):
    tel = Telemetry()
    result = distributed_lsqr_solve(small_system, 2, iter_lim=15,
                                    telemetry=tel)
    epochs = tel.tracer.find("dist.comm_epoch")
    by_id = {s.span_id: s for s in tel.spans}
    for rank in ("0", "1"):
        mine = [s for s in epochs if s.labels["rank"] == rank]
        per_epoch = {}
        for s in mine:
            per_epoch.setdefault(s.labels["epoch"], []).append(s)
        # The production pattern: one normalize allreduce and one
        # aprod2 allreduce per iteration, nothing else in the loop.
        assert len(per_epoch["normalize"]) == result.itn
        assert len(per_epoch["aprod2"]) == result.itn
        assert len(per_epoch.get("init", ())) == 2
        for s in mine:
            if s.labels["epoch"] == "init":
                assert s.parent_id is None
            else:
                assert by_id[s.parent_id].name == "dist.iteration"
        iters = [s for s in tel.tracer.find("dist.iteration")
                 if s.labels["rank"] == rank]
        assert len(iters) == result.itn
    # Each rank moved allreduce payload: the dense n-vector plus the
    # norm scalar, every iteration.
    n = small_system.dims.n_params
    per_iter = n * 8 + 8
    for rank in ("0", "1"):
        nbytes = tel.metrics.counter_value("dist.allreduce_bytes",
                                           rank=rank)
        assert nbytes >= result.itn * per_iter
    # Rank threads trace onto distinct tracks.
    tracks = {s.track for s in epochs}
    assert len(tracks) == 2


# ----------------------------------------------------------------------
# Differential port test (the Fig. 6 validation path)
# ----------------------------------------------------------------------
def test_two_ports_identical_solution_and_launch_counts(small_system):
    """CUDA and HIP execute the same strategies: bitwise-equal
    solutions and identical kernel-launch counts."""
    runs = {}
    for port_key, device_name in (("CUDA", "A100"), ("HIP", "MI250X")):
        port = port_by_key(port_key)
        device = device_by_name(device_name)
        tel = Telemetry()
        op = port_operator(small_system, port, device, telemetry=tel)
        res = lsqr_solve(op, atol=1e-12, btol=1e-12, iter_lim=200,
                         telemetry=tel)
        model_iteration(port, device, small_system.dims, telemetry=tel)
        kernel_calls = {
            labels: v
            for labels, v in
            tel.metrics.counter_values("aprod.kernel_calls").items()
        }
        launches = {
            dict(labels)["kernel"]: v
            for labels, v in
            tel.metrics.counter_values("executor.kernel_launches").items()
        }
        runs[port_key] = (res, kernel_calls, launches)

    res_a, calls_a, launches_a = runs["CUDA"]
    res_b, calls_b, launches_b = runs["HIP"]
    assert np.array_equal(res_a.x, res_b.x)
    assert res_a.itn == res_b.itn
    assert calls_a and calls_a == calls_b
    assert launches_a and launches_a == launches_b


# ----------------------------------------------------------------------
# Adapters: Profiler and IterationTrace over the registry
# ----------------------------------------------------------------------
def _timing(name, memory):
    return KernelTiming(name=name, launch=1e-6, memory=memory,
                        compute=1e-5, atomics=0.0)


def test_profiler_forwards_into_registry():
    tel = Telemetry()
    p = Profiler(telemetry=tel)
    cfg = grid_for(1000, 256)
    p.record(KernelEvent("aprod1_astro", cfg, _timing("a", 2e-3)))
    p.record(KernelEvent("aprod1_astro", cfg, _timing("a", 2e-3)))
    p.record(KernelEvent("vector_ops", cfg, _timing("v", 1e-4)))
    assert tel.metrics.counter_value("profiler.kernel_launches",
                                     kernel="aprod1_astro") == 2
    hist = tel.histogram("profiler.kernel_time_s",
                         kernel="aprod1_astro")
    assert hist.count == 2
    assert hist.sum == pytest.approx(p.by_kernel()["aprod1_astro"])


def test_profiler_fraction_summary_share_consistency():
    """fraction() and summary() are views of one shares() table."""
    p = Profiler()
    cfg = grid_for(1000, 256)
    p.record(KernelEvent("aprod1_astro", cfg, _timing("a", 3e-3)))
    p.record(KernelEvent("vector_ops", cfg, _timing("v", 1e-3)))
    shares = p.shares()
    assert sum(share for _, share in shares.values()) == pytest.approx(1.0)
    assert p.fraction("aprod") == pytest.approx(
        shares["aprod1_astro"][1])
    expected = f"{shares['aprod1_astro'][1]:6.1%}"
    assert expected in p.summary()
    # Zero-time profile: shares defined, no division by zero anywhere.
    empty = Profiler()
    assert empty.shares() == {}
    assert empty.fraction("aprod") == 0.0
    assert "share" in empty.summary()


def test_iteration_trace_records_to_registry(small_dims):
    tel = Telemetry()
    trace = trace_iteration(port_by_key("CUDA"), device_by_name("A100"),
                            small_dims)
    trace.record_to(tel)
    total = sum(
        tel.metrics.counter_values("trace.kernel_launches").values()
    )
    assert total == len(trace.events)
    assert tel.gauge("trace.makespan_s", port="CUDA",
                     device="A100").value == pytest.approx(trace.makespan)


# ----------------------------------------------------------------------
# CLI smoke: exporters can't silently rot
# ----------------------------------------------------------------------
def test_cli_telemetry_chrome_export(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["telemetry", "--size", "tiny", "--export", "chrome",
                 "--iterations", "15", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "aprod1+aprod2 share" in text
    doc = json.loads(out.read_text())
    x_events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert x_events
    assert all("ts" in e and "dur" in e for e in x_events)
    assert any(e["name"] == "lsqr.iteration" for e in x_events)
    # The modeled kernel timeline is merged in on its own pid.
    assert any(e["name"] == "aprod1_astro" for e in x_events)


def test_cli_telemetry_all_exports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["telemetry", "--size", "tiny", "--export", "all",
                 "--iterations", "10"]) == 0
    assert json.loads((tmp_path / "telemetry_trace.json").read_text())
    flat = json.loads((tmp_path / "telemetry.json").read_text())
    assert flat["spans"] and flat["counters"]
    assert "### Spans" in (tmp_path / "telemetry.md").read_text()
