"""Smoke-run the fast example scripts end to end.

Keeps the examples (deliverable b) from rotting: each is executed as
``__main__`` with its output captured.  Only the quick ones run here;
the heavier studies (``portability_study.py``, ``beyond_the_paper.py``,
...) print what other tier-1 tests already assert, and the serving
scenarios run under ``make smoke``.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str) -> str:
    buf = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buf):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buf.getvalue()


def test_quickstart_example():
    out = _run("quickstart.py")
    assert "relative error vs generating truth" in out
    assert "PPN-gamma" in out
    assert "LSQ" in out  # converged stop reason


def test_tuning_sweep_example():
    out = _run("tuning_sweep.py")
    assert "CUDA" in out and "MI250X" in out
    assert "cannot be tuned" in out


def test_weak_scaling_example():
    out = _run("weak_scaling.py")
    assert "Weak scaling on A100" in out
    assert "Strong scaling of HIP" in out


def test_distributed_solver_example():
    out = _run("distributed_solver.py")
    assert "ranks=8" in out
    assert "x_serial" in out


def test_fig6_terminal_example():
    out = _run("fig6_terminal.py")
    assert "Fig. 6a" in out and "Fig. 6b" in out
    assert "one-to-one" in out


def test_artifact_workflow_example():
    out = _run("artifact_workflow.py")
    assert "capability matrix" in out
    assert "nvcc" in out and "gfx90a" in out
    assert "same solution: True" in out


def test_regression_workflow_example():
    out = _run("regression_workflow.py")
    assert "identical" in out
    assert "H100" in out


def test_examples_directory_complete():
    """Deliverable check: quickstart plus the domain examples, by name."""
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert names >= {
        "quickstart.py", "artifact_workflow.py", "beyond_the_paper.py",
        "convergence_study.py", "distributed_solver.py",
        "fig6_terminal.py", "portability_study.py",
        "regression_workflow.py", "tuning_sweep.py",
        "validation_fig6.py", "weak_scaling.py",
    }
    assert len(names) >= 11


def test_tuning_serve_scenario_example():
    """The tuning-enabled scenario file runs end to end.

    The tuned-config cache holds every cell of the pool x load-mix
    covering set before the first placement, every placement whose
    winning port is tunable on its device prices from it, and every
    job completes.
    """
    from repro.frameworks.registry import port_by_key
    from repro.serve.loadgen import LoadGenerator
    from repro.serve.scenario import build_scheduler, load_scenario
    from repro.tuning.service import TuningService

    scenario = load_scenario(EXAMPLES / "tuning_serve_scenario.json")
    assert scenario.tuning_enabled
    scheduler = build_scheduler(scenario)
    cache = scheduler.cost_model.tuned_cache
    specs = TuningService().covering_specs(
        scenario.devices, [size for size, _ in scenario.load.mix])
    assert specs and all(spec in cache for spec in specs)

    report = scheduler.run(LoadGenerator(
        scenario.load, constraints=scenario.constraints()).jobs())
    assert len(report.completed) == scenario.load.n_jobs
    assert not report.failed
    lanes = {lane.lane_id: lane.spec for lane in scheduler.pool.lanes}
    tunable = [p for p in report.placement_log
               if port_by_key(p.port_key).tunable(lanes[p.device])]
    assert tunable and all(p.tuned for p in tunable)
