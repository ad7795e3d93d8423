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

    Background sweeps all complete, at least one interactive placement
    is priced from a tuned cache entry, and every interactive job
    still succeeds.
    """
    from repro.serve.scenario import load_scenario, run_scenario

    scenario = load_scenario(EXAMPLES / "tuning_serve_scenario.json")
    assert scenario.tuning_enabled
    assert scenario.tuning_budget_jobs == 6
    report = run_scenario(scenario)
    background = report.background
    assert len(background) == scenario.tuning_budget_jobs
    assert all(o.error is None and o.result is not None
               for o in background)
    assert len(report.completed) == scenario.load.n_jobs
    assert not report.failed
    assert any(p.tuned for p in report.placement_log)
