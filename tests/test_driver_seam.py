"""The drivers-take-an-operator seam, checked on the source itself.

Every solve driver consumes one ``prepare`` step
(:func:`repro.core.precond.prepare`) and never builds its own
operator, so which kernels run is decided where an ``AprodOperator``
is built, the preconditioner is assembled in one module, the
SPMD rank loop exists once, the Paige & Saunders update and its
stopping chain exist once, and solver state has one on-disk format
with one serializer (``EngineState.save`` / ``.load``).  The AST
checks keep that structure
from drifting back; the plan-build count shows what it buys (an R-rank
solve compiles R plans, not R+1).  Each of those builds is one
counting-sort pass, and the compiled pair is the only form of the
matrix a fused operator ever holds -- guarded on the source and on the
heap.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.api import ResilienceConfig, SolveRequest, solve
from repro.core.aprod import AprodOperator
from repro.core.kernels.plan import AprodPlan
from repro.serve.job import ServeJob
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler
from repro.sessions.store import SessionStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Options that configure ``AprodOperator`` (or, for ``link_cost``,
#: nothing at all) and must not reappear on a driver signature.
OPERATOR_OPTIONS = {"gather_strategy", "scatter_strategy", "link_cost"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _functions(tree, prefix=""):
    """``(qualified name, node)`` of every function, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _callers(name):
    """Modules with a call whose callee is (or ends in) ``name``."""
    found = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (getattr(callee, "id", None) == name
                    or getattr(callee, "attr", None) == name):
                found.add(module)
    return found


def test_operator_options_live_on_aprod_operator_only():
    owners = set()
    for module, tree in _trees():
        for name, fn in _functions(tree):
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if params & OPERATOR_OPTIONS:
                owners.add(f"{module}:{name}")
    assert owners == {"core/aprod.py:AprodOperator.__init__"}


def test_the_preconditioner_is_assembled_in_one_module():
    assert _callers("PreconditionedAprod") == {"core/precond.py"}
    assert _callers("from_operator") == {"core/precond.py"}


def test_one_spmd_rank_body_and_one_divergence_check():
    bodies, checks = [], []
    for module, tree in _trees():
        if module.startswith(("dist/", "resilience/")):
            bodies += [f"{module}:{name}" for name, _ in _functions(tree)
                       if name.endswith("rank_body")]
        checks += [module for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and node.value.startswith("ranks diverged")]
    assert bodies == ["dist/runner.py:DistributedLSQR.run.rank_body"]
    assert checks == ["dist/runner.py"]


def test_one_checkpoint_format_with_one_serializer():
    solver = ("core/", "dist/", "resilience/")
    for archive_io in ("savez_compressed", "savez", "load"):
        assert {m for m in _callers(archive_io)
                if m.startswith(solver)} <= {"core/engine.py"}, archive_io
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for gone in ("GlobalCheckpoint", "ResumableLSQR", "LSQRState",
                     "rank_state_path"):
            assert gone not in text, (path, gone)
    assert not (SRC / "core" / "checkpoint.py").exists()


def test_the_stopping_chain_exists_once():
    """One recurrence: the batched engine advances its members through
    the serial update, so exactly one function assigns a code only the
    six-way stopping chain can produce."""
    owners = [
        f"{module}:{name}"
        for module, tree in _trees() for name, fn in _functions(tree)
        if any(isinstance(node, ast.Assign)
               and any(getattr(leaf, "attr", None) == "CONLIM_EPS"
                       for leaf in ast.walk(node.value))
               for node in ast.walk(fn))
    ]
    assert owners == ["core/engine.py:_update"]


def test_api_never_invents_a_resilience_config():
    tree = ast.parse((SRC / "api.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "ResilienceConfig"]
    assert calls == []


def test_the_plan_is_generated_without_a_comparison_sort():
    tree = ast.parse((SRC / "core" / "kernels" / "plan.py").read_text())
    sorts = {"argsort", "sort", "lexsort", "unique"}
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & sorts


def test_the_operator_products_make_no_strategy_comparison():
    """One dispatch: the products call the operator's one kernel set,
    so none of them compares anything against a string."""
    tree = ast.parse((SRC / "core" / "aprod.py").read_text())
    methods = {name: fn for name, fn in _functions(tree)
               if name.startswith("AprodOperator.")}
    products = ("aprod1", "aprod2", "aprod1_batch", "aprod2_batch",
                "column_sq_norms")
    for product in products:
        fn = methods[f"AprodOperator.{product}"]
        compared = [node.lineno for node in ast.walk(fn)
                    if isinstance(node, ast.Compare)
                    and any(isinstance(leaf, ast.Constant)
                            and isinstance(leaf.value, str)
                            for leaf in [node.left, *node.comparators])]
        assert compared == [], product
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for gone in ("astro_scatter", "GATHER_STRATEGIES",
                     "SCATTER_STRATEGIES", "ASTRO_SCATTER", "GLOB_SCATTER"):
            assert gone not in text, (path, gone)


def test_a_fused_operator_holds_its_plan_and_no_second_column_block(
        plan_system):
    """... nor, once a batch has run through it, a second matrix."""
    for batch in (1, 8):
        X = np.zeros((batch, plan_system.dims.n_params))
        Y = np.zeros((batch, plan_system.n_rows))
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        op = AprodOperator(plan_system, batch_hint=batch)
        op.aprod1_batch(X, out=Y)
        op.aprod2_batch(Y, out=X)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        assert op.plan is not None
        assert held <= 1.03 * op.plan.workspace_nbytes, batch


# ----------------------------------------------------------------------
# What the seam buys: no throwaway plan for the global scaling
# ----------------------------------------------------------------------
@pytest.fixture()
def plans_built(monkeypatch):
    """Count ``AprodPlan`` compilations (any thread)."""
    built = []
    init = AprodPlan.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AprodPlan, "__init__", counting)
    return built


def test_spmd_solves_compile_one_plan_per_rank(plan_system, plans_built):
    solve(SolveRequest(system=plan_system, iter_lim=3,
                       resilience=ResilienceConfig()))
    assert len(plans_built) == 1
    plans_built.clear()
    solve(SolveRequest(system=plan_system, iter_lim=3, ranks=3))
    assert len(plans_built) == 3


def test_a_sliced_job_compiles_one_plan_per_segment(
        plan_system, plans_built, tmp_path):
    segments, preempt_slice = 3, 2
    request = SolveRequest(system=plan_system, atol=0.0, btol=0.0,
                           iter_lim=segments * preempt_slice)
    with SessionStore(tmp_path) as store:
        sched = Scheduler(DevicePool(("V100",)), workers=1,
                          sessions=store, preempt_slice=preempt_slice)
        sched.start()
        sched.submit(ServeJob(request=request, nominal_gb=10.0,
                              priority=5, job_id="sliced"))
        report = sched.drain()
    assert report.completed[0].report.itn == segments * preempt_slice
    assert len(plans_built) == segments
