"""The benchmark's call surface is a tier-1 contract.

``bench/`` is frozen while a PR is measured against its parent, so a
renamed function or dropped keyword under ``src/repro`` fails there
only after the fact, as incorrect benchmark output.  This reads
``bench/*.py`` without running it: every name it imports from
``repro`` must import, and every keyword it passes to one of those
names in a direct call must be accepted by the callee's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))


def _imports(tree):
    """``local name -> (module, name)`` of every ``from repro... import``."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
            for alias in node.names}


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_bench_imports_resolve_and_keywords_are_accepted(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for local, (module, name) in _imports(tree).items():
        owner = importlib.import_module(module)
        assert hasattr(owner, name), f"{path.name}: {module}.{name} is gone"
        imported[local] = getattr(owner, name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in params, (
                f"{path.name}:{node.lineno}: {node.func.id}() no longer "
                f"takes {kw.arg}=")


def test_the_surface_is_not_vacuous():
    names = {name for path in BENCH
             for name in _imports(ast.parse(path.read_text()))}
    assert {"AprodOperator", "lsqr_solve", "lsqr_solve_batch",
            "SolveReport", "Scheduler"} <= names
