"""Every module under ``src/repro`` is reached from an entry point.

The import graph is built from the source with ``ast`` (absolute,
relative and function-local imports alike) and walked from the entry
points: ``repro.api``, ``repro.serve``, ``repro.sessions``,
``repro.tuning``, ``repro.cli`` and every ``repro`` import in
``bench/*.py`` (read, not edited).  Importing a module runs its parent
packages' ``__init__``, so those count as reached too.

A module no entry point reaches either goes or names the paper
artefact it reproduces in ``ALLOWED``.  An ``ALLOWED`` entry that is
reached, or is no longer a file, is stale and fails as well.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.api", "repro.serve", "repro.sessions",
                "repro.tuning", "repro.cli")

#: Unreached modules that stay, each with the paper claim it serves.
ALLOWED = {
    "repro.frameworks.sensitivity":
        "E25/E26: robustness of the SS V-B P ranking (modeled)",
}


def _modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imported(tree: ast.AST, package: str | None,
              modules: dict[str, Path]) -> set[str]:
    """Modules of ``modules`` that the imports in ``tree`` load.

    ``package`` anchors relative imports: the package a module lives in
    (the package itself for an ``__init__``).
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name for name in names if name in modules)
    return found


def _with_parents(name: str) -> set[str]:
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def unreached() -> set[str]:
    """Modules under ``src/repro`` that no entry point imports."""
    modules = _modules()
    seeds = set(ENTRY_POINTS)
    for path in sorted((ROOT / "bench").glob("*.py")):
        seeds |= _imported(ast.parse(path.read_text()), None, modules)
    reached: set[str] = set()
    todo = [parent for seed in seeds for parent in _with_parents(seed)]
    while todo:
        name = todo.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        path = modules[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        for target in _imported(ast.parse(path.read_text()), package, modules):
            todo.extend(_with_parents(target))
    return set(modules) - reached


def test_every_module_is_reached_or_allowed():
    orphans = sorted(unreached() - set(ALLOWED))
    assert not orphans, f"no entry point reaches: {', '.join(orphans)}"


def test_the_allow_list_is_not_stale():
    modules = _modules()
    gone = sorted(name for name in ALLOWED if name not in modules)
    assert not gone, f"allow-listed but not a module: {', '.join(gone)}"
    reached = sorted(set(ALLOWED) - unreached())
    assert not reached, f"allow-listed but reached: {', '.join(reached)}"
