"""Every module under ``src/repro`` is reached from an entry point.

The import graph is built from the source with ``ast`` (absolute,
relative and function-local imports alike) and walked from the entry
points: ``repro.api``, ``repro.cli`` and every ``repro`` import in
``bench/*.py`` (read, not edited) and ``examples/*.py`` (run by
``tests/test_examples.py``).

The walk resolves names.  ``from pkg import name`` reaches the module
that defines ``name``, following a package ``__init__``'s own
``from pkg.mod import name``; it does not reach the other modules that
``__init__`` imports.  A package counts as reached when one of its
modules is.

A module no entry point reaches either goes or names the experiment
it reproduces in ``ALLOWED``.  An ``ALLOWED`` entry that is reached,
is no longer a file, or cites no ``EXPERIMENTS.md`` row is stale and
fails as well.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.api", "repro.cli")
SEED_SCRIPTS = ("bench/*.py", "examples/*.py")

#: Modules only tests reach that stay, each with the experiment it serves.
ALLOWED = {
    "repro.dist.profile":
        "E29: per-collective communication profile of the distributed solve",
    "repro.frameworks.sensitivity":
        "E25/E26: robustness of the SS V-B P ranking (modeled)",
    "repro.gpu.roofline":
        "E28: roofline placement of aprod1/aprod2 (modeled)",
    "repro.portability.arch":
        "E21: architectural-efficiency P (modeled)",
    "repro.tuning.ablation":
        "E38: tuned vs nominal placement A/B",
    "repro.tuning.study":
        "E38: Pennycook P tuned vs out of the box (modeled)",
    "repro.validation.montecarlo":
        "E41: SS V-C 1-sigma calibration of the standard errors",
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


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _package(name: str, path: Path) -> str:
    """The package relative imports in module ``name`` anchor to."""
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _base(node: ast.ImportFrom, package: str | None) -> str:
    """The absolute module a ``from ... import`` names."""
    base = node.module or ""
    if node.level:
        anchor = package.split(".")
        anchor = anchor[:len(anchor) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    return base


def _origin(module: str, name: str, modules: dict[str, Path]) -> str:
    """The module ``from module import name`` reaches for ``name``.

    A submodule is itself; a name a package ``__init__`` binds with
    ``from X import name`` is looked up in ``X``; anything else is
    defined in ``module``.
    """
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    if modules[module].name == "__init__.py":
        for node in _parse(modules[module]).body:
            if isinstance(node, ast.ImportFrom):
                base = _base(node, module)
                for alias in node.names:
                    if (alias.asname or alias.name) == name and base in modules:
                        return _origin(base, alias.name, modules)
    return module


def _imported(tree: ast.AST, package: str | None,
              modules: dict[str, Path]) -> set[str]:
    """Modules of ``modules`` that the imports in ``tree`` reach.

    ``package`` anchors relative imports: the package a module lives in
    (the package itself for an ``__init__``).
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name in modules)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, package)
            if base in modules:
                found.update(_origin(base, alias.name, modules)
                             for alias in node.names)
    return found


def _with_parents(name: str) -> set[str]:
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def unreached() -> set[str]:
    """Modules under ``src/repro`` that no entry point reaches."""
    modules = _modules()
    todo = list(ENTRY_POINTS)
    for pattern in SEED_SCRIPTS:
        for path in sorted(ROOT.glob(pattern)):
            todo.extend(_imported(_parse(path), None, modules))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        path = modules[name]
        todo.extend(_imported(_parse(path), _package(name, path), modules))
    return set(modules).difference(*map(_with_parents, reached))


def test_every_module_is_reached_or_allowed():
    orphans = sorted(unreached() - set(ALLOWED))
    assert not orphans, f"no entry point reaches: {', '.join(orphans)}"


def test_the_allow_list_is_not_stale():
    modules = _modules()
    gone = sorted(name for name in ALLOWED if name not in modules)
    assert not gone, f"allow-listed but not a module: {', '.join(gone)}"
    reached = sorted(set(ALLOWED) - unreached())
    assert not reached, f"allow-listed but reached: {', '.join(reached)}"
    rows = set(re.findall(r"^\| (E\d+) \|",
                          (ROOT / "EXPERIMENTS.md").read_text(), re.M))
    cited = {name: set(re.findall(r"E\d+", why))
             for name, why in ALLOWED.items()}
    uncited = sorted(name for name, ids in cited.items()
                     if not ids or ids - rows)
    assert not uncited, f"allow-listed without an experiment row: {uncited}"
