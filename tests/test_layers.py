"""The measured system does not lean on the modeled study.

Over the import graph of ``tests/test_reachability.py`` (every import,
function-local ones included):

- the package root (``repro/__init__.py``) imports nothing;
- the solver layers -- ``repro.core``, ``repro.system``, ``repro.dist``,
  ``repro.obs`` and ``repro.resilience`` -- import nothing from the
  modeled GPU substrate, the study, or the layers built on top of them;
- the only edges from the serving stack (``repro.api``, ``repro.serve``,
  ``repro.sessions``) into the modeled GPU substrate (``repro.gpu``,
  ``repro.frameworks``) are the three seams named in ``SEAMS``, and
  ``repro.api``'s are function-local, so importing the API loads no
  GPU model.
"""

import ast

from test_reachability import _imported, _modules

SOLVER_LAYERS = {"core", "system", "dist", "obs", "resilience"}
ABOVE_THE_SOLVER = {"gpu", "frameworks", "portability", "tuning", "serve",
                    "sessions", "validation", "solver_sim", "cli", "api"}
SERVING = {"api", "serve", "sessions"}
MODELED = {"gpu", "frameworks"}

#: Serving modules allowed to import the modeled GPU substrate: the
#: port/device registries behind request validation, placement prices,
#: and device lanes.
SEAMS = {"repro.api", "repro.serve.cost", "repro.serve.pool"}


def _layer(name: str) -> str:
    return name.split(".")[1] if "." in name else ""


def _edges(module_level_only: bool = False) -> dict[str, set[str]]:
    """Importing module -> the ``repro`` modules its imports name."""
    modules = _modules()
    out = {}
    for name, path in modules.items():
        tree = ast.parse(path.read_text())
        if module_level_only:
            tree = ast.Module(body=[node for node in tree.body
                                    if isinstance(node, (ast.Import,
                                                         ast.ImportFrom))],
                              type_ignores=[])
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        out[name] = _imported(tree, package, modules)
    return out


def test_solver_layers_import_nothing_above_them():
    bad = sorted(
        f"{source} -> {target}"
        for source, targets in _edges().items()
        if _layer(source) in SOLVER_LAYERS
        for target in targets if _layer(target) in ABOVE_THE_SOLVER)
    assert not bad, "solver layer imports upward: " + ", ".join(bad)


def test_serving_reaches_the_gpu_model_only_through_the_seams():
    importers = {source for source, targets in _edges().items()
                 if _layer(source) in SERVING
                 and any(_layer(t) in MODELED for t in targets)}
    assert importers == SEAMS


def test_the_api_imports_the_gpu_model_lazily():
    eager = sorted(t for t in _edges(module_level_only=True)["repro.api"]
                   if _layer(t) in MODELED)
    assert not eager, f"repro.api imports at module level: {eager}"


def test_the_package_root_imports_nothing():
    """``import repro.X`` runs ``repro/__init__.py`` first; an import
    there would load its target into every process, workers included."""
    assert _edges()["repro"] == set()
