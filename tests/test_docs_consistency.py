"""Consistency checks between the documentation and the code.

The per-experiment evidence of EXPERIMENTS.md and DESIGN.md and the
deliverables described in README.md must point at tests, files and
symbols that exist -- these tests keep the docs from rotting.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A tier-1 test id as the docs cite it: ``tests/x.py::test_y`` or
#: ``tests/x.py::TestClass::test_y`` (a parametrize suffix is allowed).
TEST_ID = re.compile(r"`(tests/\w+\.py)::((?:\w+::)?test_\w+)(?:\[[^\]]*\])?`")


def _collected(path: str, name: str) -> bool:
    """Whether pytest collects ``name`` from ``path``: a module-level
    ``test_*`` function, or a ``test_*`` method of a ``Test*`` class."""
    body = ast.parse((ROOT / path).read_text()).body
    *owner, func = name.split("::")
    if owner:
        classes = [node for node in body if isinstance(node, ast.ClassDef)
                   and node.name == owner[0]]
        if not classes or not owner[0].startswith("Test"):
            return False
        body = classes[0].body
    return any(isinstance(node, ast.FunctionDef) and node.name == func
               for node in body)


def _evidence_cells():
    """(where, text) of every evidence cell: the evidence column of
    each ``| E<n> |`` row of EXPERIMENTS.md and of DESIGN.md's
    per-experiment index, and each ``Evidence:`` paragraph."""
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for line in experiments.splitlines():
        if re.match(r"\| E\d+ \|", line):
            yield line.split(" | ")[0], line.split(" | ")[2]
    for para in experiments.split("\n\n"):
        if para.startswith("Evidence:"):
            yield "EXPERIMENTS.md paragraph", para
    for line in (ROOT / "DESIGN.md").read_text().splitlines():
        if re.match(r"\| E\d+ \|", line):
            yield "DESIGN.md " + line.split(" | ")[0], line.split(" | ")[-1]


def test_every_experiment_cites_collected_evidence():
    """Each evidence cell names tier-1 tests that pytest collects, or
    points at the benchmark (`bench/`), or says the claim was removed
    (or refers to another row: "as E5")."""
    cells = list(_evidence_cells())
    assert len(cells) > 50
    for where, cell in cells:
        ids = TEST_ID.findall(cell)
        for path, name in ids:
            assert (ROOT / path).exists() and _collected(path, name), (
                f"{where}: {path}::{name} is not a collected test")
        assert (ids or "`bench/" in cell or "removed" in cell
                or re.fullmatch(r"\s*as E\d+\s*\|?\s*", cell)), (
            f"{where}: no tier-1 test, `bench/` or 'removed' in {cell!r}")


#: A benchmark path as the docs cite it: `bench/` or `bench/run.py`.
BENCH_PATH = re.compile(r"`(bench/[\w./-]*)`")


def _bench_references_exist(doc: str):
    """Every `bench/...` path ``doc`` cites exists, and none of the
    retired per-figure ``bench_*.py`` scripts is still named."""
    text = (ROOT / doc).read_text()
    paths = set(BENCH_PATH.findall(text))
    assert paths, f"no benchmark references found in {doc}"
    for path in paths:
        assert (ROOT / path).exists(), f"{doc}: {path}"
    stale = re.findall(r"bench_\w+\.py", text)
    assert not stale, f"{doc} names retired scripts {stale}"


def test_design_experiment_benches_exist():
    _bench_references_exist("DESIGN.md")


def test_experiments_md_references_real_benches():
    _bench_references_exist("EXPERIMENTS.md")


def test_every_bench_file_is_indexed():
    """No orphan benchmarks: each workload BENCHMARK.json declares is
    named in EXPERIMENTS.md, and each declared benchmark path exists."""
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    indexed = (ROOT / "EXPERIMENTS.md").read_text()
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads
    for name in workloads:
        assert f"`{name}`" in indexed, name
    for path in spec["paths"]:
        assert (ROOT / path).is_dir(), path
    assert (ROOT / spec["command"][-1]).exists()


def test_design_modules_exist():
    text = (ROOT / "DESIGN.md").read_text()
    modules = set(re.findall(r"`((?:core|system|gpu|frameworks|"
                             r"portability|dist|validation)"
                             r"/[\w/]+\.py)`", text))
    assert modules
    for mod in modules:
        assert (ROOT / "src" / "repro" / mod).exists(), mod


def test_readme_examples_exist():
    """README's Quickstart names exactly the example scripts: no orphan
    example, no missing file."""
    text = (ROOT / "README.md").read_text()
    quickstart = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"examples/(\w+\.py)", quickstart))
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert named == on_disk


def test_cli_subcommands_are_documented():
    """DESIGN.md's S9 row and README's subcommand count match the
    parser."""
    import argparse

    from repro.cli import build_parser

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = set(sub.choices)
    design = (ROOT / "DESIGN.md").read_text()
    (row,) = [ln for ln in design.splitlines() if ln.startswith("| S9 |")]
    documented = re.search(r"`repro-gaia ([\w|]+)`", row).group(1)
    assert set(documented.split("|")) == parsed
    readme = (ROOT / "README.md").read_text()
    count = re.search(r"\((\d+) subcommands\)", readme).group(1)
    assert int(count) == len(parsed)


def test_every_source_module_has_a_docstring():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        head = path.read_text().lstrip()
        assert head.startswith('"""'), f"{path} lacks a module docstring"


#: A fenced code block of a Markdown file: ``(language, body)``.
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.S | re.M)


def _doc_imports():
    """``(doc, statement, wrapped)`` of every ``from repro... import`` in
    a fenced python block of ``docs/*.md``, found by parsing the block,
    so an import wrapped over several lines counts like any other."""
    for doc in sorted((ROOT / "docs").glob("*.md")):
        for lang, body in _FENCE.findall(doc.read_text()):
            if lang not in ("python", "py"):
                continue
            for node in ast.walk(ast.parse(body, filename=doc.name)):
                if (isinstance(node, ast.ImportFrom)
                        and (node.module or "").split(".")[0] == "repro"):
                    yield (doc.name, ast.unparse(node),
                           node.end_lineno > node.lineno)


def test_doc_imports_resolve():
    """Every ``from repro... import`` in a python block of ``docs/``
    works, parenthesised multi-line imports included."""
    imports = list(_doc_imports())
    assert {"usage.md", "observability.md", "sessions.md"} <= {
        doc for doc, _, _ in imports}
    assert any(wrapped for _, _, wrapped in imports)
    for doc, stmt, _ in imports:
        try:
            exec(stmt, {})  # noqa: S102 - doc verification
        except ImportError as exc:
            raise AssertionError(f"docs/{doc}: {stmt}: {exc}") from exc
    assert len(imports) >= 50


def test_pyproject_console_script_points_at_main():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'repro-gaia = "repro.cli:main"' in text
    from repro.cli import main  # noqa: F401
