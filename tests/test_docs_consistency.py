"""Consistency checks between the documentation and the code.

The per-experiment index of DESIGN.md and the deliverables described
in README.md must point at files and symbols that exist -- these tests
keep the docs from rotting.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_design_experiment_benches_exist():
    text = (ROOT / "DESIGN.md").read_text()
    benches = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
    assert benches, "no bench references found in DESIGN.md"
    for name in benches:
        assert (ROOT / "benchmarks" / name).exists(), name


def test_design_modules_exist():
    text = (ROOT / "DESIGN.md").read_text()
    modules = set(re.findall(r"`((?:core|system|gpu|frameworks|"
                             r"portability|dist|validation)"
                             r"/[\w/]+\.py)`", text))
    assert modules
    for mod in modules:
        assert (ROOT / "src" / "repro" / mod).exists(), mod


def test_experiments_md_references_real_benches():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    benches = set(re.findall(r"`(bench_\w+\.py)", text))
    assert benches
    for name in benches:
        assert (ROOT / "benchmarks" / name).exists(), name


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


def test_every_bench_file_is_indexed():
    """No orphan benchmarks: each bench file appears in EXPERIMENTS.md
    or DESIGN.md."""
    indexed = ((ROOT / "EXPERIMENTS.md").read_text()
               + (ROOT / "DESIGN.md").read_text())
    for path in (ROOT / "benchmarks").glob("bench_*.py"):
        assert path.name in indexed, path.name


def test_every_source_module_has_a_docstring():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        head = path.read_text().lstrip()
        assert head.startswith('"""'), f"{path} lacks a module docstring"


def test_usage_doc_imports_resolve():
    """Every `from repro... import ...` line in docs/usage.md works."""
    text = (ROOT / "docs" / "usage.md").read_text()
    imports = [ln.strip() for ln in text.splitlines()
               if ln.strip().startswith("from repro")]
    assert imports
    checked = 0
    for stmt in imports:
        # Skip multi-line imports (unbalanced parentheses in one line).
        if stmt.count("(") != stmt.count(")"):
            continue
        exec(stmt, {})  # noqa: S102 - doc verification
        checked += 1
    assert checked >= 10


def test_pyproject_console_script_points_at_main():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'repro-gaia = "repro.cli:main"' in text
    from repro.cli import main  # noqa: F401
