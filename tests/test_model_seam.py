"""One modeled launch sequence and one tunability rule, on the source.

The modeled iteration's launches -- aprod1 back to back, aprod2 on
streams, the vector-op bundle -- are timed in one function of
``frameworks/executor.py``; ``model_iteration``, the tuning sweep's
per-candidate evaluator and the timeline trace all read that one
sequence, so no second copy of the kernel-time or stream arithmetic
can drift from it.  Whether a port's geometry is its own to sweep on a
device is decided by ``Port.tunable`` alone, so the sweeper, the
covering set, the tuning study, placement pricing and the CLI give one
answer.  The host runs one production kernel set, the compiled plan:
the paper's block kernels exist only as the validation's port
emulation, so nothing outside ``validation/`` builds or names them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _callers(name):
    """Modules with a call whose callee is (or ends in) ``name``."""
    return {
        module for module, tree in _trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))
    }


def _policy_comparisons():
    """``(module:function, member)`` of every ``GeometryPolicy.X`` compared."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            scope = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                sep = "" if where.endswith(":") else "."
                scope = f"{where}{sep}{child.name}"
            if isinstance(child, ast.Compare):
                for operand in (child.left, *child.comparators):
                    if (isinstance(operand, ast.Attribute)
                            and getattr(operand.value, "id", None)
                            == "GeometryPolicy"):
                        found.append((scope, operand.attr))
            visit(child, scope)

    for module, tree in _trees():
        visit(tree, f"{module}:")
    return found


def test_the_launch_sequence_is_written_once():
    assert _callers("kernel_time") == {"frameworks/executor.py"}
    assert _callers("StreamSchedule") == {"frameworks/executor.py"}
    assert _callers("_launch_sequence") == {
        "frameworks/executor.py", "tuning/sweep.py", "gpu/trace.py"}


def test_one_rule_decides_what_is_tunable():
    compared = _policy_comparisons()
    assert {where for where, member in compared if member == "TUNED"} == {
        "frameworks/base.py:Port.tunable"}
    # The other policies pick a launch geometry, in one place.
    assert {where for where, _ in compared} == {
        "frameworks/base.py:Port.tunable",
        "frameworks/base.py:Port.geometry"}


def _named(name):
    """Modules that reference ``name`` in code (a name, an attribute or
    an import), docstrings and comments aside."""
    return {
        module for module, tree in _trees() for node in ast.walk(tree)
        if name in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.alias) and node.name == name)
    }


def test_the_block_kernels_are_the_validations_alone():
    kernel_sets = ("BlockKernels", "PortKernels")
    assert set().union(*map(_callers, kernel_sets)) == {
        "validation/compare.py"}
    for kernels in kernel_sets:
        assert {module.split("/")[0] for module in _named(kernels)} == {
            "validation"}, kernels
