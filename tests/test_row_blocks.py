"""One copy of the coefficients per solve: the one-pass reads stream.

The column norms (on the plan and for the SPMD global scaling) and the
one-shot ``aprod1`` of the generators each read a system once, a
``CHUNK_ROWS`` row block at a time, so the only nnz-sized allocation of
a preconditioned solve is the compiled plan it iterates on.  The
``tracemalloc`` pins below bound each pass by what it is allowed to
hold -- the plan (or nothing), one row block and O(m + n) vectors -- at
a size where any nnz-sized transient breaks the bound.  The remaining
tests pin the bits: every row block, a short tail block included,
compiles the plan, so every generated right-hand side of a system of
4 096 rows or more stays what it was (the hashes were recorded before
the passes were row-blocked).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.aprod import AprodOperator, aprod1
from repro.core.kernels.gather_scatter import CHUNK_ROWS
from repro.core.precond import ColumnScaling
from repro.system.generator import make_observation_block, make_system
from repro.system.sizing import dims_from_gb


@pytest.fixture(scope="module")
def mid_system():
    """53 687 rows (six full blocks and a tail) with constraints: a
    whole-system transient is several times one block here."""
    return make_system(dims_from_gb(0.012), seed=4, noise_sigma=1e-9)


def _peak(fn):
    """``fn()``'s peak of traced allocations above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _allowed(system, held: int = 0) -> int:
    """``held`` plus one row block of coefficients at 8 B value + 8 B
    index, plus two vectors of every row and every unknown."""
    d = system.dims
    block = CHUNK_ROWS * d.nnz_per_row * 16
    return held + block + 16 * (system.n_rows + d.n_params)


def test_building_and_scaling_a_plan_holds_one_copy(mid_system):
    def build():
        ColumnScaling.from_operator(AprodOperator(mid_system))

    d = mid_system.dims
    plan = 4 * d.nnz + 4 * (d.n_obs + 1)  # int32 indices + row pointers
    assert _peak(build) <= _allowed(mid_system, held=plan)


def test_norms_on_a_built_plan_hold_one_block(mid_system):
    op = AprodOperator(mid_system)
    assert op.plan is not None
    assert _peak(op.column_sq_norms) <= _allowed(mid_system)


def test_one_shot_aprod1_holds_one_block(mid_system):
    x = np.ones(mid_system.dims.n_params)
    assert _peak(lambda: aprod1(mid_system, x)) <= _allowed(mid_system)


def test_global_scaling_holds_one_block(mid_system):
    assert _peak(lambda: ColumnScaling.from_system(mid_system)) \
        <= _allowed(mid_system)


@pytest.mark.parametrize("gb", [0.002, 0.006])
def test_one_shot_aprod1_is_the_operators_product(gb, small_system):
    """Pin: bitwise the whole operator's ``aprod1``.  Both sizes end in
    a short tail block (756 and 2 268 rows), and ``small_system`` is
    one short block."""
    system = make_system(dims_from_gb(gb), seed=5, noise_sigma=1e-9)
    assert system.dims.n_obs % CHUNK_ROWS < 4096
    for s in (system, small_system):
        x = np.random.default_rng(6).normal(size=s.dims.n_params)
        assert np.array_equal(aprod1(s, x), AprodOperator(s).aprod1(x))


def test_one_shot_aprod1_checks_the_operand(small_system):
    with pytest.raises(ValueError, match="x has shape"):
        aprod1(small_system, np.ones(small_system.dims.n_params + 1))


#: sha256 of ``known_terms``: ``make_system(dims_from_gb(gb), seed=28,
#: noise_sigma=1e-9)`` (``None``) and ``make_observation_block`` of
#: ``n`` rows over it with ``seed=29``.  5 000 rows is one block, 9 000
#: a block and an 808-row tail.
KNOWN_TERMS_SHA = {
    (0.002, None):
        "cb182b8830b115f354b6b5257738682b8dbd2f05274aaece9a47408edace0e49",
    (0.002, 5000):
        "82a83855c2c9ff1f715fc322ac37aeb71b90b93617de94cc709b7d61a4c8df5b",
    (0.002, 9000):
        "a0d45a71419b55872c02859cad8e5de7d261b85c90a4d699997ad3a2703fcfeb",
    (0.006, None):
        "f02dbb7550733f20f407edce701682afd328fef30f2c6db875d700bc3732414f",
    (0.006, 5000):
        "575e1fc6667d46c71055fda071f37153b23853863a4b13e2e6449cb7d8021e58",
    (0.006, 9000):
        "e892605b2746dfdc859bc5f2567dce35cc2d9ac126e6257a8dc64f478eb48b6e",
}


@pytest.mark.parametrize("gb", [0.002, 0.006])
def test_generated_known_terms_are_pinned(gb):
    """Pin: the generators' right-hand sides, bit for bit."""
    system = make_system(dims_from_gb(gb), seed=28, noise_sigma=1e-9)
    assert system.dims.n_obs > 4096
    got = {(gb, None): system.known_terms}
    for n in (5000, 9000):
        got[gb, n] = make_observation_block(system, n, seed=29).known_terms
    for key, terms in got.items():
        assert hashlib.sha256(terms.tobytes()).hexdigest() \
            == KNOWN_TERMS_SHA[key], key
