"""One coefficient block: a system's storage is the compiled plan's values.

A :class:`~repro.system.sparse.GaiaSystem` stores its four coefficient
sections as column views of one C-ordered ``(n_obs, nnz_per_row)``
block, and :class:`~repro.core.kernels.plan.AprodPlan` wraps that block
as its CSR values.  These tests pin the two halves of the contract:

- the views are fixed -- stable identity, never rebound -- so nothing
  keyed by a view (``bench/check.py`` keys its CSR cache by
  ``id(system.astro_values)``) can see another system's matrix, and no
  plan can be left on an old block;
- every route that compiles a plan -- serial, rank-local, fused batch,
  generated and grown systems, a shared-memory attachment -- wraps the
  system's block instead of packing a copy.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import SolveRequest, solve, solve_batch
from repro.core.kernels.plan import AprodPlan
from repro.serve.shm import SystemStore
from repro.system.generator import make_observation_block, make_system
from repro.system.merge import append_observations
from repro.system.sparse import VALUE_FIELDS, GaiaSystem


@pytest.fixture()
def plans(monkeypatch):
    """``(plan, system)`` of every ``AprodPlan`` compiled (any thread)."""
    built = []
    init = AprodPlan.__init__

    def recording(self, system):
        init(self, system)
        built.append((self, system))

    monkeypatch.setattr(AprodPlan, "__init__", recording)
    return built


@pytest.fixture()
def constructions(monkeypatch):
    """Whether each ``GaiaSystem`` built adopted the block its value
    arrays already sliced (True) or packed a new one (False)."""
    adopted = []
    post_init = GaiaSystem.__post_init__

    def recording(self):
        given = self.astro_values
        post_init(self)
        adopted.append(np.shares_memory(given, self.coefficients))

    monkeypatch.setattr(GaiaSystem, "__post_init__", recording)
    return adopted


def _is_a_view_of_the_block(system: GaiaSystem) -> bool:
    return all(np.shares_memory(getattr(system, name), system.coefficients)
               for name in VALUE_FIELDS)


# ----------------------------------------------------------------------
# The views: stable, fixed, shared by replace
# ----------------------------------------------------------------------
def test_views_are_stable_objects_of_one_c_ordered_block(small_system):
    s = small_system
    block = s.coefficients
    assert block.shape == (s.dims.n_obs, s.dims.nnz_per_row)
    assert block.flags.c_contiguous and block.dtype == np.float64
    for name in VALUE_FIELDS:
        assert getattr(s, name) is getattr(s, name)
    assert _is_a_view_of_the_block(s)
    # The block holds each row's sections left to right.
    assert np.array_equal(block, np.hstack(
        [getattr(s, name) for name in VALUE_FIELDS]))


@pytest.mark.parametrize("name", VALUE_FIELDS + ("coefficients",))
def test_block_attributes_cannot_be_rebound(small_system, name):
    system = dataclasses.replace(small_system)
    with pytest.raises(AttributeError, match=r"dataclasses\.replace"):
        setattr(system, name, getattr(system, name).copy())
    # The other attributes stay assignable (the generator sets the rhs).
    system.known_terms = system.known_terms.copy()


def test_replace_shares_the_block_and_all_four_views(small_system):
    other = dataclasses.replace(
        small_system, known_terms=small_system.known_terms + 1.0)
    assert other.coefficients is small_system.coefficients
    for name in VALUE_FIELDS:
        assert getattr(other, name) is getattr(small_system, name)


def test_replacing_a_section_packs_a_new_block(small_system):
    values = small_system.att_values.copy()
    values[0, 0] += 1.0
    other = dataclasses.replace(small_system, att_values=values)
    assert not np.shares_memory(other.coefficients,
                                small_system.coefficients)
    assert _is_a_view_of_the_block(other)
    assert np.array_equal(other.att_values, values)
    assert np.array_equal(other.astro_values, small_system.astro_values)


def test_row_range_slices_the_parent_block(small_system):
    rows = small_system.row_range(100, 250)
    assert np.shares_memory(rows.coefficients, small_system.coefficients)
    assert np.array_equal(rows.coefficients,
                          small_system.coefficients[100:250])
    assert _is_a_view_of_the_block(rows)


def test_views_of_a_foreign_layout_are_packed(small_system):
    """Arrays that slice some other block (here a wider one) are copied
    into a block of the system's own layout."""
    s = small_system
    wide = np.zeros((s.dims.n_obs, s.dims.nnz_per_row + 1))
    wide[:, 1:] = s.coefficients
    lo = 1
    arrays = {}
    for name in VALUE_FIELDS:
        width = getattr(s, name).shape[1]
        arrays[name] = wide[:, lo:lo + width]
        lo += width
    other = dataclasses.replace(s, **arrays)
    assert not np.shares_memory(other.coefficients, wide)
    assert np.array_equal(other.coefficients, s.coefficients)


def test_a_write_through_a_view_reaches_the_plan(small_system):
    system = dataclasses.replace(
        small_system, astro_values=small_system.astro_values.copy())
    plan = AprodPlan(system)
    before = plan.A @ np.ones(system.dims.n_params)
    system.astro_values[0, 0] += 1.0
    after = plan.A @ np.ones(system.dims.n_params)
    assert after[0] == pytest.approx(before[0] + 1.0, rel=1e-12)
    assert np.array_equal(after[1:], before[1:])


# ----------------------------------------------------------------------
# Zero copy on every route that compiles a plan
# ----------------------------------------------------------------------
def test_the_plan_allocates_indices_only(plan_system):
    plan = AprodPlan(plan_system)
    assert np.shares_memory(plan.A.data, plan_system.coefficients)
    d = plan_system.dims
    assert plan.workspace_nbytes == 4 * d.nnz + 4 * (d.n_obs + 1)


def test_serial_solve_wraps_the_block(plan_system, plans):
    solve(SolveRequest(system=plan_system, iter_lim=3))
    assert len(plans) == 1
    plan, system = plans[0]
    assert system is plan_system
    assert np.shares_memory(plan.A.data, plan_system.coefficients)


def test_rank_local_plans_wrap_the_parent_block(plan_system, plans):
    """Each rank's rows are under half the block, which SciPy would
    copy a plain view of (``prune``); the plan still wraps them, and so
    does the transpose view."""
    solve(SolveRequest(system=plan_system, iter_lim=3, ranks=3))
    assert len(plans) == 3
    for plan, _ in plans:
        assert np.shares_memory(plan.A.data, plan_system.coefficients)
        assert np.shares_memory(plan.At.data, plan_system.coefficients)


def test_fused_batch_wraps_the_shared_block(plan_system, plans):
    rng = np.random.default_rng(3)
    members = [dataclasses.replace(
        plan_system, known_terms=plan_system.known_terms
        + rng.normal(scale=1e-9, size=plan_system.dims.n_obs))
        for _ in range(3)]
    solve_batch([SolveRequest(system=m, iter_lim=3) for m in members])
    assert len(plans) == 1
    for member in members:
        assert np.shares_memory(plans[0][0].A.data, member.coefficients)


def test_generated_and_grown_systems_adopt_their_drawn_block(
        small_dims, constructions, plans):
    parent = make_system(small_dims, seed=4)
    block = make_observation_block(parent, 300, seed=5)
    child = append_observations(parent, block)
    assert constructions and all(constructions)
    for system in (parent, block, child):
        assert system.coefficients.flags.owndata
        assert _is_a_view_of_the_block(system)
    # The known terms were taken with plans over row ranges of the
    # drawn blocks (small dims: no plan compiled is also fine).
    for plan, system in plans:
        assert np.shares_memory(plan.A.data, system.coefficients)


def test_an_attached_matrix_plan_wraps_the_read_only_segment(
        plan_system, own_segments):
    with SystemStore() as store:
        name = store.publish(plan_system)
        attached = store.attach(name)
        system = attached.system(plan_system.known_terms,
                                 plan_system.constraints.rhs)
        segment = np.frombuffer(store._segments[name].buf, dtype=np.uint8)
        assert np.shares_memory(system.coefficients, segment)
        assert not system.coefficients.flags.writeable
        for field in VALUE_FIELDS:
            assert getattr(system, field) is attached.arrays[field]
        plan = AprodPlan(system)
        assert np.shares_memory(plan.A.data, system.coefficients)
        x = np.random.default_rng(0).normal(size=plan_system.dims.n_params)
        assert np.array_equal(plan.A @ x, AprodPlan(plan_system).A @ x)
        del plan, system, attached, segment
