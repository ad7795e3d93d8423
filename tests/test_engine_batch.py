"""Batch-equivalence suite: the many-RHS engine vs. K serial solves.

This file is the contract the batched solve path
(:class:`repro.core.engine.BatchedLSQRStepEngine`,
:func:`repro.core.lsqr.lsqr_solve_batch`, :func:`repro.api.solve_batch`)
is pinned by:

- on every kernel preset (``fused``, ``auto``: both the compiled
  plan) every member of a batched solve is *bitwise* identical to the
  serial solve of that member alone -- trajectory (``itn``,
  ``istop``), solution, residual norms and variance estimates: member
  ``j`` of a stacked CSR product adds its terms in the order of the
  single product.  The port emulation's block kernels
  (``vectorized`` / ``bincount``) loop per member, so its batch is
  bitwise too;
- early-converging members freeze (their own ``itn``/``istop``) while
  the rest of the batch keeps iterating.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    STRATEGY_PRESETS,
    SolveRequest,
    batch_incompatibility,
    solve,
    solve_batch,
)
from repro.core.aprod import AprodOperator
from repro.core.engine import ISTOP_RUNNING, BatchedLSQRStepEngine, StopReason
from repro.core.lsqr import lsqr_solve, lsqr_solve_batch
from repro.core.precond import prepare
from repro.obs.telemetry import Telemetry
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation.compare import PortOperator

# ----------------------------------------------------------------------
# Strategies and helpers
# ----------------------------------------------------------------------

dims_strategy = st.builds(
    SystemDims,
    n_stars=st.integers(2, 10),
    n_obs=st.integers(40, 120),
    n_deg_freedom_att=st.integers(4, 8),
    n_instr_params=st.integers(6, 12),
    n_glob_params=st.integers(0, 1),
)

damp_strategy = st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0])


@st.composite
def batch_case(draw):
    """One shared matrix plus K perturbed right-hand sides."""
    dims = draw(dims_strategy)
    seed = draw(st.integers(0, 2**16))
    k = draw(st.integers(2, 4))
    system = make_system(dims, seed=seed, noise_sigma=1e-9)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = [system]
    for _ in range(k - 1):
        members.append(dataclasses.replace(
            system,
            known_terms=system.known_terms + rng.normal(
                scale=1e-6, size=system.known_terms.shape),
        ))
    damps = [draw(damp_strategy) for _ in range(k)]
    return system, members, damps


def _operator(system, gather, scatter, **kw):
    """Drivers take an operator.  ``vectorized`` / ``bincount`` spells
    the block kernels, the port emulation with the keyed scatter."""
    if (gather, scatter) == ("vectorized", "bincount"):
        return PortOperator(system, atomic=False, star_sorted=False, **kw)
    return AprodOperator(system, gather_strategy=gather,
                         scatter_strategy=scatter, **kw)


def _serial_results(members, damps, *, gather, scatter, iter_lim=30,
                    **kw):
    return [
        lsqr_solve(_operator(m, gather, scatter), damp=d,
                   iter_lim=iter_lim, **kw)
        for m, d in zip(members, damps)
    ]


def _batched_results(system, members, damps, *, gather, scatter,
                     iter_lim=30, **kw):
    B = np.stack([m.rhs() for m in members])
    return lsqr_solve_batch(
        _operator(system, gather, scatter), B,
        damps=damps, iter_lim=iter_lim, **kw)


def _assert_member_equal(batched, serial):
    assert batched.itn == serial.itn
    assert batched.istop == serial.istop
    np.testing.assert_array_equal(batched.x, serial.x)
    assert batched.r2norm == serial.r2norm
    assert batched.acond == serial.acond
    if serial.var is not None:
        np.testing.assert_array_equal(batched.var, serial.var)


# ----------------------------------------------------------------------
# The equivalence pin: batched == K serial solves
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(case=batch_case(), preset=st.sampled_from(sorted(STRATEGY_PRESETS)))
def test_batched_matches_serial_bitwise_on_every_preset(case, preset):
    """Every member of the batch is bitwise the serial solve --
    trajectory, solution, norms and variance."""
    system, members, damps = case
    gather, scatter = STRATEGY_PRESETS[preset]
    serial = _serial_results(members, damps, gather=gather,
                             scatter=scatter)
    batched = _batched_results(system, members, damps, gather=gather,
                               scatter=scatter)
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


@settings(max_examples=15, deadline=None)
@given(case=batch_case())
def test_batched_matches_serial_on_fused_path(case):
    """Compiled plan: member ``j`` of a stacked CSR product is bitwise
    the single product, so the batch is bitwise here too."""
    system, members, damps = case
    serial = _serial_results(members, damps, gather="fused",
                             scatter="sorted_segment")
    batched = _batched_results(system, members, damps, gather="fused",
                               scatter="sorted_segment")
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


@pytest.mark.parametrize("gather,scatter",
                         [("vectorized", "bincount"),
                          ("fused", "sorted_segment")])
def test_batch_of_one_matches_serial(small_system, gather, scatter):
    """K=1 is the degenerate batch: bitwise the plain driver."""
    serial = lsqr_solve(_operator(small_system, gather, scatter),
                        iter_lim=40)
    (batched,) = lsqr_solve_batch(
        _operator(small_system, gather, scatter),
        small_system.rhs()[None, :], iter_lim=40)
    _assert_member_equal(batched, serial)


def test_warm_start_members_match_serial(small_system):
    """Per-member x0 warm starts shift each member independently."""
    rng = np.random.default_rng(17)
    n = small_system.dims.n_params
    x0s = [None, rng.normal(scale=1e-4, size=n),
           rng.normal(scale=1e-2, size=n)]
    members = [small_system] * 3
    damps = [0.0, 0.0, 1e-3]
    serial = [lsqr_solve(AprodOperator(m), damp=d, iter_lim=25, x0=x0)
              for m, d, x0 in zip(members, damps, x0s)]
    batched = lsqr_solve_batch(
        AprodOperator(small_system),
        np.stack([m.rhs() for m in members]),
        damps=damps, x0s=x0s, iter_lim=25)
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


# ----------------------------------------------------------------------
# Early-stop staggering: converged members freeze, the rest iterate
# ----------------------------------------------------------------------

def test_early_stop_staggering_freezes_members(small_system):
    """Members with wildly different damping converge at different
    iterations; each frozen member's itn/istop must match its serial
    run exactly even though siblings kept the batch iterating."""
    damps = [50.0, 0.0, 1e-3, 10.0]
    members = [small_system] * len(damps)
    serial = _serial_results(members, damps, gather="auto",
                             scatter="auto", iter_lim=60)
    batched = _batched_results(small_system, members, damps,
                               gather="auto", scatter="auto", iter_lim=60)
    itns = [s.itn for s in serial]
    assert len(set(itns)) > 1, "test needs staggered convergence"
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)


def test_batched_engine_telemetry_counts_member_iterations(
        small_system):
    """lsqr_batch.member_iterations only counts *active* members, so
    a frozen member stops contributing the moment it converges."""
    tel = Telemetry()
    damps = [50.0, 0.0]
    members = [small_system] * 2
    batched = _batched_results(small_system, members, damps,
                               gather="auto", scatter="auto",
                               iter_lim=60, telemetry=tel)
    total_member_itns = sum(b.itn for b in batched)
    assert tel.counter("lsqr_batch.member_iterations").value == \
        total_member_itns
    assert tel.counter("lsqr_batch.iterations").value == \
        max(b.itn for b in batched)


# ----------------------------------------------------------------------
# BatchedEngineState mechanics
# ----------------------------------------------------------------------

def test_batched_state_active_done_and_abort(small_system):
    op = AprodOperator(small_system)
    engine = BatchedLSQRStepEngine(op, batch=3)
    B = np.stack([small_system.rhs()] * 3)
    state = engine.start(B)
    assert state.batch == 3
    assert list(state.active) == [0, 1, 2]
    assert not state.done
    assert state.stop_reason(0) is None

    state.abort_member(1)
    assert list(state.active) == [0, 2]
    assert state.stop_reason(1) is StopReason.ABORTED_FAULTS
    # abort is idempotent on already-stopped members
    state.members[2].istop = StopReason.ATOL_BTOL
    state.abort_member(2)
    assert state.stop_reason(2) is StopReason.ATOL_BTOL

    state = engine.step(state)  # only member 0 advances
    assert state.itn[0] == 1 and state.itn[1] == 0

    member = state.member(0)
    assert member.itn == 1
    assert member.x.shape == (small_system.dims.n_params,)
    # member() copies: mutating the view must not touch the batch
    member.x[:] = -1.0
    assert not np.any(state.X[0] == -1.0)


@pytest.mark.parametrize("gather,scatter",
                         [("vectorized", "bincount"),
                          ("fused", "sorted_segment")])
def test_member_checkpoint_resumes_through_the_serial_driver(
        small_system, tmp_path, gather, scatter):
    """A batch member IS an EngineState: saved mid-batch it resumes
    through ``lsqr_solve(resume_from=)`` to the batch's own result for
    that member, bitwise."""
    rng = np.random.default_rng(5)
    damps = [0.0, 1e-3, 0.1]
    members = [dataclasses.replace(
        small_system,
        known_terms=small_system.known_terms + rng.normal(
            scale=1e-6, size=small_system.known_terms.shape))
        for _ in damps]
    batched = _batched_results(small_system, members, damps,
                               gather=gather, scatter=scatter, iter_lim=40)

    op, _ = prepare(_operator(small_system, gather, scatter),
                    precondition=True)
    engine = BatchedLSQRStepEngine(op, batch=3, damps=damps)
    state = engine.start(np.stack([m.rhs() for m in members]))
    for _ in range(7):
        engine.step(state)
    assert list(state.itn) == [7, 7, 7]
    for j, (member, damp) in enumerate(zip(members, damps)):
        path = state.members[j].save(tmp_path / f"member{j}")
        resumed = lsqr_solve(_operator(member, gather, scatter),
                             damp=damp, iter_lim=40, resume_from=path)
        assert resumed.itn > 7
        _assert_member_equal(resumed, batched[j])


def test_batched_workspace_bytes_is_what_the_engine_holds(small_system):
    op = _operator(small_system, "fused", "sorted_segment", batch_hint=3)
    engine = BatchedLSQRStepEngine(op, batch=3)
    held = sum(a.nbytes for a in vars(engine).values()
               if isinstance(a, np.ndarray))
    assert held > 0 and op.plan.workspace_nbytes > 0
    assert engine.workspace_bytes == held + op.plan.workspace_nbytes


def test_batched_engine_rejects_bad_shapes(small_system):
    op = AprodOperator(small_system)
    engine = BatchedLSQRStepEngine(op, batch=2)
    with pytest.raises(ValueError):
        engine.start(small_system.rhs())  # 1-D, not (K, m)
    with pytest.raises(ValueError):
        engine.start(np.stack([small_system.rhs()] * 3))  # K mismatch
    with pytest.raises(ValueError):
        BatchedLSQRStepEngine(op, batch=0)


# ----------------------------------------------------------------------
# api.solve_batch: report-level equivalence and validation
# ----------------------------------------------------------------------

def test_solve_batch_matches_solve_reports(small_system):
    rng = np.random.default_rng(3)
    requests = []
    for j, damp in enumerate([0.0, 1e-3, 0.5]):
        system = dataclasses.replace(
            small_system,
            known_terms=small_system.known_terms + rng.normal(
                scale=1e-8, size=small_system.known_terms.shape))
        requests.append(SolveRequest(
            system=system, damp=damp, iter_lim=40, strategy="fused",
            seed=j, job_id=f"member-{j}"))
    reports = solve_batch(requests)
    assert [r.job_id for r in reports] == \
        ["member-0", "member-1", "member-2"]
    for req, rep in zip(requests, reports):
        solo = solve(req)
        np.testing.assert_array_equal(rep.x, solo.x)
        assert rep.itn == solo.itn
        assert rep.stop is solo.stop
        assert rep.r2norm == solo.r2norm


def test_batch_incompatibility_names_the_offending_field(
        small_system):
    base = SolveRequest(system=small_system, iter_lim=20)
    assert batch_incompatibility([base, base]) is None
    # damp/seed/x0/job_id differences are explicitly allowed
    ok = dataclasses.replace(base, damp=0.5, seed=9, job_id="other")
    assert batch_incompatibility([base, ok]) is None

    for field, value in [("atol", 1e-6), ("conlim", 1e6),
                         ("iter_lim", 21), ("precondition", False),
                         ("calc_var", False), ("strategy", "fused")]:
        bad = dataclasses.replace(base, **{field: value})
        reason = batch_incompatibility([base, bad])
        assert reason is not None and field in reason

    distributed = dataclasses.replace(base, ranks=2)
    assert "ranks" in batch_incompatibility([base, distributed])
    assert "empty" in batch_incompatibility([])

    with pytest.raises(ValueError, match="cannot solve as one batch"):
        solve_batch([base, dataclasses.replace(base, atol=1e-6)])


def test_a_resuming_request_never_rides_in_a_batch(small_system):
    """``solve`` honours ``resume_from`` (here: fails on the missing
    archive); a batch always starts cold, so it must refuse the request
    rather than silently drop the field."""
    base = SolveRequest(system=small_system, iter_lim=20)
    resumed = dataclasses.replace(base, resume_from="/nonexistent.npz")
    with pytest.raises(FileNotFoundError):
        solve(resumed)
    assert batch_incompatibility([base, resumed]) == \
        "requests[1] resumes a checkpoint"
    with pytest.raises(ValueError, match="resumes a checkpoint"):
        solve_batch([resumed, base])


def test_lsqr_solve_batch_validates_b(small_system):
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system, small_system.rhs())  # 1-D
    bad = np.stack([small_system.rhs()] * 2)
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system, bad)
    with pytest.raises(ValueError):
        lsqr_solve_batch(small_system,
                         np.stack([small_system.rhs()] * 2),
                         damps=[0.0, 0.0, 0.0])  # K mismatch


# ----------------------------------------------------------------------
# One stacked CSR product per direction
# ----------------------------------------------------------------------

def _spmm_scale_system():
    dims = SystemDims(n_stars=180, n_obs=4500, n_deg_freedom_att=4,
                      n_instr_params=6, n_glob_params=1)
    return make_system(dims, seed=7, noise_sigma=1e-9)


def test_a_batch_runs_one_plan_kernel_and_the_emulation_four():
    """The plan reports one kernel for a 4-wide product; the port
    emulation's block kernels report their four, once per product."""
    system = _spmm_scale_system()
    calls = []
    op = AprodOperator(system, kernel_hook=lambda name, *_: calls.append(
        name))
    op.aprod1_batch(np.zeros((4, system.dims.n_params)))
    assert calls == ["aprod1_fused"]

    calls.clear()
    op = PortOperator(system, atomic=True, star_sorted=False,
                      kernel_hook=lambda name, *_: calls.append(name))
    op.aprod1_batch(np.zeros((4, system.dims.n_params)))
    assert calls == ["aprod1_astro", "aprod1_att", "aprod1_instr",
                     "aprod1_glob"]


def test_spmm_batch_matches_serial_fused_solves():
    """A K=8 batch on the ``auto`` preset at 4 500 rows: every member
    bitwise its serial solve."""
    system = _spmm_scale_system()
    rng = np.random.default_rng(5)
    members = [system] + [
        dataclasses.replace(
            system,
            known_terms=system.known_terms + rng.normal(
                scale=1e-9, size=system.known_terms.shape))
        for _ in range(7)
    ]
    serial = [lsqr_solve(m, iter_lim=40) for m in members]
    batched = lsqr_solve_batch(
        system, np.stack([m.rhs() for m in members]), iter_lim=40)
    for b, s in zip(batched, serial):
        _assert_member_equal(b, s)
