"""Tests for the fault-injection & recovery subsystem (repro.resilience)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.api import STRATEGY_PRESETS, ResilienceConfig, SolveRequest, solve
from repro.core.aprod import AprodOperator
from repro.core.convergence import NormExplosionGuard
from repro.core.engine import EngineState, StopReason
from repro.dist.decomposition import (
    RankBlock,
    gather_state,
    partition_by_rows,
    shard_state,
)
from repro.dist.runner import DistributedLSQR
from repro.obs.export import to_markdown
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    UnrecoverableFault,
    PH_NORMALIZE,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.recovery import ResilientDistributedLSQR


# ---------------------------------------------------------------------------
# FaultPlan


def test_fault_plan_validates_rates():
    with pytest.raises(ValueError, match="comm_drop_rate"):
        FaultPlan(comm_drop_rate=1.5)
    with pytest.raises(ValueError, match="sum"):
        FaultPlan(comm_drop_rate=0.6, payload_nan_rate=0.6)
    with pytest.raises(ValueError, match="rank_deaths"):
        FaultPlan(rank_deaths=((0, 0),))  # itn must be >= 1


def test_fault_plan_draws_are_deterministic_and_rank_independent():
    plan = FaultPlan(seed=7, comm_drop_rate=0.2, payload_nan_rate=0.2)
    draws = [plan.fault_for(itn, phase, 0, 4)
             for itn in range(1, 30) for phase in (2, 3)]
    again = [plan.fault_for(itn, phase, 0, 4)
             for itn in range(1, 30) for phase in (2, 3)]
    assert draws == again
    assert any(d is not None for d in draws)
    # attempt and generation key independent streams: replaying the
    # same epochs after a restart redraws the whole schedule
    regen = [plan.fault_for(itn, phase, 0, 4, generation=1)
             for itn in range(1, 30) for phase in (2, 3)]
    assert regen != draws


def test_fault_plan_death_schedule():
    plan = FaultPlan(rank_deaths=((2, 7),))
    assert plan.active
    assert plan.dies_here(2, 7, PH_NORMALIZE)
    assert not plan.dies_here(2, 7, PH_NORMALIZE + 1)
    assert not plan.dies_here(1, 7, PH_NORMALIZE)
    survived = plan.without_death(2, 7)
    assert not survived.dies_here(2, 7, PH_NORMALIZE)
    assert not survived.active
    assert "death" in plan.describe()


# ---------------------------------------------------------------------------
# RetryPolicy


def test_retry_policy_backoff_and_escalation():
    policy = RetryPolicy(max_retries=2, backoff_base_s=0.001,
                         backoff_factor=2.0, jitter=0.0)
    rng = policy.make_rng()
    assert policy.delay_s(2, rng) == pytest.approx(0.002)
    policy.escalate(2, Exception("x"), epoch="normalize")  # within budget
    with pytest.raises(UnrecoverableFault, match="normalize"):
        policy.escalate(3, Exception("x"), epoch="normalize")
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(epoch_timeout_s=0.0)


# ---------------------------------------------------------------------------
# State validation helpers


def test_engine_state_validate_flags_nonfinite(small_system):
    report = solve(SolveRequest(system=small_system, iter_lim=3))
    state = EngineState(
        itn=1, x=report.x.copy(), u=np.ones(4), v=np.ones(4),
        w=np.ones(4),
        **{f: 1.0 for f in EngineState._SCALARS},
    )
    assert state.is_finite
    state.u[2] = np.nan
    state.alfa = np.inf
    assert set(state.validate()) == {"u", "alfa"}


def test_norm_explosion_guard():
    guard = NormExplosionGuard(factor=1.5)
    assert not guard.check(10.0)
    assert not guard.check(8.0)     # decreasing: fine
    assert not guard.check(9.0)     # small wobble under 1.5x best
    assert guard.check(13.0)        # > 1.5 * 8.0: explosion
    assert guard.check(np.nan)
    guard.reset()
    assert not guard.check(100.0)


# ---------------------------------------------------------------------------
# Recovery: rank death -> degraded completion (the acceptance scenario)


@pytest.mark.parametrize("strategy", sorted(STRATEGY_PRESETS))
def test_rank_death_recovers_to_fault_free_solution(small_system, strategy):
    """4-rank solve with rank 2 dying at iteration 7 completes via
    checkpoint recovery on 3 ranks; the solution matches the
    fault-free run to rtol=1e-10 and StopReason reports the path."""
    reference = solve(SolveRequest(system=small_system, ranks=4,
                                   strategy=strategy, iter_lim=80))
    tel = Telemetry()
    report = solve(SolveRequest(
        system=small_system, ranks=4, strategy=strategy, iter_lim=80,
        telemetry=tel,
        resilience=ResilienceConfig(rank_deaths=((2, 7),),
                                    checkpoint_every=5),
    ))
    chaos = report.resilience
    assert chaos is not None
    assert report.stop is StopReason.DEGRADED
    assert chaos.engine_stop is reference.stop
    assert report.converged
    assert report.ranks == 3
    assert chaos.ranks_lost == [2]
    assert chaos.restarts == 1
    assert chaos.degraded
    assert chaos.fault_counts() == {"rank_death": 1}
    np.testing.assert_allclose(report.x, reference.x,
                               rtol=1e-10, atol=1e-12)
    # fault/retry/recovery counters are visible in the telemetry export
    assert tel.counter("resilience.faults_injected",
                       kind="rank_death", rank="2").value == 1
    assert tel.counter("resilience.restarts").value == 1
    assert tel.counter("resilience.checkpoints").value >= 1
    assert "resilience.faults_injected" in to_markdown(tel)


def test_transient_faults_are_retried_to_the_same_answer(small_system):
    reference = solve(SolveRequest(system=small_system, ranks=3,
                                   iter_lim=80))
    report = solve(SolveRequest(
        system=small_system, ranks=3, iter_lim=80, seed=5,
        resilience=ResilienceConfig(comm_drop_rate=0.05,
                                    payload_nan_rate=0.05),
    ))
    assert report.stop is reference.stop
    assert report.resilience is not None
    assert report.resilience.retries > 0
    assert not report.resilience.degraded
    np.testing.assert_allclose(report.x, reference.x,
                               rtol=1e-10, atol=1e-12)


def test_silent_corruption_rolls_back_to_checkpoint(small_system):
    reference = solve(SolveRequest(system=small_system, ranks=2,
                                   iter_lim=80))
    report = solve(SolveRequest(
        system=small_system, ranks=2, iter_lim=80, seed=3,
        resilience=ResilienceConfig(silent_nan_rate=0.03,
                                    checkpoint_every=3),
    ))
    chaos = report.resilience
    assert chaos is not None
    if chaos.fault_counts().get("silent_nan"):
        assert chaos.rollbacks > 0
    np.testing.assert_allclose(report.x, reference.x,
                               rtol=1e-10, atol=1e-12)


def test_chaos_runs_are_seed_reproducible(small_system):
    request = SolveRequest(
        system=small_system, ranks=3, iter_lim=60, seed=9,
        resilience=ResilienceConfig(comm_drop_rate=0.05,
                                    payload_nan_rate=0.05,
                                    rank_deaths=((1, 6),),
                                    checkpoint_every=4),
    )
    first = solve(request)
    second = solve(request)
    assert first.resilience is not None and second.resilience is not None
    assert ([e.describe() for e in first.resilience.events]
            == [e.describe() for e in second.resilience.events])
    assert first.stop is second.stop
    np.testing.assert_array_equal(first.x, second.x)


def test_death_without_degraded_mode_aborts(small_system):
    report = solve(SolveRequest(
        system=small_system, ranks=3, iter_lim=80,
        resilience=ResilienceConfig(rank_deaths=((1, 6),),
                                    checkpoint_every=4,
                                    allow_degraded=False),
    ))
    assert report.stop is StopReason.ABORTED_FAULTS
    assert not report.converged
    chaos = report.resilience
    assert chaos is not None
    assert chaos.ranks_lost == [1]
    # the abort still hands back the best checkpointed solution
    assert report.itn >= 4
    assert np.all(np.isfinite(report.x))


def test_exhausted_retries_abort_the_solve(small_system):
    """A 100% drop rate defeats every retry: ABORTED_FAULTS with the
    zero solution (nothing was ever checkpointed)."""
    report = solve(SolveRequest(
        system=small_system, ranks=2, iter_lim=20,
        resilience=ResilienceConfig(comm_drop_rate=1.0, max_retries=2,
                                    max_restarts=1),
    ))
    assert report.stop is StopReason.ABORTED_FAULTS
    assert report.itn == 0
    assert not np.any(report.x)
    summary = report.resilience.summary()
    assert "ABORTED_FAULTS" in summary and "comm_drop" in summary


@pytest.mark.parametrize("strategy", sorted(STRATEGY_PRESETS))
def test_resilient_driver_without_faults_matches_plain_distributed(
        plan_system, strategy):
    reference = solve(SolveRequest(system=plan_system, ranks=3,
                                   iter_lim=60, strategy=strategy))
    gather, scatter = STRATEGY_PRESETS[strategy]
    driver = ResilientDistributedLSQR(DistributedLSQR(
        plan_system, 3,
        local_operator=partial(AprodOperator, gather_strategy=gather,
                               scatter_strategy=scatter)))
    result, chaos = driver.solve(iter_lim=60)
    assert result.stop is reference.stop
    assert chaos.stop is reference.stop
    assert not chaos.events and not chaos.retries
    np.testing.assert_array_equal(result.x, reference.x)


# ---------------------------------------------------------------------------
# Global checkpoints: gather_state / shard_state + EngineState.save / .load


def test_global_checkpoint_roundtrip_and_shard_validation(tmp_path):
    n, m, n_con = 6, 12, 2
    state = EngineState(
        itn=4, x=np.arange(n, dtype=float), u=np.zeros(3),
        v=np.ones(n), w=np.ones(n), var=np.ones(n),
        istop=StopReason.ITERATION_LIMIT,
        **{f: float(i) for i, f in enumerate(EngineState._SCALARS)},
    )
    u_blocks = [np.arange(7, dtype=float),
                np.arange(5 + n_con, dtype=float) + 100]  # 5 obs + tail
    ckpt = gather_state(state, u_blocks)
    assert ckpt.u.size == m + n_con
    assert not np.shares_memory(ckpt.x, state.x)

    loaded = EngineState.load(ckpt.save(tmp_path / "ckpt"))
    np.testing.assert_array_equal(loaded.u, np.concatenate(u_blocks))
    assert all(getattr(loaded, f) == getattr(state, f)
               for f in EngineState._SCALARS)
    assert loaded.itn == 4

    # the same decomposition gets its blocks back, the tail with its owner
    same = shard_state(loaded, [RankBlock(0, 0, 7),
                                RankBlock(1, 7, m, owns_constraints=True)])
    for shard, block in zip(same, u_blocks):
        np.testing.assert_array_equal(shard.u, block)
    # re-shard onto fewer ranks
    (one,) = shard_state(loaded, [RankBlock(0, 0, m, owns_constraints=True)])
    np.testing.assert_array_equal(one.u, loaded.u)
    assert one.istop is None
    assert not np.shares_memory(one.x, loaded.x)
    with pytest.raises(ValueError, match="decomposition"):
        shard_state(loaded, [RankBlock(0, 0, m + n_con + 1,
                                       owns_constraints=True)])


def test_gathered_rank_blocks_are_the_serial_state(small_system, tmp_path):
    """The last rank owns the constraint rows, so a 3-rank dump holds
    the vectors of the serial dump, in its order (values to the
    serial-vs-distributed tolerance), and re-shards onto any count."""
    paths = {}
    for ranks in (1, 3):
        paths[ranks] = tmp_path / f"r{ranks}.npz"
        solve(SolveRequest(system=small_system, ranks=ranks, iter_lim=12,
                           checkpoint_every=6,
                           checkpoint_path=paths[ranks]))
    serial, dist = (EngineState.load(paths[r]) for r in (1, 3))
    assert dist.itn == serial.itn == 12
    assert dist.u.shape == serial.u.shape == (small_system.n_rows,)
    for name in ("x", "u", "v", "w", "var"):
        np.testing.assert_allclose(getattr(dist, name),
                                   getattr(serial, name),
                                   rtol=1e-8, atol=1e-10, err_msg=name)
    for ranks in (2, 4):
        blocks = partition_by_rows(small_system, ranks)
        shards = shard_state(dist, blocks)
        np.testing.assert_array_equal(
            np.concatenate([s.u for s in shards]), dist.u)
        assert [s.u.size for s in shards[:-1]] == [
            b.n_rows for b in blocks[:-1]]


def test_checkpoint_path_writes_global_snapshots(small_system, tmp_path):
    path = tmp_path / "resilient.npz"
    report = solve(SolveRequest(
        system=small_system, ranks=2, iter_lim=40,
        checkpoint_path=path,
        resilience=ResilienceConfig(checkpoint_every=10),
    ))
    assert path.exists()
    ckpt = EngineState.load(path)
    assert ckpt.itn <= report.itn
    assert ckpt.u.size == small_system.n_rows


# ---------------------------------------------------------------------------
# Fault isolation inside batched many-RHS solves: one member going bad
# must never contaminate its batch siblings (the fusion-safety
# counterpart of the rank-death scenarios above)


def _batched_engine(system, k):
    from repro.core.engine import BatchedLSQRStepEngine

    return BatchedLSQRStepEngine(AprodOperator(system), batch=k)


def _member_rhs(system, k):
    rng = np.random.default_rng(71)
    base = system.rhs()
    return np.stack(
        [base] + [base + rng.normal(scale=1e-6, size=base.shape)
                  for _ in range(k - 1)])


def _run_engine(engine, B, *, fault_at=None, poison=None, cap=80):
    state = engine.start(B)
    for itn in range(cap):
        if state.done:
            break
        if fault_at is not None and itn == fault_at:
            poison(state)
        engine.step(state)
    return state


def test_nan_poisoned_member_aborts_without_contagion(small_system):
    """A NaN landing in one member's bidiagonalization vector (the
    payload-corruption fault above, inside a batch) trips the
    engine's non-finite guard for that member alone: it freezes as
    ABORTED_FAULTS while every sibling finishes bitwise identical to
    a fault-free batch."""
    K, bad = 3, 1
    B = _member_rhs(small_system, K)
    clean = _run_engine(_batched_engine(small_system, K), B.copy())
    assert int(clean.itn[bad]) > 6  # the fault must land mid-flight

    def poison(state):
        state.U[bad, 0] = np.nan

    faulty = _run_engine(_batched_engine(small_system, K), B.copy(),
                         fault_at=5, poison=poison)
    assert faulty.stop_reason(bad) is StopReason.ABORTED_FAULTS
    assert faulty.itn[bad] < clean.itn[bad]
    for j in range(K):
        if j == bad:
            continue
        np.testing.assert_array_equal(faulty.X[j], clean.X[j])
        assert faulty.itn[j] == clean.itn[j]
        assert faulty.stop_reason(j) is clean.stop_reason(j)
        assert faulty.member(j).is_finite


def test_aborted_member_freezes_at_point_of_death(small_system):
    """abort_member (the batch analogue of a rank death) freezes the
    member's partial state exactly where it died and removes it from
    the active set; siblings keep iterating to the fault-free
    answer."""
    K, dead, die_at, cap = 3, 2, 4, 80
    B = _member_rhs(small_system, K)

    engine = _batched_engine(small_system, K)
    state = engine.start(B.copy())
    for _ in range(die_at):
        engine.step(state)
    x_at_death = state.X[dead].copy()
    state.abort_member(dead)
    assert dead not in state.active
    for _ in range(cap - die_at):
        if state.done:
            break
        engine.step(state)

    assert state.stop_reason(dead) is StopReason.ABORTED_FAULTS
    assert state.itn[dead] == die_at
    np.testing.assert_array_equal(state.X[dead], x_at_death)

    clean = _run_engine(_batched_engine(small_system, K), B.copy())
    for j in range(K):
        if j == dead:
            continue
        np.testing.assert_array_equal(state.X[j], clean.X[j])
        assert state.itn[j] == clean.itn[j]
