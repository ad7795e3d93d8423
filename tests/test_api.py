"""Tests for the unified public solve API (repro.api)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    STRATEGY_PRESETS,
    PlacementConstraints,
    ResilienceConfig,
    SolveRequest,
    SolveReport,
    derive_seed,
    solve,
)
from repro.core.engine import StopReason
from repro.core.lsqr import LSQRResult, lsqr_solve
from repro.dist.runner import DistributedResult


def test_serial_request_matches_direct_lsqr(small_system):
    direct = lsqr_solve(small_system, iter_lim=60)
    report = solve(SolveRequest(system=small_system, iter_lim=60))
    assert isinstance(report.raw, LSQRResult)
    assert report.stop is direct.istop
    assert report.itn == direct.itn
    assert report.acond == pytest.approx(direct.acond)
    np.testing.assert_array_equal(report.x, direct.x)
    se = report.standard_errors()
    assert se.shape == direct.x.shape and np.all(se >= 0)


def test_distributed_request_matches_serial(small_system):
    serial = solve(SolveRequest(system=small_system, iter_lim=80))
    dist = solve(SolveRequest(system=small_system, ranks=4, iter_lim=80))
    assert isinstance(dist.raw, DistributedResult)
    assert dist.ranks == 4
    assert dist.stop is serial.stop
    np.testing.assert_allclose(dist.x, serial.x, rtol=1e-8, atol=1e-10)


def test_strategy_presets_agree(small_system):
    runs = {name: solve(SolveRequest(system=small_system, iter_lim=40,
                                     strategy=name))
            for name in STRATEGY_PRESETS}
    base = runs["auto"]
    for name, report in runs.items():
        np.testing.assert_allclose(report.x, base.x,
                                   rtol=1e-9, atol=1e-11,
                                   err_msg=f"strategy {name}")


def test_request_validation(small_system):
    with pytest.raises(ValueError, match="ranks"):
        SolveRequest(system=small_system, ranks=0)
    with pytest.raises(ValueError, match="strategy"):
        SolveRequest(system=small_system, strategy="warp")
    with pytest.raises(ValueError, match="seed"):
        SolveRequest(system=small_system, seed=-1)
    with pytest.raises(ValueError, match="damp"):
        SolveRequest(system=small_system, ranks=2, damp=0.1)
    with pytest.raises(ValueError, match="x0"):
        SolveRequest(system=small_system, resilience=ResilienceConfig(),
                     x0=np.zeros(small_system.dims.n_params))


def test_request_validation_is_eager(small_system):
    """Every bad numeric knob is rejected at construction, by name."""
    with pytest.raises(ValueError, match="atol"):
        SolveRequest(system=small_system, atol=-1e-9)
    with pytest.raises(ValueError, match="btol"):
        SolveRequest(system=small_system, btol=-1e-9)
    with pytest.raises(ValueError, match="conlim"):
        SolveRequest(system=small_system, conlim=0.0)
    with pytest.raises(ValueError, match="iter_lim"):
        SolveRequest(system=small_system, iter_lim=0)
    with pytest.raises(ValueError, match="damp"):
        SolveRequest(system=small_system, damp=-0.5)
    with pytest.raises(ValueError, match="checkpoint_every"):
        SolveRequest(system=small_system, checkpoint_every=0)


# A NaN passes every ``< 0`` / ``<= 0`` test: a NaN atol made rtol NaN,
# so no tolerance test could fire and a job ran to its iteration limit.
@pytest.mark.parametrize("field", ["atol", "btol", "conlim", "damp"])
def test_request_rejects_a_nan_tolerance(small_system, field):
    with pytest.raises(ValueError, match=field):
        SolveRequest(system=small_system, **{field: float("nan")})


@pytest.mark.parametrize("field", ["atol", "btol", "damp"])
def test_request_rejects_an_infinite_tolerance(small_system, field):
    with pytest.raises(ValueError, match=field):
        SolveRequest(system=small_system, **{field: float("inf")})


def test_an_infinite_conlim_still_means_no_limit(small_system):
    report = solve(SolveRequest(system=small_system, conlim=float("inf")))
    assert report.converged


def test_request_rejects_a_non_finite_x0(small_system):
    x0 = np.zeros(small_system.dims.n_params)
    x0[3] = np.nan
    with pytest.raises(ValueError, match="x0 must be finite"):
        SolveRequest(system=small_system, x0=x0)
    with pytest.raises(ValueError, match="x0 must be finite"):
        SolveRequest(system=small_system, x0=np.full_like(x0, np.inf))


def test_request_rejects_an_x0_of_the_wrong_shape(small_system):
    with pytest.raises(ValueError, match="x0 has shape"):
        SolveRequest(system=small_system, x0=np.zeros(3))


def test_request_rejects_unknown_framework_and_device(small_system):
    with pytest.raises(ValueError, match="framework 'FORTRAN'"):
        SolveRequest(system=small_system, framework="FORTRAN")
    with pytest.raises(ValueError, match="device 'K80'"):
        SolveRequest(system=small_system,
                     constraints=PlacementConstraints(devices=("K80",)))
    # The full roster (including the projected C++26 port) and every
    # platform of the study are accepted.
    ok = SolveRequest(system=small_system, framework="PSTL+EXEC",
                      constraints=PlacementConstraints(
                          devices=("MI250X",)))
    assert ok.framework == "PSTL+EXEC"
    assert ok.placement_constraints.devices == ("MI250X",)


def test_job_id_threads_through_to_the_report(small_system):
    report = solve(SolveRequest(system=small_system, iter_lim=5,
                                job_id="tenant-a/42"))
    assert report.job_id == "tenant-a/42"
    assert report.placement is None  # only the scheduler sets this
    anonymous = solve(SolveRequest(system=small_system, iter_lim=5))
    assert anonymous.job_id is None


def test_single_seed_drives_derived_streams(small_system):
    request = SolveRequest(system=small_system, seed=42,
                           resilience=ResilienceConfig(
                               comm_drop_rate=0.1))
    plan, retry = request.fault_plan, request.retry_policy
    assert plan is not None and retry is not None
    # sub-seeds are deterministic, distinct per stream, and move with
    # the one request seed
    assert plan.seed == request.fault_plan.seed
    assert plan.seed != retry.seed
    other = SolveRequest(system=small_system, seed=43,
                         resilience=ResilienceConfig(comm_drop_rate=0.1))
    assert other.fault_plan.seed != plan.seed
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    # the config carries rates; the plan carries the derived seed
    assert plan.comm_drop_rate == 0.1


def test_report_summary_and_converged(small_system):
    report = solve(SolveRequest(system=small_system, ranks=2,
                                iter_lim=80))
    text = report.summary()
    assert "istop=" in text and "ranks=2" in text
    assert report.converged
    degraded = SolveReport(
        x=report.x, stop=StopReason.DEGRADED, itn=report.itn,
        r2norm=report.r2norm, ranks=1, m=report.m, n=report.n,
    )
    assert not degraded.converged  # no resilience record: unknown engine stop


def test_resilient_request_runs_on_one_rank(small_system):
    serial = solve(SolveRequest(system=small_system, iter_lim=60))
    report = solve(SolveRequest(
        system=small_system, iter_lim=60,
        resilience=ResilienceConfig(),
    ))
    assert report.resilience is not None
    assert report.stop is serial.stop
    np.testing.assert_allclose(report.x, serial.x, rtol=1e-8, atol=1e-10)


def test_cli_chaos_smoke(capsys):
    from repro.cli import main

    assert main(["chaos", "--size-gb", "0.002", "--ranks", "2",
                 "--iterations", "60", "--scenarios", "nan"]) == 0
    out = capsys.readouterr().out
    assert "recovered" in out and "fault-free reference" in out
