"""Gang-scheduled sharded serving and the placement-constraints API.

Covers the PR's contracts:

- :class:`~repro.api.PlacementConstraints` named-field validation
  (the only placement vocabulary: ``SolveRequest(device=)`` is gone);
- the admission/placement rounding agreement at the exact free-memory
  boundary (:data:`~repro.serve.pool.MEMORY_EPSILON_GB`);
- all-or-nothing gang reservation (unit backout + a hypothesis
  property over randomized concurrent submits);
- numerics: a gang-sharded solve is bitwise-equal to the R-rank
  distributed reference (and R=1 distributed to the serial engine),
  and allclose to the serial solution at R > 1 -- rank-ordered
  partial-sum grouping differs, so bitwise-vs-serial is *not* the
  contract at R > 1;
- rank-death migration: a deterministic fault seed kills one rank
  mid-gang, the shard moves to a spare lane, and the solve resumes
  from the checkpoint archive to convergence;
- the scenario ``placement`` schema (the pre-``placement`` layout and
  any other unknown top-level/``scheduler`` key raise, key named).
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PlacementConstraints,
    ResilienceConfig,
    SolveReport,
    SolveRequest,
    solve,
)
from repro.core.engine import StopReason
from repro.gpu.interconnect import (
    allreduce_seconds,
    device_fabric,
    gang_link,
    link_between,
)
from repro.gpu.platforms import placement_devices
from repro.serve.cost import PlacementCostModel
from repro.serve.job import AdmissionDecision, ServeJob
from repro.serve.pool import DevicePool, MEMORY_EPSILON_GB
from repro.serve.scenario import parse_scenario
from repro.serve.scheduler import Scheduler
from repro.system.generator import make_system
from repro.system.sizing import dims_from_gb, shard_footprint_gb


@pytest.fixture(scope="module")
def system():
    return make_system(dims_from_gb(0.001), seed=7, noise_sigma=1e-9)


def _stub_solve(request: SolveRequest) -> SolveReport:
    return SolveReport(
        x=np.zeros(1), stop=StopReason.ATOL_BTOL, itn=1, r2norm=0.0,
        ranks=request.ranks, m=1, n=1,
    )


def _gang_request(system, **constraint_kwargs) -> SolveRequest:
    return SolveRequest(
        system=system, seed=7,
        constraints=PlacementConstraints(allow_gang=True,
                                         **constraint_kwargs))


# ---------------------------------------------------------------------
# PlacementConstraints validation
# ---------------------------------------------------------------------

def test_constraints_validate_named_fields():
    with pytest.raises(ValueError, match="devices"):
        PlacementConstraints(devices=("NotAGPU",))
    with pytest.raises(ValueError, match="devices"):
        PlacementConstraints(devices=())
    with pytest.raises(ValueError, match="max_shards"):
        PlacementConstraints(max_shards=0)
    with pytest.raises(ValueError, match="allow_gang"):
        PlacementConstraints(allow_gang=True, max_shards=1)
    with pytest.raises(ValueError, match="memory_headroom"):
        PlacementConstraints(memory_headroom=1.5)
    # Positional use is rejected outright (keyword-only API).
    with pytest.raises(TypeError):
        PlacementConstraints(("H100",))  # type: ignore[misc]


def test_constraints_coerce_list_devices():
    cons = PlacementConstraints(devices=["H100", "A100"])
    assert cons.devices == ("H100", "A100")


def test_device_kwarg_is_gone(system):
    """``constraints.devices`` is the one way to pin a request."""
    with pytest.raises(TypeError, match="device"):
        SolveRequest(system=system, device="A100")  # type: ignore[call-arg]
    request = SolveRequest(
        system=system,
        constraints=PlacementConstraints(devices=("A100",)))
    assert request.placement_constraints.devices == ("A100",)


def test_constraints_priority_adopted_by_job(system):
    request = SolveRequest(
        system=system,
        constraints=PlacementConstraints(priority=7))
    job = ServeJob(request=request, nominal_gb=1.0)
    assert job.priority == 7


def test_memory_headroom_inflates_reservation(system):
    request = SolveRequest(
        system=system,
        constraints=PlacementConstraints(memory_headroom=0.5))
    job = ServeJob(request=request, nominal_gb=1.0)
    assert job.reserve_gb == pytest.approx(job.footprint_gb * 1.5)


# ---------------------------------------------------------------------
# interconnect model
# ---------------------------------------------------------------------

def test_device_fabrics_and_link_tiers():
    assert device_fabric("H100").name == "NVLink4"
    assert device_fabric("MI250X").name == "InfinityFabric3"
    h100, t4 = placement_devices(("H100", "T4"))
    # Same platform -> native fabric; same vendor -> PCIe4 fallback;
    # cross-vendor -> PCIe3.
    assert link_between(h100, h100).name == "NVLink4"
    assert link_between(h100, t4).name == "PCIe4x16"
    mi = placement_devices(("MI250X",))[0]
    assert link_between(h100, mi).name == "PCIe3x16"


def test_gang_link_is_weakest_pairwise():
    specs = placement_devices(("H100", "H100", "T4"))
    assert gang_link(specs).name == "PCIe4x16"
    with pytest.raises(ValueError):
        gang_link(placement_devices(("H100",)))


def test_allreduce_seconds_ring_model():
    link = device_fabric("V100")
    assert allreduce_seconds(8 * 1000, 1, link) == 0.0
    two = allreduce_seconds(8 * 1000, 2, link)
    four = allreduce_seconds(8 * 1000, 4, link)
    assert 0.0 < two < four  # latency term grows with the ring


def test_gang_estimate_prices_comm_and_critical_path():
    model = PlacementCostModel(n_iterations=50)
    specs = placement_devices(("V100", "V100", "V100"), per_gcd=True)
    est = model.estimate_gang(48.0, specs)
    assert est is not None and est.ranks == 3
    assert est.comm_s > 0.0
    assert est.link_name == "NVLink2"
    assert est.seconds == pytest.approx(
        max(e.seconds for e in est.per_rank) + est.comm_s)
    # A shard that exceeds every device -> unpriceable, not an error.
    t4s = placement_devices(("T4", "T4"))
    assert model.estimate_gang(48.0, t4s) is None


# ---------------------------------------------------------------------
# exact-fit boundary (admission vs reservation rounding)
# ---------------------------------------------------------------------

def test_exact_fit_job_survives_float_residue(system):
    """Fractional reserve/release cycles must not strand an exact fit.

    Regression for the admission/placement disagreement: ``holds``
    said yes on the empty lane, but accumulated float residue left
    ``free_gb`` a hair under ``memory_gb`` and ``fits_now`` said no
    forever.  The epsilon comparison plus the release snap-back keep
    both answers consistent.
    """
    pool = DevicePool(("T4",))
    lane = pool.lanes[0]
    for i in range(200):
        chunk = 0.1 + 1e-9 * i
        pool.reserve("T4", chunk, f"j{i}")
        pool.release("T4", chunk, f"j{i}")
    assert lane.free_gb == lane.spec.memory_gb  # snapped exactly
    exact = lane.spec.memory_gb
    assert lane.holds(exact) and lane.fits_now(exact)
    pool.reserve("T4", exact, "exact")
    pool.release("T4", exact, "exact")
    assert lane.free_gb == lane.spec.memory_gb


def test_admission_and_placement_agree_at_boundary(system):
    """A job admitted on an exactly-full-size footprint must place."""
    pool = DevicePool(("T4",))
    exact = pool.lanes[0].spec.memory_gb
    sched = Scheduler(pool, workers=1, solve_fn=_stub_solve)
    job = ServeJob(request=SolveRequest(system=system),
                   nominal_gb=1.0, footprint_gb=exact)
    assert sched.submit(job) is AdmissionDecision.ADMITTED
    report = sched.run([])
    assert len(report.completed) == 1


# ---------------------------------------------------------------------
# gang reservation: all-or-nothing
# ---------------------------------------------------------------------

def test_reserve_gang_backout_restores_all_lanes():
    pool = DevicePool(("V100", "V100", "T4"))
    pool.reserve(pool.lanes[2].lane_id, 10.0, "blocker")
    before = [lane.free_gb for lane in pool.lanes]
    with pytest.raises(ValueError, match="backed out 2"):
        pool.reserve_gang([lane.lane_id for lane in pool.lanes],
                          12.0, "gang")
    assert [lane.free_gb for lane in pool.lanes] == before
    assert all("gang" not in lane.lane for lane in pool.lanes)


def test_reserve_gang_rejects_duplicate_lanes():
    pool = DevicePool(("V100", "V100"))
    ids = [pool.lanes[0].lane_id] * 2
    with pytest.raises(ValueError, match="distinct"):
        pool.reserve_gang(ids, 1.0, "gang")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n_jobs=st.integers(1, 8),
    workers=st.integers(1, 3),
)
def test_gang_admission_never_partially_reserves(seed, n_jobs, workers):
    """Property: after any mixed gang/single run drains, zero leaks.

    Randomized streams of too-large (gang) and ordinary jobs through
    a concurrent scheduler; whatever interleaving happens, every lane
    must end exactly full-free with an empty FIFO -- a partial gang
    reservation (or a leaked shard) would leave residue.
    """
    rng = np.random.default_rng(seed)
    system = make_system(dims_from_gb(0.0005), seed=3,
                         noise_sigma=1e-9)
    pool = DevicePool(("T4", "T4", "T4"))
    sched = Scheduler(pool, workers=workers, solve_fn=_stub_solve)
    jobs = []
    for i in range(n_jobs):
        if rng.random() < 0.5:
            request = _gang_request(system, max_shards=3)
            nominal = float(rng.uniform(16.0, 30.0))  # gang-only size
        else:
            request = SolveRequest(system=system, seed=7)
            nominal = float(rng.uniform(1.0, 8.0))
        jobs.append(ServeJob(request=request, nominal_gb=nominal,
                             job_id=f"h{i}"))
    report = sched.run(jobs)
    assert not report.failed
    for lane in pool.lanes:
        assert lane.free_gb == lane.spec.memory_gb
        assert not lane.lane


# ---------------------------------------------------------------------
# gang numerics: bitwise demultiplexing
# ---------------------------------------------------------------------

def test_rank1_distributed_is_bitwise_serial(system):
    serial = solve(SolveRequest(system=system, seed=7))
    dist1 = solve(SolveRequest(system=system, seed=7, ranks=1))
    assert np.array_equal(serial.x, dist1.x)


@pytest.mark.parametrize("pool_devices,max_shards,nominal,expect_ranks", [
    (("T4", "T4"), 2, 16.0, 2),
    # nominal 48: shards at R=2 (26.1 GB) and R=3 (17.9 GB) exceed the
    # T4's 15 GB, R=4 (13.7 GB) fits -> the gang is forced to 4 ranks.
    (("T4", "T4", "T4", "T4"), 4, 48.0, 4),
])
def test_gang_solve_bitwise_matches_distributed_reference(
        system, pool_devices, max_shards, nominal, expect_ranks):
    pool = DevicePool(pool_devices)
    sched = Scheduler(pool, workers=1)
    job = ServeJob(request=_gang_request(system,
                                         max_shards=max_shards),
                   nominal_gb=nominal, job_id="gang")
    report = sched.run([job])
    outcome = report.outcomes[0]
    assert outcome.decision is AdmissionDecision.ADMITTED
    assert outcome.report.ranks == expect_ranks
    shards = outcome.placements[-1].shards
    assert [s.rank for s in shards] == list(range(expect_ranks))
    assert len({s.device for s in shards}) == expect_ranks
    # The gang IS the R-rank distributed solve, bitwise.
    ref = solve(SolveRequest(system=system, seed=7,
                             ranks=expect_ranks))
    assert np.array_equal(outcome.report.x, ref.x)
    # And numerically equivalent (not bitwise: summation grouping
    # differs) to the serial engine.
    serial = solve(SolveRequest(system=system, seed=7))
    np.testing.assert_allclose(outcome.report.x, serial.x,
                               rtol=1e-5, atol=1e-10)
    for lane in pool.lanes:
        assert lane.free_gb == lane.spec.memory_gb


def test_gang_requires_opt_in(system):
    """Without allow_gang a too-large job stays a §V-B rejection."""
    pool = DevicePool(("T4", "T4"))
    sched = Scheduler(pool, workers=1)
    job = ServeJob(request=SolveRequest(system=system, seed=7),
                   nominal_gb=16.0)
    assert sched.submit(job) is AdmissionDecision.REJECTED_TOO_LARGE


def test_gang_never_used_when_a_single_lane_fits(system):
    """Sharding is an escape hatch, not a load balancer."""
    pool = DevicePool(("T4", "T4"))
    sched = Scheduler(pool, workers=1)
    job = ServeJob(request=_gang_request(system, max_shards=2),
                   nominal_gb=4.0, job_id="small")
    report = sched.run([job])
    placement = report.outcomes[0].placements[-1]
    assert placement.shards == ()
    assert report.outcomes[0].report.ranks == 1


# ---------------------------------------------------------------------
# rank-death migration
# ---------------------------------------------------------------------

def test_gang_rank_death_migrates_to_spare_lane(system):
    """Deterministic fault: rank 1 dies at itn 12, shard migrates.

    ``max_restarts=0, allow_degraded=False`` makes the first attempt
    abort with the rank recorded lost; the scheduler must move that
    shard to the spare lane, resume from the gang's checkpoint archive,
    and converge -- with the migration visible in the shard placement
    and zero reservations leaked.
    """
    res = ResilienceConfig(rank_deaths=((1, 12),), allow_degraded=False,
                           max_restarts=0, checkpoint_every=5)
    pool = DevicePool(("T4", "T4", "T4"))
    sched = Scheduler(pool, workers=1, max_replacements=1)
    request = SolveRequest(
        system=system, seed=7, resilience=res,
        constraints=PlacementConstraints(allow_gang=True, max_shards=2))
    job = ServeJob(request=request, nominal_gb=16.0, job_id="mig")
    report = sched.run([job])
    outcome = report.outcomes[0]
    assert outcome.report.stop not in (StopReason.DEGRADED,
                                       StopReason.ABORTED_FAULTS)
    assert len(outcome.placements) == 2  # original + migrated attempt
    final = outcome.placements[-1]
    moved = [s for s in final.shards if s.migrated_from]
    assert len(moved) == 1 and moved[0].rank == 1
    assert moved[0].device != moved[0].migrated_from
    assert final.attempt == 1
    for lane in pool.lanes:
        assert lane.free_gb == lane.spec.memory_gb
        assert not lane.lane


def test_gang_rank_death_without_spare_delivers_degraded(system):
    """No spare lane -> the degraded/aborted result is delivered."""
    res = ResilienceConfig(rank_deaths=((1, 12),), allow_degraded=True,
                           max_restarts=0, checkpoint_every=5)
    pool = DevicePool(("T4", "T4"))  # no spare
    sched = Scheduler(pool, workers=1, max_replacements=1)
    request = SolveRequest(
        system=system, seed=7, resilience=res,
        constraints=PlacementConstraints(allow_gang=True, max_shards=2))
    job = ServeJob(request=request, nominal_gb=16.0, job_id="deg")
    report = sched.run([job])
    outcome = report.outcomes[0]
    assert outcome.report is not None
    assert len(outcome.placements) == 1  # nowhere to migrate
    for lane in pool.lanes:
        assert lane.free_gb == lane.spec.memory_gb


# ---------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------

def test_scenario_placement_section_roundtrip():
    doc = {
        "placement": {"devices": ["V100", "V100"], "allow_gang": True,
                      "max_shards": 2, "memory_headroom": 0.1,
                      "backend": "thread", "max_fuse": 2,
                      "tuning": {"enabled": True}},
        "scheduler": {"workers": 2},
        "load": {"n_jobs": 4},
    }
    scenario = parse_scenario(doc)
    assert scenario.devices == ("V100", "V100")
    assert scenario.allow_gang and scenario.max_shards == 2
    assert scenario.memory_headroom == pytest.approx(0.1)
    assert scenario.max_fuse == 2
    assert scenario.tuning_enabled
    cons = scenario.constraints()
    assert cons is not None and cons.allow_gang
    assert cons.memory_headroom == pytest.approx(0.1)


def test_scenario_default_constraints_are_none():
    assert parse_scenario({}).constraints() is None


def test_scenario_legacy_layout_rejected():
    """The pre-``placement`` layout no longer loads: every key it used
    raises with the key named instead of being silently ignored."""
    for doc, key in [
        ({"pool": {"devices": ["T4"]}}, "pool"),
        ({"tuning": {"enabled": True}}, "tuning"),
        ({"scheduler": {"workers": 1, "max_fuse": 2}}, "max_fuse"),
        ({"scheduler": {"include_projected": True}},
         "include_projected"),
        ({"scheduler": {"store_solutions_mb": 1.0}},
         "store_solutions_mb"),
        # Typos and removed knobs in the nested sections, too.
        ({"placement": {"max_fues": 2}}, "max_fues"),
        ({"placement": {"tuning": {"budget_jobz": 8}}}, "budget_jobz"),
        ({"placement": {"tuning": {"budget_jobs": 8}}}, "budget_jobs"),
        ({"placement": {"tuning": {"priority": 100}}}, "priority"),
        ({"sessions": {"enabeld": True}}, "enabeld"),
        ({"sessions": {"enabled": True, "max_preemptions": 8}},
         "max_preemptions"),
    ]:
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_scenario(doc)


def test_scenario_mixed_layout_rejected():
    with pytest.raises(ValueError, match="'pool'"):
        parse_scenario({"placement": {}, "pool": {}})
    with pytest.raises(ValueError, match="'backend'"):
        parse_scenario({"placement": {},
                        "scheduler": {"backend": "thread"}})
    # Plain typos are unknown keys too.
    with pytest.raises(ValueError, match="'scheduller'"):
        parse_scenario({"scheduller": {"workers": 2}})


def test_gang_example_scenario_loads():
    from pathlib import Path

    from repro.serve.scenario import load_scenario

    scenario = load_scenario(
        Path(__file__).resolve().parent.parent / "examples"
        / "gang_scenario.json")
    assert scenario.allow_gang and scenario.max_shards == 4
    assert scenario.devices == ("V100",) * 4
