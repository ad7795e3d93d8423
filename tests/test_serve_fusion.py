"""Serve-side request fusion: coalescing, demux and negative cases.

Pins the scheduler's batched execution path (``max_fuse > 1``):
fusion-compatible queued jobs -- same matrix digest and shared engine
configuration, differing only in rhs / damp / seed -- coalesce into
one :func:`repro.api.solve_batch` sweep, and each member's report
demultiplexes with its own ``job_id``, placement (tagged with the
shared ``batch_id``) and cache entry.  Jobs differing in any fused
engine parameter, or in the matrix itself, must **never** fuse.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlacementConstraints, SolveReport, SolveRequest, solve
from repro.core.engine import StopReason
from repro.obs.telemetry import Telemetry
from repro.serve.cache import (
    ResultCache,
    fusion_key,
    request_key,
    shared_config_digest,
)
from repro.serve.job import ServeJob
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.pool import DevicePool
from repro.serve.scenario import parse_scenario
from repro.serve.scheduler import Scheduler
from repro.system.digest import matrix_digest
from repro.system.generator import make_system
from repro.system.structure import SystemDims

SMALL_DIMS = SystemDims(n_stars=20, n_obs=600, n_deg_freedom_att=12,
                        n_instr_params=18, n_glob_params=1)
BASE = make_system(SMALL_DIMS, seed=11, noise_sigma=1e-10)


def _variant(v: int, system=BASE):
    """Same matrix, deterministically perturbed known terms."""
    if v == 0:
        return system
    rng = np.random.default_rng((41, v))
    return dataclasses.replace(
        system,
        known_terms=system.known_terms + rng.normal(
            scale=1e-9, size=system.known_terms.shape))


def _job(job_id: str, *, variant=0, nominal_gb=10.0, system=None,
         **request_kwargs) -> ServeJob:
    request_kwargs.setdefault("iter_lim", 40)
    request = SolveRequest(
        system=system if system is not None else _variant(variant),
        job_id=job_id, **request_kwargs)
    return ServeJob(request=request, nominal_gb=nominal_gb,
                    job_id=job_id)


def _run(jobs, *, max_fuse=8, workers=1, cache=None, tel=None,
         **sched_kwargs):
    sched = Scheduler(DevicePool(("A100", "H100")), workers=workers,
                      cache=cache, max_fuse=max_fuse, telemetry=tel,
                      **sched_kwargs)
    report = sched.run(jobs)
    return sched, report


# ----------------------------------------------------------------------
# Fusibility and the fusion key
# ----------------------------------------------------------------------

def test_fusible_excludes_stateful_requests():
    assert _job("a").fusible
    from repro.api import ResilienceConfig

    assert not _job("b", ranks=2).fusible
    assert not _job("c", resilience=ResilienceConfig()).fusible
    assert not _job("d", checkpoint_every=5).fusible
    assert not _job("e", telemetry=Telemetry()).fusible
    assert not _job("f", callback=lambda s: None).fusible


def test_fusion_key_same_matrix_different_rhs():
    a, b = _job("a", variant=0), _job("b", variant=1)
    assert a.fusion_key() == b.fusion_key()
    # ...but they are distinct cacheable identities
    assert request_key(a.request) != request_key(b.request)
    assert matrix_digest(a.request.system) == \
        matrix_digest(b.request.system)


def test_fusion_key_separates_engine_configs():
    base = _job("a")
    for kwargs in ({"iter_lim": 41}, {"atol": 1e-6},
                   {"conlim": 1e6}, {"precondition": False},
                   {"calc_var": False}, {"strategy": "fused"}):
        other = _job("b", **kwargs)
        assert base.fusion_key() != other.fusion_key(), kwargs

    # damp and seed explicitly do NOT separate
    assert base.fusion_key() == _job("b", damp=0.5, seed=7).fusion_key()
    # different matrix does
    other_sys = make_system(SMALL_DIMS, seed=99, noise_sigma=1e-10)
    assert base.fusion_key() != _job("b", system=other_sys).fusion_key()
    # placement-affecting job fields do too
    assert base.fusion_key() != _job("b", nominal_gb=30.0).fusion_key()
    pinned = _job("b", constraints=PlacementConstraints(
        devices=("H100",)))
    assert base.fusion_key() != pinned.fusion_key()


def test_shared_config_digest_ignores_rhs_fields():
    a, b = _job("a").request, _job("b", damp=1.0, seed=3).request
    assert shared_config_digest(a) == shared_config_digest(b)
    assert shared_config_digest(a) != shared_config_digest(
        _job("c", atol=1e-8).request)


# ----------------------------------------------------------------------
# The positive path: coalesce, solve once, demultiplex
# ----------------------------------------------------------------------

def test_scheduler_fuses_compatible_jobs_and_demuxes_bitwise():
    tel = Telemetry()
    jobs = [_job(f"j{v}", variant=v, damp=0.1 * v) for v in range(4)]
    _, report = _run(jobs, tel=tel)
    assert len(report.completed) == 4
    assert tel.counter("serve.fusion.batches").value == 1
    assert tel.counter("serve.fusion.members").value == 4

    batch_ids = set()
    for outcome in report.completed:
        placement = outcome.report.placement
        assert placement.batch_id is not None
        assert placement.batch_size == 4
        batch_ids.add(placement.batch_id)
        # demux: the right answer under the right job_id
        assert outcome.report.job_id == outcome.job.job_id
        solo = solve(outcome.job.request)
        np.testing.assert_array_equal(outcome.report.x, solo.x)
        assert outcome.report.stop is solo.stop
        assert outcome.report.itn == solo.itn
    assert len(batch_ids) == 1

    # telemetry attribution: one serve.batch span, one serve.job span
    # per member, every one tagged with the shared batch_id
    (batch_span,) = [s for s in tel.spans if s.name == "serve.batch"]
    assert batch_span.labels["members"] == "4"
    job_spans = [s for s in tel.spans if s.name == "serve.job"]
    assert sorted(s.labels["job_id"] for s in job_spans) == \
        ["j0", "j1", "j2", "j3"]
    assert all(s.labels["batch_id"] == batch_span.labels["batch_id"]
               for s in job_spans)


def test_max_fuse_caps_batch_width():
    tel = Telemetry()
    jobs = [_job(f"j{v}", variant=v) for v in range(6)]
    _, report = _run(jobs, max_fuse=3, tel=tel)
    assert len(report.completed) == 6
    assert tel.counter("serve.fusion.members").value == 6
    sizes = [o.report.placement.batch_size for o in report.completed]
    assert max(sizes) <= 3
    assert tel.counter("serve.fusion.batches").value >= 2


def test_max_fuse_one_never_batches():
    tel = Telemetry()
    jobs = [_job(f"j{v}", variant=v) for v in range(3)]
    _, report = _run(jobs, max_fuse=1, tel=tel)
    assert tel.counter("serve.fusion.batches").value == 0
    assert all(o.report.placement.batch_id is None
               for o in report.completed)


# ----------------------------------------------------------------------
# Negative coalescing: incompatible jobs must not fuse
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"iter_lim": 41},
    {"atol": 1e-6},
    {"conlim": 1e6},
])
def test_differing_engine_config_never_fuses(kwargs):
    tel = Telemetry()
    jobs = [_job("a", variant=1), _job("b", variant=2, **kwargs)]
    _, report = _run(jobs, tel=tel)
    assert len(report.completed) == 2
    assert tel.counter("serve.fusion.batches").value == 0
    for outcome in report.completed:
        assert outcome.report.placement.batch_id is None
        solo = solve(outcome.job.request)
        np.testing.assert_array_equal(outcome.report.x, solo.x)


def test_differing_matrix_never_fuses():
    tel = Telemetry()
    other = make_system(SMALL_DIMS, seed=99, noise_sigma=1e-10)
    jobs = [_job("a", variant=1), _job("b", system=other)]
    _, report = _run(jobs, tel=tel)
    assert tel.counter("serve.fusion.batches").value == 0
    assert all(o.report.placement.batch_id is None
               for o in report.completed)


def test_a_resuming_job_is_not_fused(tmp_path):
    """A fused batch starts every member cold, so fusing a request
    that carries ``resume_from`` would silently drop it."""
    ckpt = tmp_path / "state.npz"
    solve(SolveRequest(system=_variant(2), iter_lim=5,
                       checkpoint_every=5, checkpoint_path=ckpt))
    resuming = _job("b", variant=2, resume_from=ckpt)
    assert not resuming.fusible
    tel = Telemetry()
    _, report = _run([_job("a", variant=1), resuming], tel=tel)
    assert tel.counter("serve.fusion.batches").value == 0
    (resumed,) = [o.report for o in report.completed
                  if o.job.job_id == "b"]
    straight = solve(_job("c", variant=2).request)
    assert resumed.itn == straight.itn
    np.testing.assert_array_equal(resumed.x, straight.x)


def test_unfusible_jobs_pass_through_solo():
    tel = Telemetry()
    jobs = [_job("a", variant=1),
            _job("b", variant=2, checkpoint_every=10)]
    _, report = _run(jobs, tel=tel)
    assert tel.counter("serve.fusion.batches").value == 0
    assert len(report.completed) == 2


# ----------------------------------------------------------------------
# Satellite: cache interactions of fused batches
# ----------------------------------------------------------------------

def test_batch_members_are_cached_individually():
    cache = ResultCache(32)
    jobs = [_job(f"j{v}", variant=v) for v in range(3)]
    _, report = _run(jobs, cache=cache)
    assert len(report.completed) == 3
    assert cache.stats()["size"] == 3

    # every member individually retrievable by a later solo request
    tel = Telemetry()
    again = [_job(f"again{v}", variant=v) for v in range(3)]
    _, rerun = _run(again, max_fuse=1, cache=cache, tel=tel)
    assert all(o.report.placement.cache_hit
               for o in rerun.completed)


def test_cache_hits_leave_the_batch_before_it_solves():
    cache = ResultCache(32)
    # Prime the cache with variant 1 only.
    _run([_job("prime", variant=1)], max_fuse=1, cache=cache)

    tel = Telemetry()
    jobs = [_job(f"j{v}", variant=v) for v in range(3)]
    _, report = _run(jobs, cache=cache, tel=tel)
    by_id = {o.job.job_id: o for o in report.completed}
    assert by_id["j1"].report.placement.cache_hit
    assert not by_id["j0"].report.placement.cache_hit
    # the batch still formed with all three members...
    assert tel.counter("serve.fusion.members").value == 3
    # ...and the hit demuxed to the right answer
    solo = solve(by_id["j1"].job.request)
    np.testing.assert_array_equal(by_id["j1"].report.x, solo.x)


def test_exact_duplicates_inside_a_batch_share_one_solve():
    calls = []

    def counting_batch(requests):
        calls.append([r.job_id for r in requests])
        from repro.api import solve_batch

        return solve_batch(requests)

    cache = ResultCache(32)
    jobs = [_job("a", variant=1), _job("b", variant=1),
            _job("c", variant=2)]
    tel = Telemetry()
    _, report = _run(jobs, cache=cache, tel=tel,
                     batch_solve_fn=counting_batch)
    assert len(report.completed) == 3
    # two distinct representatives solved, the duplicate coalesced
    assert calls == [["a", "c"]]
    assert tel.counter("serve.coalesced").value == 1
    by_id = {o.job.job_id: o.report for o in report.completed}
    np.testing.assert_array_equal(by_id["a"].x, by_id["b"].x)
    assert by_id["b"].job_id == "b"


# ----------------------------------------------------------------------
# Failure isolation inside a batch
# ----------------------------------------------------------------------

def test_batch_solve_failure_falls_back_to_solo_members():
    def exploding_batch(requests):
        raise RuntimeError("fused sweep died")

    tel = Telemetry()
    jobs = [_job(f"j{v}", variant=v) for v in range(3)]
    _, report = _run(jobs, tel=tel, batch_solve_fn=exploding_batch)
    assert len(report.completed) == 3
    assert tel.counter("serve.fusion.fallback").value == 1
    for outcome in report.completed:
        solo = solve(outcome.job.request)
        np.testing.assert_array_equal(outcome.report.x, solo.x)


def test_degraded_member_is_retried_alone():
    def poisoned_batch(requests):
        from repro.api import solve_batch

        reports = solve_batch(requests)
        return [
            dataclasses.replace(r, stop=StopReason.ABORTED_FAULTS)
            if r.job_id == "bad" else r
            for r in reports
        ]

    tel = Telemetry()
    cache = ResultCache(32)
    jobs = [_job("good", variant=1), _job("bad", variant=2),
            _job("fine", variant=3)]
    _, report = _run(jobs, tel=tel, cache=cache,
                     batch_solve_fn=poisoned_batch)
    assert tel.counter("serve.fusion.member_retry").value == 1
    by_id = {o.job.job_id: o.report for o in report.completed}
    # the retried member recovered via the solo path
    assert by_id["bad"].stop is not StopReason.ABORTED_FAULTS
    solo = solve(_job("bad", variant=2).request)
    np.testing.assert_array_equal(by_id["bad"].x, solo.x)
    # siblings were untouched by the retry
    for jid, variant in (("good", 1), ("fine", 3)):
        np.testing.assert_array_equal(
            by_id[jid].x, solve(_job(jid, variant=variant).request).x)
    # all three results are cached (the retry succeeded)
    assert cache.stats()["size"] == 3


# ----------------------------------------------------------------------
# Load generation and scenario plumbing
# ----------------------------------------------------------------------

def test_loadgen_rhs_variants_share_the_fusion_key():
    spec = LoadSpec(n_jobs=8, distinct_systems=1, rhs_variants=4,
                    scale=1e-4, seed=5)
    jobs = LoadGenerator(spec).jobs()
    keys = {job.fusion_key() for job in jobs}
    assert len(keys) == 1  # one slot -> one matrix -> one fusion key
    # but more than one distinct rhs identity in the stream
    assert len({request_key(j.request) for j in jobs}) > 1


def test_loadgen_default_stream_unchanged_by_variant_knob():
    """rhs_variants=1 must not perturb the seeded RNG stream: the
    default spec still generates byte-identical workloads."""
    spec = LoadSpec(n_jobs=6, distinct_systems=2, scale=1e-4, seed=9)
    a = LoadGenerator(spec).jobs()
    b = LoadGenerator(LoadSpec(n_jobs=6, distinct_systems=2,
                               scale=1e-4, seed=9,
                               rhs_variants=1)).jobs()
    for ja, jb in zip(a, b):
        assert ja.job_id == jb.job_id
        assert ja.nominal_gb == jb.nominal_gb
        assert request_key(ja.request) == request_key(jb.request)


def test_loadgen_validates_rhs_variants():
    with pytest.raises(ValueError, match="rhs_variants"):
        LoadSpec(rhs_variants=0)


@settings(max_examples=10, deadline=None)
@given(max_fuse=st.integers(1, 16))
def test_scenario_parses_max_fuse(max_fuse):
    scenario = parse_scenario(
        {"placement": {"max_fuse": max_fuse}})
    assert scenario.max_fuse == max_fuse


def test_scheduler_rejects_bad_max_fuse():
    with pytest.raises(ValueError, match="max_fuse"):
        Scheduler(DevicePool(("A100",)), max_fuse=0)


def test_fused_stream_end_to_end_scenario():
    """A whole scenario with fusion on: everything completes, fused
    batches form, and every report matches its solo solve."""
    from repro.serve.scenario import build_scheduler

    tel = Telemetry()
    scenario = parse_scenario({
        "placement": {"devices": ["A100", "H100"], "max_fuse": 4},
        "scheduler": {"workers": 2, "cache_capacity": 64},
        "load": {"n_jobs": 10, "mix": {"10": 1.0},
                 "distinct_systems": 2, "rhs_variants": 3,
                 "scale": 1e-4, "seed": 3, "iter_lim": 30},
    })
    sched = build_scheduler(scenario, telemetry=tel)
    jobs = LoadGenerator(scenario.load).jobs()
    report = sched.run(jobs)
    assert len(report.completed) == 10
    assert tel.counter("serve.fusion.batches").value >= 1
    for outcome in report.completed:
        if outcome.report.placement.cache_hit:
            continue
        solo = solve(outcome.job.request)
        np.testing.assert_array_equal(outcome.report.x, solo.x)
