"""Tests for the online kernel-geometry autotuning service (E38).

Covers :mod:`repro.tuning` end to end: size-class bucketing
properties, sweep-spec content addressing, the disk-persisted
tuned-config cache (hit/miss/stale accounting, byte-stable entries,
LRU eviction), background sweep jobs riding the serve scheduler
below interactive traffic, and the tuning-aware placement cost model
with its generation-counter memo invalidation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SolveReport, SolveRequest
from repro.core.engine import StopReason
from repro.gpu.platforms import device_by_name
from repro.obs.telemetry import Telemetry
from repro.serve import DevicePool, Scheduler, ServeJob
from repro.serve.cost import PlacementCostModel
from repro.serve.scenario import parse_scenario, run_scenario
from repro.tuning import (
    GeometrySweeper,
    MODEL_VERSION,
    SIZE_CLASSES,
    TunedConfigCache,
    TuningService,
    default_spec,
    run_ablation,
    run_tuning_study,
    size_class_by_label,
    size_class_for,
    tunable_ports_for,
)

import numpy as np


def _stub_solve(request: SolveRequest) -> SolveReport:
    return SolveReport(
        x=np.zeros(1), stop=StopReason.ATOL_BTOL, itn=1, r2norm=0.0,
        ranks=request.ranks, m=1, n=1,
    )


# ---------------------------------------------------------------------
# size-class bucketing
# ---------------------------------------------------------------------

_LABELS = [sc.label for sc in SIZE_CLASSES]


@settings(max_examples=200, deadline=None)
@given(gb=st.floats(min_value=1e-9, max_value=1e4,
                    allow_nan=False, allow_infinity=False))
def test_bucketing_total(gb):
    """Every positive finite size lands in exactly one class."""
    sc = size_class_for(gb)
    assert sc in SIZE_CLASSES
    assert sc.lo_gb <= gb < sc.hi_gb
    assert sum(1 for c in SIZE_CLASSES
               if c.lo_gb <= gb < c.hi_gb) == 1


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=1e-9, max_value=1e4,
                   allow_nan=False, allow_infinity=False),
       b=st.floats(min_value=1e-9, max_value=1e4,
                   allow_nan=False, allow_infinity=False))
def test_bucketing_monotone(a, b):
    """A bigger problem never maps to a smaller class."""
    lo, hi = sorted((a, b))
    assert (_LABELS.index(size_class_for(lo).label)
            <= _LABELS.index(size_class_for(hi).label))


@settings(max_examples=100, deadline=None)
@given(gb=st.floats(min_value=1e-9, max_value=1e4,
                    allow_nan=False, allow_infinity=False))
def test_bucketing_stable(gb):
    """Bucketing is idempotent through the representative size."""
    sc = size_class_for(gb)
    assert size_class_for(sc.representative_gb) is sc
    assert size_class_by_label(sc.label) is sc


def test_bucketing_boundaries_and_rejects():
    assert size_class_for(10.0).label == "10GB"
    # Boundaries are lo-inclusive / hi-exclusive.
    assert size_class_for(19.999).label == "10GB"
    assert size_class_for(20.0).label == "30GB"
    assert size_class_for(44.999).label == "30GB"
    assert size_class_for(45.0).label == "60GB"
    assert size_class_for(1e4).label == "60GB"  # open-ended top class
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            size_class_for(bad)
    with pytest.raises(KeyError):
        size_class_by_label("90GB")


# ---------------------------------------------------------------------
# sweep specs and the sweeper
# ---------------------------------------------------------------------

def test_spec_digest_is_content_addressed():
    spec = default_spec("CUDA", "T4", "10GB")
    again = default_spec("CUDA", "T4", "10GB")
    assert spec.digest() == again.digest()
    assert default_spec("HIP", "T4", "10GB").digest() != spec.digest()
    bumped = dataclasses.replace(spec,
                                 model_version=MODEL_VERSION + 1)
    assert bumped.digest() != spec.digest()
    # Canonical form: deterministic key order, no whitespace.
    assert spec.canonical_json() == again.canonical_json()
    assert ": " not in spec.canonical_json()


def test_sweeper_counts_model_evals():
    tel = Telemetry()
    sweeper = GeometrySweeper(telemetry=tel)
    cfg = sweeper.sweep(default_spec("CUDA", "T4", "10GB"))
    assert cfg.model_evals > 0
    assert sweeper.model_evals == cfg.model_evals
    assert (tel.counter("tuning.model_evals").value
            == sweeper.model_evals)
    assert 0 < cfg.tuned_iteration_s <= cfg.default_iteration_s
    assert cfg.ratio == pytest.approx(
        cfg.tuned_iteration_s / cfg.default_iteration_s)


def test_fixed_geometry_port_cannot_be_swept():
    sweeper = GeometrySweeper()
    with pytest.raises(ValueError, match="cannot be tuned"):
        sweeper.sweep(default_spec("PSTL+ACPP", "H100", "10GB"))


def test_tunable_ports_exclude_fixed_and_compiler_default():
    ports = tunable_ports_for("H100")
    assert "CUDA" in ports and "HIP" in ports
    assert "OMP+V" not in ports and "PSTL+ACPP" not in ports


# ---------------------------------------------------------------------
# tuned-config cache
# ---------------------------------------------------------------------

def test_second_tune_is_a_pure_cache_hit(tmp_path):
    """Repeat sweeps cost zero model evals and replay byte-for-byte."""
    spec = default_spec("CUDA", "T4", "10GB")
    first = TuningService(cache=TunedConfigCache(tmp_path))
    cfg = first.tune(spec)
    evals = first.sweeper.model_evals
    assert evals > 0
    assert first.tune(spec) == cfg           # in-memory hit
    assert first.sweeper.model_evals == evals

    # A fresh service over the same directory: disk hit, still free.
    second = TuningService(cache=TunedConfigCache(tmp_path))
    replayed = second.tune(spec)
    assert second.sweeper.model_evals == 0
    assert second.cache.hits == 1 and second.cache.misses == 0
    assert replayed == cfg
    entry = tmp_path / f"{spec.digest()}.json"
    assert replayed.to_json().encode() == entry.read_bytes()


def test_model_version_bump_marks_cell_stale(tmp_path):
    cache = TunedConfigCache(tmp_path)
    service = TuningService(cache=cache)
    spec = default_spec("CUDA", "T4", "10GB")
    service.tune(spec)
    bumped = dataclasses.replace(spec,
                                 model_version=MODEL_VERSION + 1)
    assert cache.get(bumped) is None
    # misses == 2: the initial tune's own lookup plus this stale one.
    assert cache.stale == 1 and cache.misses == 2
    # The orphaned entry stays on disk under its own digest.
    assert (tmp_path / f"{spec.digest()}.json").exists()


def test_a_pre_change_entry_is_a_miss_not_a_crash(tmp_path):
    """An entry in the format from before the host kernel set was one
    field (``host_gather`` / ``host_scatter`` / ``host_astro_scatter``),
    at its spec's own digest: the index and ``get`` both skip it, and
    the service re-sweeps over it."""
    spec = default_spec("CUDA", "T4", "10GB")
    doc = json.loads(GeometrySweeper().sweep(spec).to_json())
    del doc["host_kernels"]
    doc.update(host_gather="vectorized", host_scatter="bincount",
               host_astro_scatter="bincount")
    entry = tmp_path / f"{spec.digest()}.json"
    entry.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    cache = TunedConfigCache(tmp_path)
    assert len(cache) == 0
    assert cache.get(spec) is None
    assert cache.misses == 1 and cache.hits == 0
    cfg = TuningService(cache=cache).tune(spec)
    assert cfg.host_kernels in ("compiled", "blocks")
    assert entry.read_bytes() == cfg.to_json().encode()


def test_cache_lru_eviction():
    tel = Telemetry()
    cache = TunedConfigCache(None, capacity=2, telemetry=tel)
    sweeper = GeometrySweeper()
    specs = [default_spec("CUDA", platform, "10GB")
             for platform in ("T4", "V100", "A100")]
    for spec in specs:
        cache.put(sweeper.sweep(spec))
    assert len(cache) == 2
    assert specs[0] not in cache and specs[2] in cache
    assert tel.counter("serve.tuning.evictions").value == 1


# ---------------------------------------------------------------------
# tuning-aware placement pricing
# ---------------------------------------------------------------------

def test_tuned_pricing_discount_and_provenance():
    tel = Telemetry()
    cache = TunedConfigCache(None, telemetry=tel)
    service = TuningService(cache=cache, telemetry=tel)
    model = PlacementCostModel(tuned_cache=cache)
    device = device_by_name("T4")

    cold = model.estimate(10.0, device)
    assert cold is not None and not cold.tuned
    assert tel.counter("serve.tuning.misses").value > 0

    for key in tunable_ports_for("T4"):
        service.tune_cell(key, "T4", 10.0)
    warm = model.estimate(10.0, device)
    assert warm.tuned
    assert warm.seconds < cold.seconds
    assert tel.counter("serve.tuning.hits").value > 0


def test_memo_invalidated_by_cache_generation():
    """Regression: a new tuned entry must reprice the memoized cell.

    The memo is keyed by the cache's generation counter -- a stale
    estimate must never outlive a newer tuned entry for its cell.
    """
    cache = TunedConfigCache(None)
    service = TuningService(cache=cache)
    model = PlacementCostModel(tuned_cache=cache)
    device = device_by_name("T4")

    cold = model.estimate(10.0, device)
    # Memoized: same object comes back while the cache is unchanged.
    assert model.estimate(10.0, device) is cold

    for key in tunable_ports_for("T4"):
        service.tune_cell(key, "T4", 10.0)
    warm = model.estimate(10.0, device)
    assert warm is not cold and warm.tuned
    assert warm.seconds < cold.seconds
    # Stable again once the generation stops moving.
    assert model.estimate(10.0, device) is warm


def test_legacy_pricing_unchanged_without_cache():
    """tuned_cache=None is the exact pre-tuning cost model."""
    model = PlacementCostModel()
    est = model.estimate(10.0, device_by_name("T4"))
    assert est is not None and not est.tuned
    # The legacy model prices with tuned geometry (the repo's default
    # modeling assumption), so warming a tuning-aware model converges
    # to the same figure for a fully tuned cell -- up to the small
    # difference between the sweep's (256, None) reference launch and
    # the out-of-the-box model default it discounts from.
    cache = TunedConfigCache(None)
    service = TuningService(cache=cache)
    for key in tunable_ports_for("T4"):
        service.tune_cell(key, "T4", 10.0)
    aware = PlacementCostModel(tuned_cache=cache)
    warm = aware.estimate(10.0, device_by_name("T4"))
    assert warm.seconds == pytest.approx(est.seconds, rel=1e-3)


def test_tuned_placement_beats_nominal_prices():
    """E38's placement A/B: planning one mixed job stream with tuned
    prices strictly improves modeled makespan and jobs/s over planning
    it with nominal prices, both scored under the tuned truth."""
    result = run_ablation(n_jobs=24)
    assert result.makespan_improvement > 0
    assert result.throughput_improvement > 0


def test_tuning_raises_the_p_of_a_tunable_port():
    """E38's portability view at 10 GB: a single cell clears a 20 %
    iteration-time reduction, and at least one port's P strictly rises
    tuned vs out of the box (ports without geometry control may lose
    P: the per-platform best they are normalised against speeds up)."""
    doc = run_tuning_study(sizes=(10.0,)).as_dict()
    assert doc["max_cell_gain"]["gain"] >= 0.20
    assert max(doc["per_size"]["10GB"]["p_delta"].values()) > 0


# ---------------------------------------------------------------------
# background sweeps through the scheduler
# ---------------------------------------------------------------------

def test_interactive_never_queued_behind_sweeps(small_system):
    """Sweeps submitted *first* still dispatch after interactive."""
    service = TuningService()
    specs = service.covering_specs(("T4",), (10.0,))[:3]
    sweeps = service.background_jobs(specs)
    sched = Scheduler(DevicePool(("T4",)), workers=1,
                      solve_fn=_stub_solve)
    for job in sweeps:
        sched.submit(job)
    interactive = ServeJob(
        request=SolveRequest(system=small_system, iter_lim=5,
                             job_id="interactive"),
        nominal_gb=10.0)
    sched.submit(interactive)
    report = sched.run()

    order = [p.job_id for p in report.placement_log]
    assert order[0] == "interactive"
    assert len(report.background) == len(sweeps)
    for outcome in report.background:
        assert outcome.error is None
        assert outcome.result is not None
        assert outcome.result.model_evals > 0
    # The service's cache now covers every submitted cell.
    assert all(spec in service.cache for spec in specs)


def test_drain_completes_inflight_sweeps(small_system):
    """Graceful shutdown waits for a sweep already on a lane."""
    started, gate = threading.Event(), threading.Event()
    service = TuningService()
    spec = default_spec("CUDA", "T4", "10GB")

    def slow_sweep():
        started.set()
        assert gate.wait(10.0)
        return service.tune(spec)

    job = ServeJob(
        request=SolveRequest(system=small_system, iter_lim=1,
                             job_id="slow-sweep"),
        nominal_gb=0.001, priority=100, work_fn=slow_sweep)
    sched = Scheduler(DevicePool(("T4",)), workers=1,
                      solve_fn=_stub_solve)
    sched.submit(job)
    sched.start()
    assert started.wait(10.0)

    reports: list = []
    drainer = threading.Thread(
        target=lambda: reports.append(sched.drain()))
    drainer.start()
    gate.set()
    drainer.join(30.0)
    assert not drainer.is_alive()
    (report,) = reports
    (outcome,) = report.background
    assert outcome.error is None
    assert outcome.result.spec == spec
    assert not report.stuck_workers


def test_failed_sweep_is_contained(small_system):
    """A raising work_fn becomes a failed outcome, not a crash."""

    def boom():
        raise RuntimeError("sweep exploded")

    job = ServeJob(
        request=SolveRequest(system=small_system, iter_lim=1,
                             job_id="bad-sweep"),
        nominal_gb=0.001, priority=100, work_fn=boom)
    sched = Scheduler(DevicePool(("T4",)), workers=1,
                      solve_fn=_stub_solve)
    sched.submit(job)
    report = sched.run()
    (outcome,) = report.background
    assert outcome.error is not None
    assert report.failed == [outcome]


def test_background_jobs_respect_budget_and_priority():
    service = TuningService()
    specs = service.covering_specs(("T4", "V100"), (10.0, 30.0))
    jobs = service.background_jobs(specs, budget=3)
    assert len(jobs) == 3
    for job in jobs:
        assert job.is_background and not job.fusible
        assert job.priority == service.priority > 0
    with pytest.raises(ValueError, match="priority"):
        TuningService(priority=0)


# ---------------------------------------------------------------------
# scenario integration
# ---------------------------------------------------------------------

def test_tuning_scenario_counters_and_provenance():
    scenario = parse_scenario({
        "placement": {"devices": ["T4"], "per_gcd": False,
                      "tuning": {"enabled": True, "budget_jobs": 2}},
        "scheduler": {"workers": 1, "cache_capacity": 0},
        "load": {"n_jobs": 2, "mix": {"10": 1.0},
                 "distinct_systems": 1, "scale": 1e-4,
                 "iter_lim": 10},
    })
    tel = Telemetry()
    report = run_scenario(scenario, telemetry=tel)
    assert len(report.background) == 2
    assert tel.counter("serve.background_jobs").value == 2
    assert (tel.counter("serve.tuning.background_submitted").value
            == 2)
    assert tel.counter("serve.tuning.put").value == 2
    assert "background tuning: 2/2" in report.summary()
