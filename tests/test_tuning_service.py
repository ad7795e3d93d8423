"""Tests for the online kernel-geometry autotuning service (E38).

Covers :mod:`repro.tuning` end to end: size-class bucketing
properties, sweep-spec content addressing, the disk-persisted
tuned-config cache (hit/miss/stale accounting, byte-stable entries,
LRU eviction), the tuning-aware placement cost model with its
generation-counter memo invalidation, and a tuning-enabled scenario
that fills the cache before it serves.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.platforms import device_by_name
from repro.obs.telemetry import Telemetry
from repro.serve.cost import PlacementCostModel
from repro.serve.scenario import parse_scenario, run_scenario
from repro.tuning.ablation import run_ablation
from repro.tuning.cache import TunedConfigCache
from repro.tuning.service import TuningService, tunable_ports_for
from repro.tuning.sizeclass import (
    SIZE_CLASSES,
    size_class_by_label,
    size_class_for,
)
from repro.tuning.study import run_tuning_study
from repro.tuning.sweep import GeometrySweeper, MODEL_VERSION, default_spec


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


@pytest.mark.parametrize("port_key, platform", [
    ("PSTL+ACPP", "H100"),  # fixed 256 threads/block
    ("OMP+LLVM", "T4"),     # compiler-default geometry
    ("OMP+V", "A100"),
])
def test_fixed_geometry_port_cannot_be_swept(port_key, platform):
    sweeper = GeometrySweeper()
    with pytest.raises(ValueError, match="cannot be tuned"):
        sweeper.sweep(default_spec(port_key, platform, "10GB"))
    assert sweeper.model_evals == 0


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
        service.tune(default_spec(key, "T4", "10GB"))
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
        service.tune(default_spec(key, "T4", "10GB"))
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
        service.tune(default_spec(key, "T4", "10GB"))
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
# scenario integration
# ---------------------------------------------------------------------

def test_tuning_scenario_counters_and_provenance():
    """A tuning-enabled scenario tunes its covering set before it
    serves, so every placement prices from the filled cache."""
    scenario = parse_scenario({
        "placement": {"devices": ["T4"], "per_gcd": False,
                      "tuning": {"enabled": True}},
        "scheduler": {"workers": 1, "cache_capacity": 0},
        "load": {"n_jobs": 2, "mix": {"10": 1.0},
                 "distinct_systems": 1, "scale": 1e-4,
                 "iter_lim": 10},
    })
    tel = Telemetry()
    report = run_scenario(scenario, telemetry=tel)
    cells = len(tunable_ports_for("T4"))
    assert tel.counter("serve.tuning.put").value == cells
    assert len(report.completed) == 2 and not report.failed
    assert all(p.tuned for p in report.placement_log)
    assert "tuned placement prices: 2/2" in report.summary()
