"""Unit tests for the kernel-geometry autotuner (E12/E13)."""

import pytest

from repro.frameworks import port_by_key, tune_port
from repro.frameworks.tuning import geometry_candidates
from repro.gpu.platforms import A100, H100, MI250X, T4, V100
from repro.system.sizing import dims_from_gb


@pytest.fixture(scope="module")
def dims10():
    return dims_from_gb(10.0)


def test_t4_optimum_is_32_threads(dims10):
    """SSV-B: 'the number of threads that give best performance is 32'
    on T4 (and V100)."""
    for device in (T4, V100):
        result = tune_port(port_by_key("CUDA" if device is T4 else "HIP"),
                           device, dims10)
        assert result.best_block_size == 32, device.name


def test_big_gpus_prefer_256(dims10):
    for device in (A100, H100):
        result = tune_port(port_by_key("HIP"), device, dims10)
        assert result.best_block_size == 256, device.name


def test_tuning_gain_up_to_40_percent(dims10):
    """SSV-B: 'achieving up to 40% reduction in iteration time'."""
    gains = [tune_port(port_by_key("CUDA"), d, dims10).gain
             for d in (T4, V100)]
    assert max(gains) == pytest.approx(0.40, abs=0.08)
    # Over every tunable port and platform, the largest gain lands
    # there too, on the geometry-sensitive T4/V100.
    matrix = {(key, d.name): tune_port(port_by_key(key), d, dims10).gain
              for key in ("CUDA", "HIP", "SYCL+ACPP")
              for d in (T4, V100, A100, H100, MI250X)
              if port_by_key(key).supports(d)}
    (_, best_device), best_gain = max(matrix.items(),
                                      key=lambda kv: kv[1])
    assert best_gain == pytest.approx(0.40, abs=0.08)
    assert best_device in ("T4", "V100")
    # And on the flat-geometry H100 the gain is small.
    h_gain = tune_port(port_by_key("HIP"), H100, dims10).gain
    assert h_gain < 0.25  # mostly the atomic-region grid cap, not geometry


def test_different_platforms_need_different_tuning(dims10):
    """SSV-B: 'different platforms often require different tuning'."""
    best = {d.name: tune_port(port_by_key("HIP"), d, dims10).best_block_size
            for d in (T4, H100, MI250X)}
    assert len(set(best.values())) >= 2


def test_pstl_cannot_be_tuned(dims10):
    with pytest.raises(ValueError, match="cannot be tuned"):
        tune_port(port_by_key("PSTL+ACPP"), H100, dims10)


def test_sweep_contains_all_candidates(dims10):
    result = tune_port(port_by_key("CUDA"), T4, dims10)
    assert len(result.sweep) == 5 * 5  # block sizes x grid caps
    assert result.best_time <= min(result.sweep.values()) + 1e-15
    assert result.default_time == result.sweep[(256, None)]
    assert 0 <= result.gain < 1


def test_candidate_dedupe_drops_non_binding_caps():
    """A cap whose block bound covers the full grid aliases (tpb, None).

    Pinned on the 40-SM T4 at dims_from_gb(0.01): tpb=512 needs 88
    blocks, so caps 16/8/4 (>= 160 blocks allowed) never bind and
    collapse onto the uncapped entry; cap 2 (80 blocks) still binds.
    At tpb=32 the full grid is 1399 blocks and every cap survives.
    """
    dims = dims_from_gb(0.01)
    cands = geometry_candidates(T4, dims.n_obs)
    assert (512, None) in cands and (512, 2) in cands
    for cap in (4, 8, 16):
        assert (512, cap) not in cands
    for cap in (None, 2, 4, 8, 16):
        assert (32, cap) in cands
    assert len(cands) == 19  # 25 raw candidates, 6 aliases dropped
    assert len(set(cands)) == len(cands)
    # The sweep evaluates exactly the deduplicated grid: no candidate
    # pair is ever timed twice under two keys.
    result = tune_port(port_by_key("CUDA"), T4, dims)
    assert set(result.sweep) == set(cands)
