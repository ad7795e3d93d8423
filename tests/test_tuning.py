"""Kernel-geometry sweeps through the one sweeper (E12/E13).

Every cell is swept at the ``"10GB"`` size class, whose representative
shape is ``dims_from_gb(10.0)``.
"""

import pytest

from repro.frameworks.registry import port_by_key
from repro.gpu.platforms import A100, H100, MI250X, T4, V100
from repro.system.sizing import dims_from_gb
from repro.tuning.sweep import GeometrySweeper, SweepSpec, geometry_candidates


def _sweep(key, device, **grid):
    """The tuned config of one (port, device) cell at the 10 GB class."""
    return GeometrySweeper().sweep(
        SweepSpec(port_key=key, platform=device.name, size_class="10GB",
                  **grid))


def test_t4_optimum_is_32_threads():
    """SSV-B: 'the number of threads that give best performance is 32'
    on T4 (and V100)."""
    for device in (T4, V100):
        cfg = _sweep("CUDA" if device is T4 else "HIP", device)
        assert cfg.block_size == 32, device.name


def test_big_gpus_prefer_256():
    for device in (A100, H100):
        assert _sweep("HIP", device).block_size == 256, device.name


def test_tuning_gain_up_to_40_percent():
    """SSV-B: 'achieving up to 40% reduction in iteration time'."""
    gains = [_sweep("CUDA", d).gain for d in (T4, V100)]
    assert max(gains) == pytest.approx(0.40, abs=0.08)
    # Over every tunable port and platform, the largest gain lands
    # there too, on the geometry-sensitive T4/V100.
    matrix = {(key, d.name): _sweep(key, d).gain
              for key in ("CUDA", "HIP", "SYCL+ACPP")
              for d in (T4, V100, A100, H100, MI250X)
              if port_by_key(key).supports(d)}
    (_, best_device), best_gain = max(matrix.items(),
                                      key=lambda kv: kv[1])
    assert best_gain == pytest.approx(0.40, abs=0.08)
    assert best_device in ("T4", "V100")
    # And on the flat-geometry H100 the gain is small.
    h_gain = _sweep("HIP", H100).gain
    assert h_gain < 0.25  # mostly the atomic-region grid cap, not geometry


def test_different_platforms_need_different_tuning():
    """SSV-B: 'different platforms often require different tuning'."""
    best = {d.name: _sweep("HIP", d).block_size for d in (T4, H100, MI250X)}
    assert len(set(best.values())) >= 2


def test_pstl_cannot_be_tuned():
    with pytest.raises(ValueError, match="cannot be tuned"):
        _sweep("PSTL+ACPP", H100)


def test_sweep_contains_all_candidates():
    cfg = _sweep("CUDA", T4)
    assert cfg.model_evals == 5 * 5  # block sizes x grid caps
    # Each candidate swept alone (beside the always-present default):
    # the full sweep's winner is the fastest of them, and the default
    # is the (256, None) launch.
    singles = [_sweep("CUDA", T4, block_sizes=(tpb,), grid_caps=(cap,))
               for tpb, cap in geometry_candidates(
                   T4, dims_from_gb(10.0).n_obs)]
    assert cfg.tuned_iteration_s == min(s.tuned_iteration_s
                                        for s in singles)
    assert cfg.default_iteration_s == _sweep(
        "CUDA", T4, block_sizes=(256,), grid_caps=(None,)
    ).tuned_iteration_s
    assert 0 <= cfg.gain < 1


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
    # pair is ever timed twice under two keys.  At the 10 GB class a
    # 4096 x SM cap binds at 32 threads/block (1 398 102 blocks) but
    # not at 512 (87 382 blocks).
    grid_caps = (None, 2, 4096)
    cands10 = geometry_candidates(T4, dims_from_gb(10.0).n_obs,
                                  grid_caps=grid_caps)
    assert (32, 4096) in cands10 and (512, 4096) not in cands10
    cfg = _sweep("CUDA", T4, grid_caps=grid_caps)
    assert cfg.model_evals == len(cands10) < 5 * len(grid_caps)
