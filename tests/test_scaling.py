"""Tests for the multi-GPU scaling model."""

import pytest

from repro.frameworks import (
    ClusterSpec,
    port_by_key,
    strong_scaling,
    weak_scaling,
)
from repro.gpu.platforms import A100, H100


@pytest.fixture(scope="module")
def weak_curve():
    return weak_scaling(port_by_key("CUDA"), A100, per_gpu_gb=10.0)


def test_weak_scaling_efficiency_band(weak_curve):
    """The companion study's regime: high weak efficiency to 256 GPUs
    with a gentle monotone decay."""
    eff = weak_curve.efficiency()
    assert eff[1] == pytest.approx(1.0)
    values = [eff[n] for n in sorted(eff)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert 0.90 <= eff[256] < 1.0
    # PSTL hides the same allreduce behind more compute: a nearly equal
    # normalized efficiency, a slower iteration at every GPU count.
    pstl = weak_scaling(port_by_key("PSTL+V"), A100, per_gpu_gb=10.0)
    assert pstl.efficiency()[256] > 0.85
    assert abs(pstl.efficiency()[256] - eff[256]) < 0.05
    for pc, pp in zip(weak_curve.points, pstl.points):
        assert pp.iteration_time > pc.iteration_time


def test_weak_scaling_comm_grows_with_ranks(weak_curve):
    comms = [p.comm_time for p in weak_curve.points]
    assert comms[0] == 0.0
    assert all(b >= a for a, b in zip(comms, comms[1:]))


def test_strong_scaling_decays_faster_than_weak(weak_curve):
    strong = strong_scaling(port_by_key("HIP"), H100, total_gb=60.0,
                            gpu_counts=(1, 2, 4, 8, 16))
    s_eff = strong.efficiency()
    w_eff = weak_curve.efficiency()
    assert s_eff[16] < w_eff[16]
    # Iteration time still strictly decreases when splitting the work.
    times = [p.iteration_time for p in strong.points]
    assert all(b < a for a, b in zip(times, times[1:]))
    # Still compute-dominated at 16 GPUs.
    assert s_eff[16] > 0.85
    assert times[-1] < times[0] / 10


def test_intra_node_faster_than_inter_node():
    cluster = ClusterSpec(gpus_per_node=4, intra_node_gbs=100,
                          inter_node_gbs=20, link_latency_us=5)
    nbytes = 50 * 2**20
    t4 = cluster.allreduce_time(nbytes, 4)   # stays in the node
    t8 = cluster.allreduce_time(nbytes, 8)   # crosses nodes
    assert t8 > t4 > 0
    assert cluster.allreduce_time(nbytes, 1) == 0.0


def test_allreduce_validation():
    cluster = ClusterSpec()
    with pytest.raises(ValueError):
        cluster.allreduce_time(-1, 2)
    with pytest.raises(ValueError):
        cluster.allreduce_time(10, 0)
    with pytest.raises(ValueError):
        ClusterSpec(gpus_per_node=0)
    with pytest.raises(ValueError):
        ClusterSpec(inter_node_gbs=0.0)


def test_efficiency_requires_single_gpu_baseline():
    curve = weak_scaling(port_by_key("CUDA"), A100,
                         gpu_counts=(2, 4))
    with pytest.raises(ValueError, match="one GPU"):
        curve.efficiency()


def test_curve_metadata(weak_curve):
    assert weak_curve.port_key == "CUDA"
    assert weak_curve.device_name == "A100"
    assert weak_curve.mode == "weak"
    assert [p.n_gpus for p in weak_curve.points][:3] == [1, 2, 4]
