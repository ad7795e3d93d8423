"""Tests for bootstrap P intervals and the ASCII figure renderers."""

import pytest

from repro.portability import (
    bar_chart,
    bootstrap_p,
    render_fig3,
    render_fig4,
    render_fig5,
)
from repro.portability.study import run_study


# ----------------------------------------------------------------------
# Bootstrap P intervals
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def noisy_study():
    return run_study(sizes=(10.0,), repetitions=3, jitter=0.02, seed=3)


def test_bootstrap_intervals_contain_point(noisy_study):
    ci = bootstrap_p(noisy_study, 10.0, n_resamples=200, seed=1)
    for port, interval in ci.items():
        assert interval.lo <= interval.point + 5e-3, port
        assert interval.hi >= interval.point - 5e-3, port
        assert 0 <= interval.lo <= interval.hi <= 1


def test_bootstrap_cuda_interval_is_degenerate_zero(noisy_study):
    ci = bootstrap_p(noisy_study, 10.0, n_resamples=100, seed=1)
    assert ci["CUDA"].point == 0.0
    assert ci["CUDA"].lo == ci["CUDA"].hi == 0.0


def test_bootstrap_separates_hip_from_sycl(noisy_study):
    """The published HIP-vs-SYCL gap at 10 GB survives the repetition
    noise."""
    ci = bootstrap_p(noisy_study, 10.0, n_resamples=300, seed=1)
    assert ci["HIP"].separated_from(ci["SYCL+ACPP"])
    assert not ci["HIP"].separated_from(ci["HIP"])


def test_bootstrap_reproducible(noisy_study):
    a = bootstrap_p(noisy_study, 10.0, n_resamples=50, seed=7)
    b = bootstrap_p(noisy_study, 10.0, n_resamples=50, seed=7)
    assert a["HIP"].lo == b["HIP"].lo and a["HIP"].hi == b["HIP"].hi


def test_bootstrap_validation(noisy_study):
    with pytest.raises(ValueError):
        bootstrap_p(noisy_study, 10.0, level=1.5)
    with pytest.raises(ValueError):
        bootstrap_p(noisy_study, 10.0, n_resamples=2)


# ----------------------------------------------------------------------
# ASCII renderers
# ----------------------------------------------------------------------
def test_bar_chart_renders():
    text = bar_chart({"a": 1.0, "b": 0.5}, title="t", vmax=1.0, width=10)
    lines = text.splitlines()
    assert lines[0] == "t"
    assert lines[1].count("#") == 10
    assert lines[2].count("#") == 5
    with pytest.raises(ValueError):
        bar_chart({})
    with pytest.raises(ValueError):
        bar_chart({"a": 1.0}, vmax=0.0)


def test_figure_renderers(noisy_study):
    f3 = render_fig3(noisy_study, 10.0)
    assert "P per port" in f3 and "HIP" in f3
    f4 = render_fig4(noisy_study, 10.0)
    assert "[T4]" in f4 and "[MI250X]" in f4
    f5 = render_fig5(noisy_study, 10.0)
    assert "application efficiency" in f5
    # CUDA appears in NVIDIA groups but not the AMD one.
    mi_block = f5.split("[MI250X]")[1]
    assert "CUDA" not in mi_block
