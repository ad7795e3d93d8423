"""Tests for the ASCII figure renderers."""

import pytest

from repro.portability.report import (
    bar_chart,
    render_fig3,
    render_fig4,
    render_fig5,
)
from repro.portability.study import run_study


@pytest.fixture(scope="module")
def noisy_study():
    return run_study(sizes=(10.0,), repetitions=3, jitter=0.02, seed=3)


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
