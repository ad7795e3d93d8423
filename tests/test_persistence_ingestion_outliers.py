"""Tests for study persistence and the generator's skew option."""

import numpy as np
import pytest

from repro.portability import diff_studies, load_study, save_study
from repro.portability.study import run_study
from repro.system import SystemDims, make_system


# ----------------------------------------------------------------------
# Study persistence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def study():
    return run_study(sizes=(10.0,), jitter=0.01, repetitions=3, seed=4)


def test_save_load_roundtrip_is_exact(study, tmp_path):
    back = load_study(save_study(study, tmp_path / "study.json"))
    assert back.sizes == study.sizes
    assert back.port_keys == study.port_keys
    diff = diff_studies(study, back, time_rtol=1e-15, p_atol=1e-15)
    assert diff.clean, diff.summary()


def test_loaded_study_preserves_exclusions(study, tmp_path):
    back = load_study(save_study(study, tmp_path / "s.json"))
    run = back.runs[10.0]["CUDA"]["MI250X"]
    assert not run.supported
    assert "unsupported" in run.excluded_reason


def test_loaded_study_metrics_work(study, tmp_path):
    back = load_study(save_study(study, tmp_path / "s.json"))
    assert back.p_scores(10.0) == study.p_scores(10.0)
    assert back.best_port(10.0, "H100") == study.best_port(10.0, "H100")


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match="not a saved study"):
        load_study(path)


# ----------------------------------------------------------------------
# Generator options
# ----------------------------------------------------------------------
def test_powerlaw_distribution_is_skewed(small_dims):
    uni = make_system(small_dims, seed=5)
    pow_ = make_system(small_dims, seed=5, obs_distribution="powerlaw")
    c_uni = np.bincount(uni.star_ids, minlength=small_dims.n_stars)
    c_pow = np.bincount(pow_.star_ids, minlength=small_dims.n_stars)
    assert c_pow.max() > 2 * c_uni.max()
    assert c_pow.min() >= 1  # everyone still observed


def test_unknown_distribution_rejected(small_dims):
    with pytest.raises(ValueError, match="obs distribution"):
        make_system(small_dims, obs_distribution="gaussian")
