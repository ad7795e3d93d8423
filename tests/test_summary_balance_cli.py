"""Tests for the study summary, load-balance report and CLI simulate."""

import pytest

from repro.cli import main
from repro.dist.decomposition import load_balance_report, partition_by_rows
from repro.portability.study import platforms_for_size, run_study


def test_study_summary_one_pager():
    study = run_study(sizes=(10.0,), jitter=0.0, repetitions=1)
    text = study.summary()
    assert "most portable HIP" in text
    assert "MI250X=OMP+V" in text
    assert "P = 0 by definition" in text and "CUDA" in text


def test_platforms_for_size_agrees_with_study():
    study = run_study(jitter=0.0, repetitions=1)
    for size in (10.0, 30.0, 60.0):
        assert platforms_for_size(size) == study.platforms(size)


def test_load_balance_report(small_system):
    blocks = partition_by_rows(small_system, 4)
    text = load_balance_report(blocks)
    assert "imbalance" in text
    assert "+constraints" in text
    # A balanced uniform decomposition stays close to 1.0.
    ratio = float(text.rsplit(None, 1)[-1].rstrip("x"))
    assert 1.0 <= ratio < 1.5
    with pytest.raises(ValueError):
        load_balance_report([])


def test_skewed_distribution_shows_imbalance(small_dims):
    from repro.system.generator import make_system

    skewed = make_system(small_dims, seed=9,
                         obs_distribution="powerlaw")
    blocks = partition_by_rows(skewed, 4)
    text = load_balance_report(blocks)
    ratio = float(text.rsplit(None, 1)[-1].rstrip("x"))
    assert ratio >= 1.0


def test_cli_simulate(capsys):
    assert main(["simulate", "--framework", "HIP", "--device", "H100",
                 "--size-gb", "10"]) == 0
    out = capsys.readouterr().out
    assert "solvergaiaSim" in out and "modeled mean iteration" in out
    # Unsupported combination exits nonzero.
    assert main(["simulate", "--framework", "CUDA",
                 "--device", "MI250X"]) == 1
    assert "EXCLUDED" in capsys.readouterr().out


def test_cli_study_prints_summary(capsys):
    assert main(["study", "--sizes", "10"]) == 0
    out = capsys.readouterr().out
    assert "Portability study summary" in out
