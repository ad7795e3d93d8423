"""Tests for the repro-gaia command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table IV" in out
    assert "-munsafe-fp-atomics" in out
    assert "GraceHopper" in out


def test_generate_and_solve_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "tiny.npz"
    assert main(["generate", "--size-gb", "0.001", "--seed", "3",
                 "--output", str(out_file)]) == 0
    assert out_file.exists()
    assert main(["solve", "--dataset", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "istop=" in out
    assert "standard error" in out


def test_solve_fresh_system(capsys):
    assert main(["solve", "--size-gb", "0.002"]) == 0
    assert "mean iteration time" in capsys.readouterr().out


def test_tune(capsys):
    assert main(["tune", "--port", "CUDA", "--device", "T4"]) == 0
    out = capsys.readouterr().out
    assert "32 threads/block" in out
    assert "reduction" in out


def test_study_reduced(capsys):
    assert main(["study", "--sizes", "10"]) == 0
    out = capsys.readouterr().out
    assert "performance portability P" in out
    assert "HIP" in out and "MI250X" in out


def test_validate(capsys):
    assert main(["validate", "--stars", "30", "--obs-per-star", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_scaling_subcommand(capsys):
    assert main(["scaling", "--mode", "weak", "--port", "CUDA",
                 "--device", "A100"]) == 0
    out = capsys.readouterr().out
    assert "weak scaling" in out and "256" in out
    assert main(["scaling", "--mode", "strong", "--port", "HIP",
                 "--device", "H100"]) == 0


def test_energy_subcommand(capsys):
    assert main(["energy", "--port", "HIP"]) == 0
    out = capsys.readouterr().out
    assert "J/iter" in out and "MI250X" in out


def test_divergence_subcommand(capsys):
    assert main(["divergence"]) == 0
    out = capsys.readouterr().out
    assert "navigation chart" in out
    assert "single-source" in out


def test_storage_subcommand(capsys):
    assert main(["storage", "--mission"]) == 0
    out = capsys.readouterr().out
    assert "custom" in out and "dense" in out


def test_study_export_options(tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    assert main(["study", "--sizes", "10", "--csv", str(csv_path),
                 "--json", str(json_path)]) == 0
    assert csv_path.exists() and json_path.exists()
    assert "iteration_time_s" in csv_path.read_text().splitlines()[0]


def test_telemetry_subcommand(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["telemetry", "--size", "tiny", "--iterations", "10",
                 "--export", "chrome", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "aprod1+aprod2 share" in text
    assert "## Telemetry summary" in text
    assert out.exists()


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["tune", "--port", "NOPE"],
    ["tune", "--port", "PSTL+ACPP"],  # fixed geometry: nothing to tune
    ["tune", "--device", "NOPE"],
    ["energy", "--port", "NOPE"],
    ["scaling", "--device", "NOPE"],
    ["simulate", "--framework", "NOPE"],
    ["telemetry", "--port", "NOPE"],
])
def test_unknown_port_or_device_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "Traceback" not in err


def test_tune_rejects_a_vendor_mismatch_in_one_line(capsys):
    assert main(["tune", "--port", "CUDA", "--device", "MI250X"]) == 2
    err = capsys.readouterr().err
    assert err == "repro-gaia tune: CUDA cannot target MI250X\n"
