"""Direct tests for the text formatting layer."""

import pytest

from repro.portability.report import (
    format_efficiency_table,
    format_p_table,
    format_time_table,
)

TIMES = {
    "CUDA": {"T4": 1.0, "H100": 0.1},
    "HIP": {"T4": 1.05, "H100": 0.098},
    "PSTL+V": {"T4": 1.9, "H100": None},
}
PLATFORMS = ("T4", "H100")


def test_time_table_layout():
    text = format_time_table(TIMES, PLATFORMS, title="Fig. 4")
    lines = text.splitlines()
    assert lines[0] == "Fig. 4"
    assert "T4" in lines[1] and "H100" in lines[1]
    assert any("CUDA" in ln and "1.0000" in ln for ln in lines)
    # None renders as a dash, not as an exception.
    pstl = next(ln for ln in lines if ln.startswith("PSTL+V"))
    assert "-" in pstl


def test_efficiency_table_digits():
    eff = {"CUDA": {"T4": 1.0, "H100": 0.5},
           "HIP": {"T4": None, "H100": 0.987}}
    text = format_efficiency_table(eff, PLATFORMS)
    assert "0.987" in text
    assert "1.000" in text


def test_p_table_sorted_and_with_paper_column():
    p = {"HIP": 0.95, "CUDA": 0.0, "SYCL": 0.9}
    text = format_p_table(p, title="P", paper_values={"HIP": 0.94})
    lines = text.splitlines()
    order = [ln.split()[0] for ln in lines[3:]]  # title, header, rule
    assert order == ["HIP", "SYCL", "CUDA"]
    assert "0.940" in lines[3]  # paper column next to HIP

