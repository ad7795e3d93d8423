"""The paper-shape calibration suite (DESIGN.md SS6).

These tests pin the modeled study to the published results of SSV-B:
headline P values, per-size platform sets, per-platform winners and
the qualitative orderings.  Absolute seconds are not asserted -- only
the relations the paper reports.
"""

import pytest

from repro.gpu.device import Vendor
from repro.portability.cascade import efficiency_cascade
from repro.portability.study import run_study


@pytest.fixture(scope="module")
def study():
    return run_study(jitter=0.0, repetitions=1)


# ----------------------------------------------------------------------
# Platform sets per size (SSV-B)
# ----------------------------------------------------------------------
def test_platform_sets(study):
    assert study.platforms(10.0) == ("T4", "V100", "A100", "H100",
                                     "MI250X")
    assert study.platforms(30.0) == ("V100", "A100", "H100", "MI250X")
    assert study.platforms(60.0) == ("H100", "MI250X")


# ----------------------------------------------------------------------
# Headline P values
# ----------------------------------------------------------------------
def test_cuda_p_is_zero_on_full_set(study):
    for size in (10.0, 30.0, 60.0):
        assert study.p_scores(size)["CUDA"] == 0.0


def test_p_at_10gb(study):
    p = study.p_scores(10.0)
    assert p["HIP"] == pytest.approx(0.98, abs=0.03)          # paper 0.98
    assert p["SYCL+ACPP"] == pytest.approx(0.92, abs=0.03)    # paper 0.92
    assert p["OMP+LLVM"] == pytest.approx(0.25, abs=0.10)     # paper 0.25
    # HIP best, SYCL+ACPP second among full-set ports.
    ranked = sorted(p, key=p.get, reverse=True)
    assert ranked[:2] == ["HIP", "SYCL+ACPP"]


def test_p_at_30gb_sycl_overtakes_hip(study):
    p = study.p_scores(30.0)
    assert p["SYCL+ACPP"] == pytest.approx(0.93, abs=0.04)    # paper 0.93
    assert p["HIP"] == pytest.approx(0.88, abs=0.04)          # paper 0.88
    assert p["SYCL+ACPP"] > p["HIP"]


def test_average_p_headlines(study):
    """Abstract: HIP 0.94 average, SYCL+ACPP 0.93, CUDA 0.97 on
    NVIDIA, PSTL+vendor 0.62."""
    assert study.average_p("HIP") == pytest.approx(0.94, abs=0.04)
    assert study.average_p("SYCL+ACPP") == pytest.approx(0.93, abs=0.04)
    assert study.average_p("CUDA", vendor=Vendor.NVIDIA) == pytest.approx(
        0.97, abs=0.03
    )
    assert study.average_p("PSTL+V") == pytest.approx(0.62, abs=0.10)
    # Averaged over the sizes, HIP is the most portable, SYCL+ACPP
    # second.
    avg = {port: study.average_p(port) for port in study.port_keys}
    assert sorted(avg, key=avg.get, reverse=True)[:2] == ["HIP",
                                                         "SYCL+ACPP"]


def test_cuda_nvidia_only_per_size(study):
    """SSV-B: 'CUDA would achieve a P score of 0.97 and 0.96 for the
    10 GB and 30 GB problem sizes'."""
    p10 = study.p_scores(10.0, vendor=Vendor.NVIDIA)["CUDA"]
    p30 = study.p_scores(30.0, vendor=Vendor.NVIDIA)["CUDA"]
    assert p10 == pytest.approx(0.97, abs=0.03)
    assert p30 == pytest.approx(0.96, abs=0.03)


def test_no_meaning_for_60gb_nvidia_only(study):
    """Only one NVIDIA GPU holds 60 GB: average_p must skip that size."""
    plats = [p for p in study.platforms(60.0) if p != "MI250X"]
    assert plats == ["H100"]
    # average over NVIDIA therefore uses only 10/30 GB.
    avg = study.average_p("CUDA", vendor=Vendor.NVIDIA)
    p10 = study.p_scores(10.0, vendor=Vendor.NVIDIA)["CUDA"]
    p30 = study.p_scores(30.0, vendor=Vendor.NVIDIA)["CUDA"]
    assert avg == pytest.approx((p10 + p30) / 2)


# ----------------------------------------------------------------------
# Winners per platform (SSV-B)
# ----------------------------------------------------------------------
def test_fastest_ports_match_paper(study):
    """'the fastest time is typically given by CUDA (mostly on T4 and
    A100) or HIP (mostly on V100 and H100)'; OMP+V best on MI250X at
    every size."""
    assert study.best_port(10.0, "T4") == "CUDA"
    assert study.best_port(10.0, "A100") == "CUDA"
    assert study.best_port(30.0, "A100") == "CUDA"
    assert study.best_port(10.0, "H100") == "HIP"
    assert study.best_port(30.0, "H100") == "HIP"
    assert study.best_port(30.0, "V100") == "HIP"
    for size in (10.0, 30.0, 60.0):
        assert study.best_port(size, "MI250X") == "OMP+V"
        # Fig. 4: on every NVIDIA platform the winner is CUDA or HIP.
        for platform in study.platforms(size):
            if platform != "MI250X":
                assert study.best_port(size, platform) in ("CUDA", "HIP")


def test_newer_nvidia_platforms_are_faster_for_every_port(study):
    """Fig. 4: iteration time falls T4 -> V100 -> A100 -> H100 for
    every port that runs there, at every size."""
    for size in (10.0, 30.0, 60.0):
        order = [p for p in ("T4", "V100", "A100", "H100")
                 if p in study.platforms(size)]
        for port, row in study.times(size).items():
            series = [row[p] for p in order if row.get(p) is not None]
            assert series == sorted(series, reverse=True), (size, port)


def test_dpcpp_best_platform_is_t4_at_10gb(study):
    """'Surprisingly, T4 is the best platform for SYCL+DPCPP.'"""
    eff = study.efficiencies(10.0)["SYCL+DPCPP"]
    c = efficiency_cascade("SYCL+DPCPP", eff, study.platforms(10.0))
    assert c.best_platform == "T4"


def test_omp_vendor_best_platform_is_mi250x(study):
    """'MI250X is, instead, the best platform for OMP+V.'"""
    eff = study.efficiencies(10.0)["OMP+V"]
    c = efficiency_cascade("OMP+V", eff, study.platforms(10.0))
    assert c.best_platform == "MI250X"


def test_v100_never_the_best_platform_at_10gb(study):
    """'Only V100 has never been the best platform for any of the
    frameworks' (Fig. 3a)."""
    for port in study.port_keys:
        eff = study.efficiencies(10.0)[port]
        supported = {k: v for k, v in eff.items() if v is not None}
        if not supported:
            continue
        best = max(supported, key=supported.get)
        assert best != "V100", port


# ----------------------------------------------------------------------
# Per-platform efficiencies quoted in the text
# ----------------------------------------------------------------------
def test_omp_llvm_drop_h100_to_v100_at_30gb(study):
    """'OMP+LLVM ... goes from 0.85 on H100 to 0.53 on V100' (30 GB)."""
    eff = study.efficiencies(30.0)["OMP+LLVM"]
    assert eff["H100"] == pytest.approx(0.85, abs=0.08)
    assert eff["V100"] == pytest.approx(0.53, abs=0.08)


def test_omp_vs_cuda_ratios_on_h100(study):
    """'on H100, achieved 91% and 84% of the CUDA performance, when
    compiled with nvc++ and standard clang++'."""
    times = study.times(10.0)
    ratio_v = times["CUDA"]["H100"] / times["OMP+V"]["H100"]
    ratio_llvm = times["CUDA"]["H100"] / times["OMP+LLVM"]["H100"]
    assert ratio_v == pytest.approx(0.91, abs=0.06)
    assert ratio_llvm == pytest.approx(0.84, abs=0.06)


def test_pstl_efficiency_increases_t4_to_h100(study):
    """'The C++ PSTL efficiency increases from T4 to H100, reaching
    ~0.9 on H100'."""
    eff = study.efficiencies(10.0)["PSTL+ACPP"]
    assert eff["T4"] < eff["A100"]
    assert eff["T4"] < eff["H100"]
    assert eff["H100"] == pytest.approx(0.85, abs=0.08)
    # vs CUDA it is ~0.9 (the text's normalization).
    times = study.times(10.0)
    assert times["CUDA"]["H100"] / times["PSTL+ACPP"]["H100"] == (
        pytest.approx(0.89, abs=0.06)
    )


def test_pstl_on_mi250x_in_paper_band(study):
    """'C++ PSTL code achieved an application efficiency of 0.45-0.6'
    on MI250X with both compilers."""
    for size in (10.0, 30.0):
        eff = study.efficiencies(size)
        for port in ("PSTL+ACPP", "PSTL+V"):
            assert 0.40 <= eff[port]["MI250X"] <= 0.62, (size, port)


def test_pstl_60gb_h100_nvcpp_slightly_better(study):
    """'nvc++ performs slightly better than ACPP on H100 for the 60 GB
    problem, reaching 79%'."""
    eff = study.efficiencies(60.0)
    assert eff["PSTL+V"]["H100"] == pytest.approx(0.79, abs=0.06)
    assert eff["PSTL+V"]["H100"] > eff["PSTL+ACPP"]["H100"]


def test_sycl_acpp_uniformly_close_to_best(study):
    """SYCL+ACPP 'achieves similar application efficiencies across all
    the tested hardware': never the best anywhere, never far from it."""
    for size in (10.0, 30.0, 60.0):
        acpp = [v for v in study.efficiencies(size)["SYCL+ACPP"].values()
                if v is not None]
        assert max(acpp) < 1.0, size
        assert min(acpp) > 0.7, size


def test_self_normalization_peaks_at_one(study):
    """The artifact's per-port normalization: every supported port
    scores exactly 1.0 on its own best platform."""
    for port, row in study.efficiencies(10.0,
                                        normalization="self").items():
        values = [v for v in row.values() if v is not None]
        if values:
            assert max(values) == pytest.approx(1.0), port


def test_cas_loop_cliff_on_mi250x(study):
    """SSV-B: DPC++-compiled SYCL and base-clang OpenMP collapse on
    MI250X (CAS-loop atomics), while the -munsafe-fp-atomics ports
    stay close to the best."""
    eff = study.efficiencies(10.0)
    for port in ("SYCL+DPCPP", "OMP+LLVM"):
        assert eff[port]["MI250X"] < 0.15, port
    for port in ("HIP", "SYCL+ACPP", "OMP+V"):
        assert eff[port]["MI250X"] > 0.9, port


def test_omp_vendor_p_range(study):
    """SSV-B: OMP+V P 'between 0.95 and 0.45 across the three problem
    sizes' -- we assert the containing band."""
    values = [study.p_scores(s)["OMP+V"] for s in (10.0, 30.0, 60.0)]
    assert 0.45 <= min(values)
    assert max(values) <= 0.97
    assert max(values) >= 0.80  # the 60 GB upper end


def test_h100_is_fastest_platform(study):
    """'the best efficiency is obtained on the most recent NVIDIA
    hardware' -- H100 posts the lowest absolute times."""
    times = study.times(10.0)
    for port, row in times.items():
        h = row.get("H100")
        if h is None:
            continue
        for platform, t in row.items():
            if t is not None:
                assert h <= t + 1e-12, (port, platform)
