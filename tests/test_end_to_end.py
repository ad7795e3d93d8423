"""End-to-end artifact workflow integration test.

Chains the full production path: generate -> distributed solve ->
validation against the production reference -> AGIS cross-check ->
portability study -> report.  One test, every subsystem.
"""

import numpy as np
import pytest

from repro.core.lsqr import lsqr_solve
from repro.core.variance import standard_errors
from repro.dist.runner import distributed_lsqr_solve
from repro.portability.study import run_study
from repro.system.generator import make_system
from repro.system.structure import SystemDims
from repro.validation.agis import compare_with_agis
from repro.validation.report import run_validation


@pytest.fixture(scope="module")
def workflow_system():
    dims = SystemDims(n_stars=40, n_obs=1200, n_deg_freedom_att=10,
                      n_instr_params=20, n_glob_params=0)
    return make_system(dims, seed=99, noise_sigma=1e-9)


def test_full_artifact_workflow(workflow_system):
    system = workflow_system

    # 1. Distributed solve equals the serial solve.
    serial = lsqr_solve(system, atol=1e-12, btol=1e-12)
    dist = distributed_lsqr_solve(system, 3, atol=1e-12)
    # The distributed driver stops on its arnorm-only rule, a hair
    # earlier or later than the full Paige-Saunders test battery.
    assert np.linalg.norm(dist.x - serial.x) < 1e-7 * np.linalg.norm(
        serial.x
    )

    # 2. Validation: every port agrees with production within the
    #    paper's criteria.
    report = run_validation(system, dataset_label="workflow")
    assert report.all_passed, report.summary()

    # 3. Independent AGIS-style cross-check.
    comparison = compare_with_agis(system, serial.x, tol_rad=1e-11)
    assert comparison.passed(1e-10)

    # 4. The solution is physically sane: standard errors positive,
    #    truth recovered within a few sigma nearly everywhere.
    se = standard_errors(serial)
    x_true = system.meta["x_true"]
    pull = np.abs(serial.x - x_true) / np.maximum(se, 1e-300)
    # The truncated-Lanczos var estimate underestimates sigma a bit,
    # inflating the pulls; 95% within 8 estimated sigma is the sane
    # bound here.
    assert np.quantile(pull, 0.95) < 8.0

    # 5. The portability study runs on the same installation and
    #    reproduces the headline ranking.
    study = run_study(sizes=(10.0,), jitter=0.0, repetitions=1)
    p = study.p_scores(10.0)
    assert sorted(p, key=p.get, reverse=True)[:2] == ["HIP",
                                                      "SYCL+ACPP"]
