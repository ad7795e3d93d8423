"""Correctness checks, all run outside every timed window.

Three tiers:

``check_requests``
    Every completed request of a pass, against arithmetic independent
    of the solver: the residual is recomputed through
    ``system.to_scipy_csr()`` and must agree with the reported
    ``r2norm``; ``x`` must lie within the generator's noise of the
    generating solution; converging workloads must have converged.  A
    request that fails is *counted as failed* in the result.
``check_hygiene``
    What a run must leave behind: nothing.  No shared-memory segment,
    every lane back to full free memory, no live child process, no
    parked checkpoint, no session directory.
``check_deep``
    The contracts that need a second solve: the traced (decomposed)
    pass reproduces the untraced pass bit for bit; one served outcome
    per identity equals a direct ``api.solve`` (rtol 1e-9 for fused
    members); a cache hit is its cold solve; a chain's warm solutions
    match cold solves (the ``bench_sessions.py`` tolerance); and the
    pinned paper-shape figure P(HIP, 10 GB) = 0.98 +/- 0.02 -- which is
    in the *modeled* currency and therefore a check, never a metric.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api import SolveRequest
from repro.api import solve as api_solve
from repro.core.engine import StopReason
from repro.serve import active_segments

from metrics import descendants

#: |x - x_true| may reach this many known-term noise sigmas.
NOISE_SIGMAS = 50.0
RESIDUAL_RTOL = 1e-6
FUSED_RTOL = 1e-9
#: benchmarks/bench_sessions.py's warm-vs-cold tolerance.
WARM_RTOL, WARM_ATOL = 1e-6, 1e-8
PINNED_P_HIP_10GB = (0.98, 0.02)


def request_failure(rec, csr_cache: dict, *,
                    must_converge: bool) -> str | None:
    """Why this completed request's output is wrong (None if right)."""
    report, system = rec.report, rec.system
    if report is None or report.x is None:
        return "no solution vector"
    if not np.all(np.isfinite(report.x)):
        return "non-finite solution"
    if must_converge and not report.converged:
        return f"did not converge (stop={report.stop.name})"
    if not must_converge and not (
            report.converged or report.stop is StopReason.ITERATION_LIMIT):
        return f"unexpected stop reason {report.stop.name}"
    # The matrix of a right-hand-side variant is its base system's.
    key = id(system.astro_values)
    a = csr_cache.get(key)
    if a is None:
        a = csr_cache[key] = system.to_scipy_csr()
    residual = float(np.linalg.norm(system.rhs() - a @ report.x))
    if abs(residual - report.r2norm) > RESIDUAL_RTOL * max(
            residual, report.r2norm):
        return (f"reported r2norm {report.r2norm:.6e} but the "
                f"recomputed residual is {residual:.6e}")
    x_true = system.meta.get("x_true")
    noise = float(system.meta.get("noise_sigma", 0.0))
    if x_true is not None:
        worst = float(np.abs(report.x - x_true).max())
        if worst > NOISE_SIGMAS * max(noise, 1e-12):
            return (f"x is {worst:.3e} from the generating solution "
                    f"(> {NOISE_SIGMAS:g} x noise {noise:g})")
    return None


def check_requests(recs, *, must_converge: bool) -> list[str]:
    """Check every completed request; a wrong one becomes ``failed``."""
    failures = []
    csr_cache: dict = {}
    for rec in recs:
        if rec.status != "ok":
            continue
        reason = request_failure(rec, csr_cache,
                                 must_converge=must_converge)
        if reason is not None:
            rec.status, rec.error = "failed", reason
            failures.append(f"{rec.rid}: {reason}")
    return failures


def live_children() -> list[str]:
    """Command lines of the processes still alive below this one.

    The multiprocessing resource tracker is the interpreter's own
    helper, shared by every pass of a run, and is not counted here;
    ``run.stop_children`` stops it and waits for it at the end.
    """
    found = []
    for pid in descendants():
        try:
            stat = Path("/proc", str(pid), "stat").read_text()
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                continue
            cmdline = Path("/proc", str(pid), "cmdline").read_bytes()
        except (OSError, IndexError):
            continue  # exited while we were looking
        text = cmdline.replace(b"\0", b" ").decode(errors="replace")
        if "resource_tracker" not in text:
            found.append(f"pid {pid}: {text.strip()}")
    return found


def check_hygiene(ctx) -> list[str]:
    """What a closed pass left behind (must be nothing)."""
    failures = []
    segments = active_segments()
    if segments:
        failures.append(f"leaked shm segments: {segments}")
    if ctx.pool is not None:
        for lane in ctx.pool.lanes:
            if lane.free_gb != lane.spec.memory_gb or lane.lane:
                failures.append(
                    f"lane {lane.lane_id} not released: "
                    f"{lane.free_gb}/{lane.spec.memory_gb} GB free, "
                    f"resident {list(lane.lane)}")
    if ctx.serve_report is not None and ctx.serve_report.stuck_workers:
        failures.append(
            f"stuck workers: {ctx.serve_report.stuck_workers}")
    children = live_children()
    if children:
        failures.append(f"live child processes: {children}")
    if ctx.parked:
        failures.append(f"leftover park files: {ctx.parked}")
    if ctx.store_dir is not None and ctx.store_dir.exists():
        failures.append(f"session store left behind: {ctx.store_dir}")
    return failures


def _bitwise(a, b) -> bool:
    return a is not None and b is not None and np.array_equal(a, b)


def _close(a, b, rtol: float) -> bool:
    """Norm-wise agreement (entries near zero carry no relative bits)."""
    return float(np.abs(a - b).max()) <= rtol * float(np.abs(b).max())


def check_traced_equals_untraced(untraced, traced, *,
                                 exact: bool) -> list[str]:
    """The traced pass must have computed what the untraced pass did.

    ``exact`` (the direct workloads): bit for bit, request by request.
    Served streams fuse by arrival timing, so a member may ride a batch
    in one pass and solve alone in the other; there the contract is
    the fused one (rtol 1e-9).
    """
    failures = []
    by_id = {r.rid: r for r in traced}
    for u in untraced:
        t = by_id.get(u.rid)
        if u.report is None or t is None or t.report is None:
            continue
        same = (_bitwise(u.report.x, t.report.x)
                and u.report.itn == t.report.itn if exact
                else _close(u.report.x, t.report.x, FUSED_RTOL))
        if not same:
            failures.append(
                f"{u.rid}: traced solve differs from untraced "
                f"(itn {t.report.itn} vs {u.report.itn})")
    return failures


def check_served(recs, *, sample: int | None = None) -> list[str]:
    """Served outcomes against direct solves, and hits against misses.

    A cache (or single-flight) hit must be bit for bit one of the
    solves the stream made of that identity; one solved outcome per
    identity (the first ``sample`` identities) must equal a direct
    ``api.solve`` -- bitwise when it ran alone, rtol 1e-9 when fused.
    """
    failures = []
    solved: dict[int, list] = {}
    for rec in recs:
        if rec.status == "ok" and not rec.cache_hit:
            solved.setdefault(rec.identity, []).append(rec)
    for rec in recs:
        if rec.status != "ok" or not rec.cache_hit:
            continue
        sources = solved.get(rec.identity, [])
        if sources and not any(_bitwise(rec.report.x, s.report.x)
                               for s in sources):
            failures.append(
                f"{rec.rid}: cache hit matches none of the "
                f"{len(sources)} solve(s) of its identity")
    for sources in list(solved.values())[:sample]:
        rec = sources[0]
        direct = api_solve(SolveRequest(
            system=rec.system, iter_lim=rec.request.iter_lim,
            seed=rec.request.seed))
        same = (_close(rec.report.x, direct.x, FUSED_RTOL) if rec.fused
                else _bitwise(rec.report.x, direct.x))
        if not same:
            failures.append(
                f"{rec.rid}: served solution differs from a direct "
                f"api.solve ({'fused' if rec.fused else 'solo'})")
    return failures


def check_chain(recs, steps: int) -> list[str]:
    """One chain's warm solutions against cold solves of the same steps."""
    failures = []
    for rec in recs:
        if rec.status != "ok" or rec.identity >= steps:
            continue  # identities 0..steps-1 are chain 0
        cold = api_solve(SolveRequest(system=rec.system,
                                      iter_lim=rec.request.iter_lim))
        if not np.allclose(rec.report.x, cold.x, rtol=WARM_RTOL,
                           atol=WARM_ATOL):
            failures.append(
                f"{rec.rid}: warm-started solution differs from the "
                f"cold solve beyond rtol {WARM_RTOL:g}")
    return failures


def check_modeled_pin() -> list[str]:
    """P(HIP, 10 GB) of the modeled study -- modeled currency."""
    from repro.portability.study import run_study

    target, tol = PINNED_P_HIP_10GB
    p = run_study(seed=0).p_scores(10.0)["HIP"]
    if abs(p - target) > tol:
        return [f"modeled P(HIP, 10 GB) = {p:.3f}, pinned "
                f"{target} +/- {tol}"]
    return []
