"""Command-line interface: ``repro-gaia``.

Subcommands mirror the artifact's workflows:

- ``generate`` -- write a synthetic dataset of a given size;
- ``solve``    -- run the preconditioned LSQR on a dataset (or a
  freshly generated one) and print the solve report; a thin adapter
  over :func:`repro.api.solve`;
- ``chaos``    -- run the fault-injection smoke matrix (comm drops,
  payload corruption, rank death) and verify recovery against the
  fault-free reference;
- ``study``    -- run the §V-B portability study on the modeled GPU
  substrate and print the Fig. 3/4/5 tables;
- ``validate`` -- run the §V-C correctness validation;
- ``tune``     -- sweep kernel geometry for one port on one platform;
- ``tables``   -- print Tables I-IV;
- ``telemetry`` -- run an instrumented solve plus a modeled iteration
  and export the collected spans/metrics (Chrome trace, JSON,
  markdown; see ``docs/observability.md``);
- ``serve``    -- run a multi-tenant serving scenario (scenario file
  or the built-in smoke default) through the ``repro.serve``
  scheduler and print throughput/latency/utilization (see
  ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.system.dataset import save_system
    from repro.system.generator import make_system
    from repro.system.sizing import dims_from_gb

    dims = dims_from_gb(args.size_gb)
    print(dims.describe())
    system = make_system(dims, seed=args.seed, noise_sigma=args.noise)
    path = save_system(system, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    # Thin adapter over the one public entry point, repro.api.solve:
    # the CLI only loads/generates the system and formats the report.
    from repro.api import SolveRequest, solve
    from repro.core.variance import to_microarcsec
    from repro.system.dataset import load_system
    from repro.system.generator import make_system
    from repro.system.sizing import dims_from_gb

    if args.dataset:
        system = load_system(args.dataset)
    else:
        system = make_system(dims_from_gb(args.size_gb), seed=args.seed,
                             noise_sigma=args.noise)
    report = solve(SolveRequest(
        system=system,
        ranks=args.ranks,
        atol=args.atol,
        iter_lim=args.iterations,
        seed=args.seed,
    ))
    print(report.summary())
    se = report.standard_errors()
    astro = system.dims.section_slices()["astrometric"]
    print(f"median astrometric standard error: "
          f"{np.median(to_microarcsec(se[astro])):.4f} uas")
    return 0


#: ``chaos`` scenarios: named fault mixes for the smoke matrix.
CHAOS_SCENARIOS: dict[str, dict] = {
    "comm_drop": {"comm_drop_rate": 0.05},
    "nan": {"payload_nan_rate": 0.05},
    # Silent corruption needs a rollback per strike; the restart budget
    # must cover several redraws of the schedule before a clean run.
    "silent_nan": {"silent_nan_rate": 0.03, "checkpoint_every": 5,
                   "max_restarts": 10},
    "rank_death": {"rank_deaths": ((1, 7),), "checkpoint_every": 5},
}


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.api import ResilienceConfig, SolveRequest, solve
    from repro.system.generator import make_system
    from repro.system.sizing import dims_from_gb

    system = make_system(dims_from_gb(args.size_gb), seed=args.seed,
                         noise_sigma=args.noise)
    reference = solve(SolveRequest(system=system, ranks=args.ranks,
                                   atol=args.atol,
                                   iter_lim=args.iterations,
                                   seed=args.seed))
    print(f"fault-free reference: {reference.stop.name} "
          f"itn={reference.itn} r2norm={reference.r2norm:.3e}")
    scenarios = args.scenarios or list(CHAOS_SCENARIOS)
    failures = 0
    for name in scenarios:
        report = solve(SolveRequest(
            system=system, ranks=args.ranks, atol=args.atol,
            iter_lim=args.iterations, seed=args.seed,
            resilience=ResilienceConfig(**CHAOS_SCENARIOS[name]),
        ))
        assert report.resilience is not None
        recovered = report.converged and np.allclose(
            report.x, reference.x, rtol=1e-10, atol=1e-12)
        verdict = "recovered" if recovered else "MISMATCH"
        if not recovered:
            failures += 1
        print(f"\n--- scenario {name}: {verdict} ---")
        print(report.summary())
    return 1 if failures else 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.gpu.device import Vendor
    from repro.portability import run_study, write_csv, write_json
    from repro.portability.report import (
        format_efficiency_table,
        format_p_table,
        format_time_table,
    )

    study = run_study(sizes=tuple(args.sizes), seed=args.seed)
    if args.csv:
        print(f"wrote {write_csv(study, args.csv)}")
    if args.json:
        print(f"wrote {write_json(study, args.json)}")
    for size in study.sizes:
        plats = study.platforms(size)
        print(f"\n===== problem size {size:g} GB "
              f"(platforms: {', '.join(plats)}) =====")
        print(format_time_table(study.times(size), plats,
                                title="Fig. 4: mean iteration time [s]"))
        print()
        print(format_efficiency_table(
            study.efficiencies(size), plats,
            title="Fig. 5: application efficiency"))
        print()
        print(format_p_table(study.p_scores(size),
                             title="Fig. 3: performance portability P"))
    print("\nAverage P across sizes:")
    for port in study.port_keys:
        avg = study.average_p(port)
        print(f"  {port:<12} {avg:.3f}")
    print("NVIDIA-only average P (CUDA): "
          f"{study.average_p('CUDA', vendor=Vendor.NVIDIA):.3f}")
    print()
    print(study.summary())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.system.generator import make_system
    from repro.system.structure import SystemDims
    from repro.validation import run_validation

    dims = SystemDims(
        n_stars=args.stars,
        n_obs=args.stars * args.obs_per_star,
        n_deg_freedom_att=max(8, args.stars // 2),
        n_instr_params=max(12, args.stars),
        n_glob_params=0,  # production validation runs have no global part
    )
    system = make_system(dims, seed=args.seed, noise_sigma=1e-9)
    report = run_validation(system, dataset_label=f"{args.stars} stars")
    print(report.summary())
    return 0 if report.all_passed else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import port_by_key
    from repro.gpu.platforms import device_by_name
    from repro.tuning import (
        TunedConfigCache,
        TuningService,
        default_spec,
        size_class_for,
    )

    port, device = port_by_key(args.port), device_by_name(args.device)
    if not port.supports(device):
        print(f"repro-gaia tune: {port.key} cannot target {device.name}",
              file=sys.stderr)
        return 2
    service = TuningService(cache=TunedConfigCache(args.cache_dir))
    try:
        spec = default_spec(port.key, device.name,
                            size_class_for(args.size_gb).label)
        config = service.tune(spec)
    except ValueError as exc:  # an untunable cell or a bad size
        print(f"repro-gaia tune: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.port_key} on {spec.platform} "
          f"[{spec.size_class} class]: "
          f"best geometry = {config.block_size} threads/block, "
          f"atomic grid cap = {config.atomic_cap} x SMs")
    print(f"default {config.default_iteration_s:.4f} s -> tuned "
          f"{config.tuned_iteration_s:.4f} s "
          f"({config.gain:.1%} reduction)")
    stats = service.cache.stats()
    print(f"cache: {spec.digest()[:16]}... "
          f"({stats['hits']} hits / {stats['misses']} misses, "
          f"{stats['entries']} entries in {args.cache_dir or 'memory'})")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import port_by_key
    from repro.frameworks.scaling import strong_scaling, weak_scaling
    from repro.gpu.platforms import device_by_name

    port = port_by_key(args.port)
    device = device_by_name(args.device)
    if args.mode == "weak":
        curve = weak_scaling(port, device, per_gpu_gb=args.per_gpu_gb)
    else:
        curve = strong_scaling(port, device, total_gb=args.total_gb,
                               gpu_counts=(1, 2, 4, 8, 16))
    eff = curve.efficiency()
    print(f"{args.mode} scaling of {port.key} on {device.name}:")
    print(f"{'GPUs':>6}{'compute[s]':>12}{'comm[s]':>10}"
          f"{'iter[s]':>10}{'efficiency':>12}")
    for p in curve.points:
        print(f"{p.n_gpus:>6}{p.compute_time:>12.4f}{p.comm_time:>10.5f}"
              f"{p.iteration_time:>10.4f}{eff[p.n_gpus]:>12.3f}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import port_by_key
    from repro.gpu.energy import energy_efficiency_table
    from repro.gpu.platforms import ALL_DEVICES
    from repro.system.sizing import dims_from_gb

    table = energy_efficiency_table(
        port_by_key(args.port), tuple(ALL_DEVICES),
        dims_from_gb(args.size_gb), size_gb=args.size_gb,
    )
    print(f"Energy per iteration, {args.port}, {args.size_gb:g} GB "
          "(TDP-bound model):")
    for name, e in table.items():
        print(f"  {name:<8} {e.board_power_w:4.0f} W  "
              f"{e.iteration_time_s:8.4f} s  "
              f"{e.joules_per_iteration:8.1f} J/iter  "
              f"{e.iterations_per_kilojoule:6.2f} iter/kJ")
    return 0


def _cmd_divergence(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import ALL_PORTS
    from repro.gpu.platforms import ALL_DEVICES
    from repro.portability import navigation_chart, run_study

    study = run_study(sizes=(args.size_gb,), seed=args.seed)
    chart = navigation_chart(tuple(ALL_PORTS), tuple(ALL_DEVICES),
                             study.p_scores(args.size_gb))
    print("P3 navigation chart: P vs code divergence")
    for pt in sorted(chart, key=lambda p: (-p.p, p.divergence)):
        marker = "  <- portable & single-source" if pt.unicorn else ""
        print(f"  {pt.port_key:<12} P={pt.p:5.3f}  "
              f"divergence={pt.divergence:5.3f}{marker}")
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.system.storage import mission_dims, storage_comparison
    from repro.system.sizing import dims_from_gb

    dims = mission_dims() if args.mission else dims_from_gb(args.size_gb)
    print(storage_comparison(dims).summary())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.solver_sim import solvergaia_sim

    result = solvergaia_sim(
        args.size_gb, args.framework, args.device,
        seed=args.seed, n_iterations=args.iterations,
    )
    print(result.report())
    return 0 if result.supported else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import (
        CLUSTER_GPU_TABLE,
        COMPILE_FLAGS_AMD,
        COMPILE_FLAGS_NVIDIA,
        SOFTWARE_VERSIONS_NVIDIA,
    )

    print("Table I: software versions on NVIDIA architectures")
    print(f"  {'component':<14}{'T4 & V100':<12}{'A100':<12}{'H100':<12}")
    for name, versions in SOFTWARE_VERSIONS_NVIDIA.items():
        print(f"  {name:<14}{versions[0]:<12}{versions[1]:<12}"
              f"{versions[2]:<12}")
    print("\nTable II: compilation flags on NVIDIA architectures")
    for (fw, cc), flags in COMPILE_FLAGS_NVIDIA.items():
        print(f"  {fw:<8}{cc:<10}{flags}")
    print("\nTable III: compilation flags on AMD architecture")
    for (fw, cc), flags in COMPILE_FLAGS_AMD.items():
        print(f"  {fw:<8}{cc:<22}{flags}")
    print("\nTable IV: cluster name to GPU model")
    for cluster, gpu in CLUSTER_GPU_TABLE.items():
        print(f"  {cluster:<14}{gpu}")
    return 0


#: ``telemetry --size`` presets (stars, observations per star).
TELEMETRY_SIZES = {
    "tiny": (20, 30),
    "small": (60, 30),
    "demo": (150, 40),
}


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.core.lsqr import lsqr_solve
    from repro.frameworks.registry import port_by_key
    from repro.frameworks.executor import model_iteration
    from repro.gpu.platforms import device_by_name
    from repro.gpu.profiler import Profiler
    from repro.gpu.trace import trace_iteration
    from repro.obs import (
        Telemetry,
        to_markdown,
        write_chrome_trace,
        write_flat_json,
    )
    from repro.system.generator import make_system
    from repro.system.structure import SystemDims

    n_stars, obs_per_star = TELEMETRY_SIZES[args.size]
    dims = SystemDims(
        n_stars=n_stars,
        n_obs=n_stars * obs_per_star,
        n_deg_freedom_att=max(12, n_stars // 2),
        n_instr_params=max(18, n_stars // 2),
        n_glob_params=1,
    )
    tel = Telemetry()

    # Measured: the real (scaled-down) solve, instrumented end to end.
    system = make_system(dims, seed=args.seed, noise_sigma=1e-9)
    res = lsqr_solve(system, atol=1e-10, btol=1e-10,
                     iter_lim=args.iterations, telemetry=tel)

    # Modeled: one iteration of the chosen port on the chosen device,
    # with the profiler forwarding into the same registry.  Unsupported
    # combinations are exclusions (as in the §V-B study), not crashes.
    from repro.frameworks.base import UnsupportedPlatform

    port = port_by_key(args.port)
    device = device_by_name(args.device)
    profiler = Profiler(telemetry=tel)
    trace = None
    try:
        model_iteration(port, device, dims, profiler=profiler,
                        telemetry=tel)
        trace = trace_iteration(port, device, dims)
        trace.record_to(tel)
    except UnsupportedPlatform as exc:
        print(f"modeled iteration excluded: {exc}")

    aprod_share = tel.span_share(("lsqr.aprod1", "lsqr.aprod2"),
                                 ("lsqr.iteration",))
    print(f"solve: istop={res.istop.name} itn={res.itn} "
          f"r2norm={res.r2norm:.3e}")
    print(f"measured aprod1+aprod2 share of iteration time: "
          f"{aprod_share:.1%}")
    if trace is not None:
        print(f"modeled aprod share on {device.name} ({port.key}): "
              f"{profiler.fraction('aprod'):.1%}")
    print()
    print(to_markdown(tel))

    exports = (("chrome", "json", "markdown") if args.export == "all"
               else (args.export,))
    base = args.output
    if "chrome" in exports:
        path = base or "telemetry_trace.json"
        kernel_events = (trace.to_chrome_trace()["traceEvents"]
                         if trace is not None else None)
        print(f"wrote {write_chrome_trace(tel, path, extra_events=kernel_events)}")
    if "json" in exports:
        path = (f"{base}.flat.json" if base and "chrome" in exports
                else base) or "telemetry.json"
        print(f"wrote {write_flat_json(tel, path)}")
    if "markdown" in exports:
        path = (f"{base}.md" if base and len(exports) > 1
                else base) or "telemetry.md"
        from pathlib import Path

        Path(path).write_text(to_markdown(tel) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    from repro.api import SolveRequest, solve
    from repro.sessions import SessionStore
    from repro.system.generator import make_observation_block, make_system
    from repro.system.merge import append_observations
    from repro.system.sizing import dims_from_gb

    system = make_system(dims_from_gb(args.size_gb), seed=args.seed,
                         noise_sigma=1e-9)
    store = SessionStore(args.store)
    total_saved = 0
    try:
        print(f"incremental re-solve chain: {args.steps} steps, "
              f"growth {args.growth:g} per step "
              f"(store: {store.root})")
        for step in range(args.steps):
            if step > 0:
                n_new = max(1, round(system.dims.n_obs * args.growth))
                block = make_observation_block(
                    system, n_new, seed=args.seed + step)
                system = append_observations(system, block)
            request = SolveRequest(system=system, seed=args.seed,
                                   iter_lim=args.iterations)
            cold = solve(request)
            warm = solve(request, sessions=store)
            ws = warm.warm_start
            if ws is None:
                seeded = "cold (store miss; solution recorded)"
            else:
                kind = ("exact digest" if ws.exact
                        else f"ancestor depth {ws.depth}")
                seeded = (f"warm from {kind}: "
                          f"{cold.itn - warm.itn} iteration(s) saved")
                total_saved += cold.itn - warm.itn
            print(f"  step {step}: n_obs={system.dims.n_obs} "
                  f"cold itn={cold.itn} warm itn={warm.itn} -- "
                  f"{seeded}")
        stats = store.stats()
        print(f"store: {stats['records']} record(s), "
              f"{stats['bytes']} bytes, {stats['hits']} exact + "
              f"{stats['ancestor_hits']} ancestor hit(s)")
        print(f"total iterations saved by warm starts: {total_saved}")
    finally:
        store.close()
    if total_saved <= 0:
        print("FAIL: warm starts saved no iterations")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json as json_mod

    from repro.obs.telemetry import Telemetry
    from repro.serve.scenario import Scenario, load_scenario, run_scenario

    try:
        scenario = (load_scenario(args.scenario) if args.scenario
                    else Scenario())
    except (OSError, ValueError) as exc:  # unreadable or malformed
        print(f"repro-gaia serve: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None:
        scenario = dataclasses.replace(scenario, workers=args.workers)
    if args.max_fuse is not None:
        scenario = dataclasses.replace(scenario, max_fuse=args.max_fuse)
    if args.backend is not None:
        scenario = dataclasses.replace(scenario, backend=args.backend)
    if args.drain_timeout is not None:
        scenario = dataclasses.replace(
            scenario, drain_timeout_s=args.drain_timeout)
    if args.tuning:
        scenario = dataclasses.replace(scenario, tuning_enabled=True)
    if args.allow_gang:
        scenario = dataclasses.replace(
            scenario, allow_gang=True,
            max_shards=max(scenario.max_shards, 2))
    if args.max_shards is not None:
        scenario = dataclasses.replace(scenario,
                                       max_shards=args.max_shards)
    if args.sessions:
        scenario = dataclasses.replace(scenario, sessions_enabled=True)
    if args.sessions_dir is not None:
        scenario = dataclasses.replace(
            scenario, sessions_enabled=True,
            sessions_dir=args.sessions_dir)
    if args.preempt_slice is not None:
        scenario = dataclasses.replace(
            scenario, sessions_enabled=True,
            preempt_slice=args.preempt_slice)
    tel = Telemetry()
    report = run_scenario(scenario, telemetry=tel)
    print(f"pool: {', '.join(scenario.devices)} "
          f"(per_gcd={scenario.per_gcd}), "
          f"{scenario.workers} workers, {scenario.backend} backend")
    print(report.summary())
    if args.verbose:
        print("\nplacement log:")
        for p in report.placement_log:
            tag = " cache-hit" if p.cache_hit else ""
            retry = f" attempt={p.attempt}" if p.attempt else ""
            fuse = (f" fused[{p.batch_id} x{p.batch_size}]"
                    if p.batch_id is not None else "")
            tuned = " tuned" if p.tuned else ""
            gang = f" gang[x{len(p.shards)}]" if p.shards else ""
            print(f"  {p.job_id}: {p.nominal_gb:g} GB -> {p.device} "
                  f"[{p.port_key}, est {p.estimated_s:.1f} s]"
                  f"{tuned}{tag}{retry}{fuse}{gang}")
            for s in p.shards:
                moved = (f" (migrated from {s.migrated_from})"
                         if s.migrated_from else "")
                print(f"    shard {s.rank}: {s.device} "
                      f"[{s.port_key}, {s.footprint_gb:.1f} GB]"
                      f"{moved}")
    if args.json:
        doc = {
            "wall_s": report.wall_s,
            "throughput_jobs_per_s": report.throughput_jobs_per_s,
            "queue_wait_p50_s": report.wait_percentile(50),
            "queue_wait_p99_s": report.wait_percentile(99),
            "utilization": report.utilization,
            "cache": report.cache_stats,
            "backend": report.backend,
            "stuck_workers": list(report.stuck_workers),
            "completed": len(report.completed),
            "rejected": len(report.rejected),
            "failed": len(report.failed),
            "digest_passes": tel.counter("serve.digest_passes").value,
            "preemptions": report.preemptions,
            "placements": [dataclasses.asdict(p)
                           for p in report.placement_log],
        }
        with open(args.json, "w") as fh:
            json_mod.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if not report.rejected or args.allow_rejections else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-gaia`` argument parser.

    ``--port`` / ``--framework`` / ``--device`` take their choices from
    the port and platform registries, so an unknown key is a usage
    error (exit status 2, one line), not a traceback; ``tune --port``
    offers only the ports with geometry control somewhere.
    """
    from repro.frameworks.registry import ALL_PORTS
    from repro.gpu.platforms import ALL_DEVICES

    ports = tuple(port.key for port in ALL_PORTS)
    devices = tuple(device.name for device in ALL_DEVICES)
    tunable = tuple(
        port.key for port in ALL_PORTS
        if any(port.tunable(device)
               for device in ALL_DEVICES if port.supports(device)))
    parser = argparse.ArgumentParser(
        prog="repro-gaia",
        description="Gaia AVU-GSR performance-portability reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--size-gb", type=float, default=0.01)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=1e-9)
    g.add_argument("--output", default="gaia_system.npz")
    g.set_defaults(fn=_cmd_generate)

    s = sub.add_parser("solve", help="run the preconditioned LSQR")
    s.add_argument("--dataset", default=None)
    s.add_argument("--size-gb", type=float, default=0.005)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--noise", type=float, default=1e-9)
    s.add_argument("--atol", type=float, default=1e-10)
    s.add_argument("--iterations", type=int, default=None)
    s.add_argument("--ranks", type=int, default=1,
                   help="run the distributed driver on N simulated "
                        "MPI ranks (same step engine, same stopping "
                        "rules)")
    s.set_defaults(fn=_cmd_solve)

    ch = sub.add_parser(
        "chaos",
        help="fault-injection smoke matrix: solve under chaos and "
             "check recovery against the fault-free reference",
    )
    ch.add_argument("--scenarios", nargs="*", default=None,
                    choices=tuple(CHAOS_SCENARIOS),
                    help="scenarios to run (default: all)")
    ch.add_argument("--size-gb", type=float, default=0.005)
    ch.add_argument("--ranks", type=int, default=4)
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--noise", type=float, default=1e-9)
    ch.add_argument("--atol", type=float, default=1e-10)
    ch.add_argument("--iterations", type=int, default=None)
    ch.set_defaults(fn=_cmd_chaos)

    st = sub.add_parser("study", help="run the SS V-B portability study")
    st.add_argument("--sizes", type=float, nargs="+",
                    default=[10.0, 30.0, 60.0])
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--csv", default=None,
                    help="also write the flat measurement table here")
    st.add_argument("--json", default=None,
                    help="also write the full result document here")
    st.set_defaults(fn=_cmd_study)

    sc = sub.add_parser("scaling",
                        help="model multi-GPU weak/strong scaling")
    sc.add_argument("--mode", choices=("weak", "strong"), default="weak")
    sc.add_argument("--port", default="CUDA", choices=ports)
    sc.add_argument("--device", default="A100", choices=devices)
    sc.add_argument("--per-gpu-gb", type=float, default=10.0)
    sc.add_argument("--total-gb", type=float, default=60.0)
    sc.set_defaults(fn=_cmd_scaling)

    v = sub.add_parser("validate", help="run the SS V-C validation")
    v.add_argument("--stars", type=int, default=60)
    v.add_argument("--obs-per-star", type=int, default=30)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=_cmd_validate)

    t = sub.add_parser("tune", help="sweep kernel geometry for one port")
    t.add_argument("--port", default="CUDA", choices=tunable)
    t.add_argument("--device", default="T4", choices=devices)
    t.add_argument("--size-gb", type=float, default=10.0,
                   help="problem size; the sweep runs its size class's "
                        "representative (10/30/60 GB)")
    t.add_argument("--cache-dir", default=None,
                   help="persist tuned configs in a disk cache at this "
                        "directory (repeats are pure cache hits; see "
                        "docs/tuning.md) instead of in memory")
    t.set_defaults(fn=_cmd_tune)

    tb = sub.add_parser("tables", help="print Tables I-IV")
    tb.set_defaults(fn=_cmd_tables)

    en = sub.add_parser("energy", help="energy-per-iteration outlook")
    en.add_argument("--port", default="HIP", choices=ports)
    en.add_argument("--size-gb", type=float, default=10.0)
    en.set_defaults(fn=_cmd_energy)

    dv = sub.add_parser("divergence",
                        help="P vs code-divergence navigation chart")
    dv.add_argument("--size-gb", type=float, default=10.0)
    dv.add_argument("--seed", type=int, default=0)
    dv.set_defaults(fn=_cmd_divergence)

    so = sub.add_parser("storage", help="storage-scheme comparison")
    so.add_argument("--size-gb", type=float, default=10.0)
    so.add_argument("--mission", action="store_true",
                    help="use the real mission scale of SSIII-B")
    so.set_defaults(fn=_cmd_storage)

    sim = sub.add_parser(
        "simulate",
        help="the artifact's solvergaiaSim run for one framework/device",
    )
    sim.add_argument("--framework", default="HIP", choices=ports)
    sim.add_argument("--device", default="H100", choices=devices)
    sim.add_argument("--size-gb", type=float, default=10.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--iterations", type=int, default=100)
    sim.set_defaults(fn=_cmd_simulate)

    te = sub.add_parser(
        "telemetry",
        help="instrumented solve + modeled iteration; export telemetry",
    )
    te.add_argument("--size", choices=tuple(TELEMETRY_SIZES),
                    default="tiny")
    te.add_argument("--seed", type=int, default=0)
    te.add_argument("--iterations", type=int, default=60,
                    help="LSQR iteration cap for the instrumented solve")
    te.add_argument("--port", default="CUDA", choices=ports)
    te.add_argument("--device", default="A100", choices=devices,
                    help="modeled device for the kernel timeline")
    te.add_argument("--export",
                    choices=("chrome", "json", "markdown", "all"),
                    default="chrome")
    te.add_argument("--output", default=None,
                    help="output path (defaults per export format)")
    te.set_defaults(fn=_cmd_telemetry)

    sv = sub.add_parser(
        "serve",
        help="run a multi-tenant serving scenario through the "
             "repro.serve scheduler",
    )
    sv.add_argument("--scenario", default=None,
                    help="scenario JSON file (default: built-in smoke "
                         "scenario; see docs/serving.md for the "
                         "format)")
    sv.add_argument("--workers", type=int, default=None,
                    help="override the scenario's worker count")
    sv.add_argument("--max-fuse", type=int, default=None,
                    help="override the scenario's request-fusion "
                         "width (1 = no fusion; K > 1 coalesces up "
                         "to K compatible queued jobs into one "
                         "batched many-RHS solve)")
    sv.add_argument("--backend", choices=("thread", "process"),
                    default=None,
                    help="override the scenario's worker backend "
                         "(process = solve in spawned worker "
                         "processes over the shared-memory system "
                         "store)")
    sv.add_argument("--drain-timeout", type=float, default=None,
                    help="override the scenario's graceful-shutdown "
                         "join bound in seconds (workers still "
                         "running at the deadline are reported as "
                         "stuck instead of hanging the run)")
    sv.add_argument("--tuning", action="store_true",
                    help="enable the online tuning service regardless "
                         "of the scenario: the pool x load-mix "
                         "geometry sweeps fill the tuned-config cache "
                         "before the run, and placement prices from "
                         "it (see docs/tuning.md)")
    sv.add_argument("--allow-gang", action="store_true",
                    help="let too-large jobs shard across multiple "
                         "lanes as a gang-scheduled multi-rank solve "
                         "(implies max_shards >= 2)")
    sv.add_argument("--max-shards", type=int, default=None,
                    help="override the scenario's gang shard budget "
                         "(upper bound on the rank count a sharded "
                         "solve may decompose into)")
    sv.add_argument("--sessions", action="store_true",
                    help="attach a session store regardless of the "
                         "scenario: plain serial jobs warm start "
                         "from stored exact-digest/ancestor "
                         "solutions and record back (see "
                         "docs/sessions.md)")
    sv.add_argument("--sessions-dir", default=None,
                    help="persist the session store at this "
                         "directory instead of a run-scoped "
                         "temporary one (implies --sessions)")
    sv.add_argument("--preempt-slice", type=int, default=None,
                    help="run preemptible priority>0 jobs as "
                         "checkpointed slices of this many "
                         "iterations so urgent arrivals can park "
                         "them mid-solve (implies --sessions)")
    sv.add_argument("--verbose", action="store_true",
                    help="print the per-job placement log")
    sv.add_argument("--json", default=None,
                    help="also write the run report as JSON here")
    sv.add_argument("--allow-rejections", action="store_true",
                    help="exit 0 even when admission control shed "
                         "jobs")
    sv.set_defaults(fn=_cmd_serve)

    ss = sub.add_parser(
        "sessions",
        help="incremental re-solve demo: grow a system by "
             "observation blocks and warm start each re-solve from "
             "the session store (exits nonzero unless warm starts "
             "save iterations)",
    )
    ss.add_argument("--size-gb", type=float, default=0.005)
    ss.add_argument("--steps", type=int, default=3,
                    help="chain length (step 0 plus grown re-solves)")
    ss.add_argument("--growth", type=float, default=0.5,
                    help="new observations per step as a fraction of "
                         "the parent's n_obs")
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--iterations", type=int, default=None,
                    help="LSQR iteration cap per solve")
    ss.add_argument("--store", default=None,
                    help="persist the session store here (default: "
                         "run-scoped temporary directory)")
    ss.set_defaults(fn=_cmd_sessions)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
