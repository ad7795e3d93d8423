"""Regression workflow: save a study, change the model, diff.

The workflow a maintainer runs when a device spec, port definition or
calibration constant changes: persist the reference study, re-run with
the change, and let the differ report exactly which cells, P scores
and platform winners moved.

Run:  python examples/regression_workflow.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro.frameworks.registry import ALL_PORTS
from repro.gpu.platforms import ALL_DEVICES
from repro.portability import diff_studies, load_study, save_study
from repro.portability.study import run_study


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reference_path = Path(tmp) / "reference_study.json"

        print("1) Run and persist the reference study (10 GB grid)")
        reference = run_study(sizes=(10.0,), jitter=0.0, repetitions=1)
        save_study(reference, reference_path)
        print(f"   saved -> {reference_path.name}")

        print("\n2) Reload and verify the round trip")
        reloaded = load_study(reference_path)
        diff = diff_studies(reference, reloaded)
        print(f"   reference vs reloaded: "
              f"{'identical' if diff.clean else 'DIFFERS'}")

        print("\n3) 'Upgrade' the H100 (+30% bandwidth) and re-run")
        devices = tuple(
            dataclasses.replace(d, mem_bandwidth_gbs=d.mem_bandwidth_gbs * 1.3)
            if d.name == "H100" else d
            for d in ALL_DEVICES
        )
        changed = run_study(sizes=(10.0,), devices=devices,
                            ports=ALL_PORTS, jitter=0.0, repetitions=1)

        print("\n4) Diff against the reference")
        diff = diff_studies(reference, changed, time_rtol=0.02,
                            p_atol=0.01)
        print(diff.summary() or "   (no changes)")
        moved = {d.platform for d in diff.time_deltas}
        print(f"\n   cells moved on: {sorted(moved)} "
              "(only the changed board, as expected)")


if __name__ == "__main__":
    main()
