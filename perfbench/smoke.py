"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and fails (exit 1)
unless each run is correct and emits exactly the metrics BENCHMARK.json
declares, with their units; unless traced and untraced replays serve the same
values; unless the fingerprint check accepts the committed streams and trips
on a perturbed one; and unless the command refuses to report from a
directory that holds only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(wl):
    from workloads import DynamicWorkload
    if isinstance(wl, DynamicWorkload):
        return dataclasses.replace(wl, horizon=60, check_every=1)
    return dataclasses.replace(wl, call_seeds=wl.call_seeds[:1], burst=20)


def check_metrics(label: str, res: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    expect(got == want, f"{label}: emits every declared metric with its unit")
    expect(all(isinstance(m["value"], (int, float))
               and math.isfinite(m["value"])
               for m in res["metrics"].values()),
           f"{label}: every value is a finite number")
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
           f"{label}: correct, {res['failed']} failed of "
           f"{res['attempted']} attempted")


def main() -> int:
    run._import_package()
    from workloads import WORKLOADS
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fingerprints = json.loads(run.FINGERPRINTS.read_text())
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload")

    for name, wl in WORKLOADS.items():
        events = wl.generate(run.DEFAULT_SEED)
        expect(run._digest(wl, events) == fingerprints[name],
               f"{name}: committed fingerprint matches")
        perturbed = list(events)
        i = next(j for j, ev in enumerate(perturbed) if hasattr(ev, "kind")
                 and ev.kind in "id")
        perturbed[i] = dataclasses.replace(perturbed[i], v=perturbed[i].u)
        try:
            run.check_fingerprint(wl, perturbed, fingerprints[name])
            tripped = False
        except run.BenchError:
            tripped = True
        expect(tripped, f"{name}: fingerprint check trips on a perturbed "
                        f"stream")

        small = tiny(wl)
        res = run.run_workload(small, 3, 0.01, False)
        check_metrics(f"{name} --trace 0", res, bench["end_to_end"])
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name} --trace 0: no end-to-end metric is 0")
        res = run.run_workload(small, 3, 0.01, True)
        check_metrics(f"{name} --trace 1", res, bench["per_layer"])

    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            bench["command"] + ["--workload", "gen-query-60", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and '"metrics"' not in out.stdout,
               f"bare directory: exit code {out.returncode}, no result")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
