"""Replay benchmark for dynmatch.

    python3 perfbench/run.py --workload bip-churn-300 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced replays and reports the
per-layer metrics instead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1

# (name, unit) in the order printed
END_TO_END = [
    ("setup_s", "s"), ("replay_s", "s"), ("updates_per_s", "1/s"),
    ("update_p50_us", "us"), ("update_p99_us", "us"),
    ("estimate_p50_ms", "ms"), ("estimate_p90_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ratio_mean", "ratio"), ("ratio_max", "ratio"),
    ("check_pass_ratio", "ratio"),
]
OFF_PATH = ("harness.generate", "oracles.max_matching", "reference.networkx",
            "sublinear.reference")
SETUP_BUDGET_S = 1.0
SETUP_BATCH_S = 0.05
SETUP_MIN_BATCHES = 5


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_package():
    """Import dynmatch from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dynmatch
    except ImportError as exc:
        raise BenchError(f"cannot import dynmatch from {src}: {exc}") from exc
    if Path(dynmatch.__file__).resolve().parent.parent != src:
        raise BenchError(f"dynmatch imported from {dynmatch.__file__}, "
                         f"not from {src}")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "overhead")):
        return "ratio"
    return "count"


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, min(len(sorted_vals) - 1,
                     math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[idx]


def check_fingerprint(wl, events, expected: str) -> None:
    got = _digest(wl, events)
    if got != expected:
        raise BenchError(f"workload {wl.name}: the generated stream for seed "
                         f"{DEFAULT_SEED} has digest {got}, but "
                         f"{FINGERPRINTS.name} records {expected}; the "
                         f"workload changed")


def _digest(wl, events) -> str:
    from workloads import digest
    return digest(wl.lines(events))


def _setup_seconds(wl) -> tuple:
    """Median set-up time, scaled to host speed.

    Set-ups run in batches of SETUP_BATCH_S of wall time, for
    SETUP_BUDGET_S in all. A batch's median is scaled by the kernel times
    measured just before and after it, and only that median is kept, so the
    memory used, which `peak_rss_mb` sees, does not grow with the number of
    set-ups. Each set-up starts from a freshly collected heap, so the
    collector runs at the same points in every one of them. The objects
    alive before the first set-up are frozen, so that those collections are
    short and leave the caches warm."""
    clock = time.perf_counter_ns
    medians, count = [], 0
    gc.collect()
    gc.freeze()
    start = clock()
    while len(medians) < SETUP_MIN_BATCHES or (
            clock() - start < SETUP_BUDGET_S * 1e9):
        kernel_before = speed.measure()
        batch_start = clock()
        times = []
        while not times or clock() - batch_start < SETUP_BATCH_S * 1e9:
            gc.collect()
            t0 = clock()
            obj = wl.setup()
            times.append(clock() - t0)
            del obj
        kernel = (kernel_before + speed.measure()) / 2
        medians.append(statistics.median(times) * speed.REF_NS / kernel)
        count += len(times)
    gc.collect()
    gc.unfreeze()
    return statistics.median(medians) / 1e9, count


def _per_op_medians(rounds, kind: str) -> list:
    """Each operation's latency as the median over the identical replays of
    it (scaled to host speed). Summed, they give the time of one replay, and
    their percentiles the latency percentiles, with the noise of any single
    replay filtered out: a stall that hits a different call in every replay
    drops out, while a rebuild, which comes at the same call in every
    replay, stays."""
    series = [getattr(r, "scaled_" + kind)() for r in rounds]
    if len({len(x) for x in series}) != 1:
        raise BenchError("replays timed different numbers of operations")
    return [statistics.median(col) for col in zip(*series)]


def _scaled_layers(metrics: dict, rec) -> dict:
    """Scale a traced replay's per-layer seconds by that replay's mean
    host-speed factor."""
    factor = rec.scaled_replay_ns() / rec.replay_ns
    return {k: v * factor if k.endswith("_s") else v
            for k, v in metrics.items()}


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 expected_digest=None, span_log=None) -> dict:
    """Replay `wl` closed-loop for about `seconds` and check what it served.

    Returns the result object (the keys printed last) plus a `rows` list of
    (name, value, unit, samples) for the human-readable report."""
    from tracer import Tracer
    speed.measure()  # warm-up: the first kernel run of a process is slower
    if not trace:
        # first, so that the heap it starts from is the same for every seed
        setup_s, setup_n = _setup_seconds(wl)
    offpath = Tracer()
    with offpath.span("harness.generate"):
        events = wl.generate(seed)
    if expected_digest is not None:
        check_fingerprint(
            wl, events if seed == DEFAULT_SEED else wl.generate(DEFAULT_SEED),
            expected_digest)

    plain, traced, layer_rows = [], [], []
    first_tracer = None
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        gc.collect()
        state = wl.setup()
        if trace and len(plain) > len(traced):
            tr = Tracer()
            tr.own(wl.own_graph(state))
            with tr.installed():
                traced.append(wl.replay(state, events))
            layer_rows.append(_scaled_layers(tr.layer_metrics(), traced[-1]))
            if first_tracer is None:
                first_tracer = tr
        else:
            plain.append(wl.replay(state, events))
        if peak_rss_mb is None:
            # through the first replay only: later replays reuse the memory,
            # and the timing records of all replays should not count
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del state
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if (not trace or traced) and elapsed * (done + 1) / done > seconds:
            break

    ref = wl.reference(events, offpath.span)
    rounds = plain + traced
    ck = wl.check(rounds[0].served, ref)
    mismatched = sum(sum(1 for a, b in zip(r.served, rounds[0].served)
                         if a != b) for r in rounds[1:])
    errors = sum(r.errors for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    correct = (errors == 0 and mismatched == 0
               and ck.lower_bound_broken == 0 and ck.pass_ratio >= wl.gate)
    notes = [f"first error: {r.first_error}" for r in rounds if r.errors][:1]

    rows = []
    if not trace:
        upd = sorted(_per_op_medians(plain, "updates"))
        est = sorted(_per_op_medians(plain, "estimates"))
        upd_ns, est_ns = sum(upd), sum(est)
        rounds_n = len(plain)
        rows = [
            ("setup_s", setup_s, setup_n),
            ("replay_s", (upd_ns + est_ns) / 1e9, rounds_n),
            ("updates_per_s", len(upd) / (upd_ns / 1e9), rounds_n),
            ("update_p50_us", percentile(upd, 0.50) / 1e3, len(upd)),
            ("update_p99_us", percentile(upd, 0.99) / 1e3, len(upd)),
            ("estimate_p50_ms", percentile(est, 0.50) / 1e6, len(est)),
            ("estimate_p90_ms", percentile(est, 0.90) / 1e6, len(est)),
            ("peak_rss_mb", peak_rss_mb, 1),
            ("ratio_mean", statistics.fmean(ck.ratios), len(ck.ratios)),
            ("ratio_max", max(ck.ratios), len(ck.ratios)),
            ("check_pass_ratio", ck.pass_ratio, ck.attempted),
        ]
        rows = [(name, value, unit, n) for (name, value, n), (_, unit)
                in zip(rows, END_TO_END)]
    else:
        for key in layer_rows[0]:
            rows.append((key, statistics.median_low(m[key] for m in layer_rows),
                         unit_of(key), len(layer_rows)))
        for name in OFF_PATH:
            rows.append((name + "_s", offpath.seconds(name), "s",
                         offpath.calls[name]))
        overhead = (statistics.median(r.scaled_replay_ns() for r in traced)
                    / statistics.median(r.scaled_replay_ns() for r in plain)
                    - 1.0)
        rows.append(("trace.overhead", overhead, "ratio", len(traced)))
        if span_log is not None:
            first_tracer.write(span_log, {
                "workload": wl.name, "seed": seed,
                "offpath_s": {n: offpath.seconds(n) for n in OFF_PATH}})
    # printed, not gated: 0 on a healthy run, and gated metrics are never 0
    kernel_ns = [k for r in rounds for k in r.sampler.kernel]
    info = [("check_fail_ratio", ck.failed / ck.attempted, "ratio",
             ck.attempted),
            ("replay_wall_s", statistics.median(
                r.replay_ns / 1e9 for r in plain), "s", len(plain)),
            ("host_speed", speed.REF_NS / statistics.median(kernel_ns),
             "ratio", len(kernel_ns)),
            ("replays", len(rounds), "count", 1)]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": errors + ck.failed + mismatched,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
        "rows": rows,
        "info": info,
        "notes": notes + [f"{mismatched} served values differ between "
                          f"replays"] * bool(mismatched),
    }


def report(wl_name: str, res: dict) -> None:
    print(f"workload {wl_name}: closed loop, 1 caller, 1 process")
    for name, value, unit, n in res["rows"] + res["info"]:
        print(f"  {name:<38} {value:>16.6f} {unit:<6} samples={n}")
    for note in res["notes"]:
        print(f"  note: {note}")
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def record_fingerprints() -> None:
    from workloads import WORKLOADS
    data = {"default_seed": DEFAULT_SEED}
    for name, wl in WORKLOADS.items():
        data[name] = _digest(wl, wl.generate(DEFAULT_SEED))
    FINGERPRINTS.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="rewrite fingerprints.json from the current "
                         "generators (only after a deliberate change)")
    args = ap.parse_args(argv)
    try:
        _import_package()
        if args.record_fingerprints:
            record_fingerprints()
            return 0
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(WORKLOADS)}")
        try:
            expected = json.loads(FINGERPRINTS.read_text())[args.workload]
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"no fingerprint for {args.workload} in "
                             f"{FINGERPRINTS}: {exc!r}") from exc
        span_log = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            span_log = str(OUT_DIR / f"trace-{args.workload}-"
                                     f"seed{args.seed}.jsonl")
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), expected, span_log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
