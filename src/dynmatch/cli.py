"""Command-line interface: generate workloads, replay streams, summarize
reports. All flags round-trip into report metadata; `--seed` defaults to
0. `run` emits a report row at each `q` marker of the stream."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .estimator import EstimatorConfig
from .graph import GraphError, read_stream, write_stream
from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="dynamic matching-size estimation: workload generation, "
                    "stream replay, and report summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an update stream")
    gen.add_argument("--workload", required=True,
                     choices=harness.WORKLOADS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--horizon", type=int, default=1000)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--window", type=int, default=200)
    gen.add_argument("--query-every", type=int, default=0,
                     help="write a q marker after every N updates (0: "
                          "none); adaptive-adversary reads the estimate "
                          "every N updates (N >= 1) and writes a q at "
                          "each read")
    gen.add_argument("--mode", default="bipartite",
                     choices=["bipartite", "general", "tradeoff"],
                     help="estimator mode driven by the adaptive workload")
    gen.add_argument("--eps", type=float, default=0.2)
    gen.add_argument("--reps", type=int, default=1)

    run = sub.add_parser("run", help="replay a stream and write a report")
    run.add_argument("--stream", required=True)
    run.add_argument("--mode", required=True,
                     choices=["bipartite", "general", "tradeoff"])
    run.add_argument("--eps", type=float, required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--oracle-every", type=int, default=0,
                     help="attach the exact maximum matching size to every "
                          "N-th report row (0: none)")
    run.add_argument("--report", required=True)

    summ = sub.add_parser("summarize", help="aggregate a report")
    summ.add_argument("--report", required=True)
    summ.add_argument("--criteria", default=None,
                      help="JSON file with ratio_max / quantile / ratio_lower")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = None
    header = (f"workload={args.workload} n={args.n} seed={args.seed} "
              f"horizon={args.horizon}")
    if args.workload == "adaptive-adversary":
        cfg = EstimatorConfig(mode=args.mode, eps=args.eps, seed=args.seed,
                              reps=args.reps)
        header += f" mode={args.mode} eps={args.eps} reps={args.reps}"
    events = harness.generate_workload(
        args.workload, args.n, args.seed, horizon=args.horizon,
        density=args.density, window=args.window,
        query_every=args.query_every, cfg=cfg)
    write_stream(args.out, events, header=header)
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = EstimatorConfig(mode=args.mode, eps=args.eps, seed=args.seed,
                          reps=args.reps)
    events = read_stream(args.stream)
    result = harness.run_stream(events, args.n, cfg,
                                oracle_every=args.oracle_every)
    result.meta["stream"] = os.path.basename(args.stream)
    harness.write_report(args.report, result)
    print(f"wrote {len(result.rows)} rows to {args.report}")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    result = harness.read_report(args.report)
    criteria = None
    if args.criteria:
        with open(args.criteria, "r", encoding="utf-8") as fh:
            criteria = json.load(fh)
    summary = harness.summarize(result, criteria)
    print(json.dumps(summary, sort_keys=True, indent=2))
    if criteria is not None and not summary.get("pass", False):
        return 1
    return 0


# the package's input errors: bad parameters, streams, reports and files
_INPUT_ERRORS = (harness.InvalidParams, harness.MalformedReport, GraphError,
                 ValueError, OSError)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command. An input error prints one `dynmatch: error:` line
    to stderr and returns 2, the exit code of an argparse usage error."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_summarize(args)
    except _INPUT_ERRORS as exc:
        print(f"dynmatch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
