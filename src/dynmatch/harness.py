"""Workload generation, replay, reporting, and summaries.

Reports are JSON lines (one metadata object, then one object per query row)
plus a CSV projection next to them. Every generator and the run loop are
deterministic functions of (parameters, seed); no wallclock values enter a
report, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .graph import (DynamicGraph, Edge, UpdateEvent, format_event, norm_edge,
                    read_stream, write_stream)
from . import oracles
from .estimator import Estimator, EstimatorConfig, SizeEstimate

REPORT_VERSION = 1

# recorded in every report: the maintainer recomputes its matching per epoch,
# so update-time guarantees are amortized per epoch; queries replay the live
# edge set exactly instead of sampling it.
DEVIATIONS = ["amortized-provider", "exact-query-replay"]


class InvalidParams(Exception):
    pass


class MalformedReport(Exception):
    pass


WORKLOADS = ("random-er", "random-bipartite", "sliding-window",
             "planted-matching", "adaptive-adversary")


# -- workload generators ---------------------------------------------------


def _interleave_queries(events: List[UpdateEvent],
                        query_every: int) -> List[UpdateEvent]:
    if query_every <= 0:
        return events
    out: List[UpdateEvent] = []
    since = 0
    for ev in events:
        out.append(ev)
        since += 1
        if since >= query_every:
            out.append(UpdateEvent("q"))
            since = 0
    return out


def _churn_events(n: int, horizon: int, seed: int, target: int,
                  pick_pair) -> List[UpdateEvent]:
    """Fill toward `target` edges, then churn around it: each step inserts a
    random absent pair or deletes a random present edge."""
    rng = random.Random(seed)
    live: Dict[Edge, None] = {}
    events: List[UpdateEvent] = []
    for _ in range(horizon):
        if not live:
            do_insert = True
        elif len(live) < target:
            do_insert = True
        else:
            do_insert = rng.random() < 0.5
        if do_insert:
            for _attempt in range(50 * n):
                e = pick_pair(rng)
                if e not in live:
                    break
            else:
                do_insert = False
            if do_insert:
                live[e] = None
                events.append(UpdateEvent("i", *e))
                continue
        e = list(live)[rng.randrange(len(live))]
        del live[e]
        events.append(UpdateEvent("d", *e))
    return events


def gen_random_er(n: int, horizon: int, seed: int,
                  density: float = 0.2) -> List[UpdateEvent]:
    target = max(1, int(density * n * (n - 1) / 2))

    def pick(rng: random.Random) -> Edge:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        return norm_edge(u, v)

    return _churn_events(n, horizon, seed, target, pick)


def gen_random_bipartite(n: int, horizon: int, seed: int,
                         density: float = 0.2) -> List[UpdateEvent]:
    h = n // 2
    target = max(1, int(density * h * (n - h)))

    def pick(rng: random.Random) -> Edge:
        return norm_edge(rng.randrange(h), h + rng.randrange(n - h))

    return _churn_events(n, horizon, seed, target, pick)


def gen_sliding_window(n: int, horizon: int, seed: int,
                       window: int = 200) -> List[UpdateEvent]:
    """Insert a fresh random pair each step; from step `window` on, first
    delete the pair inserted `window` steps earlier."""
    rng = random.Random(seed)
    live: Dict[Edge, None] = {}
    order: Deque[Edge] = deque()
    events: List[UpdateEvent] = []
    t = 0
    while len(events) < horizon:
        if len(order) >= window:
            e = order.popleft()
            del live[e]
            events.append(UpdateEvent("d", *e))
            if len(events) >= horizon:
                break
        for _attempt in range(50 * n):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            e = norm_edge(u, v)
            if e not in live:
                break
        else:
            raise InvalidParams("window too large for vertex count")
        live[e] = None
        order.append(e)
        events.append(UpdateEvent("i", *e))
        t += 1
    return events


def gen_planted_matching(n: int, horizon: int = 0,
                         seed: int = 0) -> List[UpdateEvent]:
    """floor(n/2) disjoint edges across the id halves; maximum matching size
    is known by construction."""
    h = n // 2
    events = [UpdateEvent("i", i, h + i) for i in range(h)]
    if horizon:
        events = events[:horizon]
    return events


class AdaptiveAdversary:
    """Update source whose future depends on the published estimates.

    Feedback channel: the single value passed to step(); every read is
    logged. Strategy: grow a bipartite-ish graph; whenever the estimate is
    high, tear out the edges most recently credited (newest inserts, which
    the maintained structures lean on) and re-insert elsewhere.
    """

    def __init__(self, n: int, seed: int, batch: int = 20,
                 density: float = 0.2):
        self.n = n
        self.rng = random.Random(seed)
        self.batch = batch
        h = n // 2
        self.h = h
        self.target = max(1, int(density * h * (n - h)))
        self.live: Dict[Edge, None] = {}
        # newest inserts, oldest dropped beyond 4 batches
        self.recent: Deque[Edge] = deque(maxlen=4 * batch)
        self.estimate_log: List[float] = []

    def _fresh_pair(self) -> Optional[Edge]:
        for _ in range(50 * self.n):
            e = norm_edge(self.rng.randrange(self.h),
                          self.h + self.rng.randrange(self.n - self.h))
            if e not in self.live:
                return e
        return None

    def step(self, last_estimate: float) -> List[UpdateEvent]:
        """One batch of updates, shaped by the last published estimate."""
        self.estimate_log.append(last_estimate)
        events: List[UpdateEvent] = []
        aggressive = last_estimate >= 0.3 * self.target
        if aggressive and self.live:
            # delete the most recently inserted surviving edges
            kill = [e for e in reversed(self.recent) if e in self.live]
            for e in kill[:self.batch // 2]:
                del self.live[e]
                events.append(UpdateEvent("d", *e))
        while len(events) < self.batch:
            if len(self.live) < self.target:
                e = self._fresh_pair()
                if e is not None:
                    self.live[e] = None
                    self.recent.append(e)
                    events.append(UpdateEvent("i", *e))
                    continue
            if not self.live:
                break
            keys = list(self.live)
            e = keys[self.rng.randrange(len(keys))]
            del self.live[e]
            events.append(UpdateEvent("d", *e))
        return events


def generate_workload(workload: str, n: int, seed: int, horizon: int = 1000,
                      density: float = 0.2, window: int = 200,
                      query_every: int = 0,
                      cfg: Optional[EstimatorConfig] = None
                      ) -> List[UpdateEvent]:
    if n < 2 and workload != "planted-matching" and workload in WORKLOADS:
        # every other workload draws vertex pairs
        raise InvalidParams(f"{workload} needs at least 2 vertices")
    if workload == "random-er":
        events = gen_random_er(n, horizon, seed, density)
    elif workload == "random-bipartite":
        events = gen_random_bipartite(n, horizon, seed, density)
    elif workload == "sliding-window":
        events = gen_sliding_window(n, horizon, seed, window)
    elif workload == "planted-matching":
        events = gen_planted_matching(n, horizon, seed)
    elif workload == "adaptive-adversary":
        # realized against a live estimator so the stream is replayable;
        # the adversary sees nothing but the published estimates
        if cfg is None:
            cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=seed)
        est = Estimator(n, cfg)
        adv = AdaptiveAdversary(n, seed, density=density)
        events = []
        nu = 0.0
        while len(events) < horizon:
            batch = adv.step(nu)
            if not batch:
                break
            for ev in batch:
                est.apply(ev)
                events.append(ev)
            nu = est.estimate().nu
        events = events[:horizon]
    else:
        raise InvalidParams(f"unknown workload {workload!r}")
    return _interleave_queries(events, query_every)


# -- run loop --------------------------------------------------------------


@dataclass
class RunResult:
    meta: dict
    rows: List[dict] = field(default_factory=list)


def _exact_mu(g: DynamicGraph) -> Optional[int]:
    try:
        return oracles.max_matching_size(g)
    except oracles.TooLarge:
        return None


def _emit(result: RunResult, est: Estimator, se: SizeEstimate,
          oracle_every: int) -> None:
    """Append the row of `se`. Every `oracle_every`-th row (counting from 1;
    0 for none) also carries the exact size, unless the oracle is out of
    range for the graph."""
    row: Dict[str, object] = {
        "type": "row", "t": est.g.ops, "nu": se.nu,
        "m1": se.components.get("m1", 0.0),
    }
    if oracle_every > 0 and (len(result.rows) + 1) % oracle_every == 0:
        mu = _exact_mu(est.g)
        if mu is not None:
            row["mu"] = mu
            row["ratio"] = (mu / se.nu) if se.nu > 0 else None
    result.rows.append(row)


def run_stream(events: Sequence[UpdateEvent], n: int, cfg: EstimatorConfig,
               oracle_every: int = 0, query_every: int = 0) -> RunResult:
    """Feed events; emit a row at every `q` marker and every `query_every`
    updates; attach exact sizes to every `oracle_every`-th row."""
    est = Estimator(n, cfg)
    meta = {
        "type": "meta", "version": REPORT_VERSION, "n": n,
        "mode": cfg.mode, "eps": cfg.eps, "seed": cfg.seed,
        "reps": cfg.reps, "oracle_every": oracle_every,
        "query_every": query_every, "deviations": DEVIATIONS,
    }
    if cfg.mode == "tradeoff":
        meta["alpha"] = cfg.alpha
        meta["b_star"] = cfg.b_star
        meta["beta"] = cfg.beta
    result = RunResult(meta=meta)
    since_query = 0
    for ev in events:
        if ev.kind == "q":
            _emit(result, est, est.estimate(), oracle_every)
            continue
        est.apply(ev)
        since_query += 1
        if query_every > 0 and since_query >= query_every:
            since_query = 0
            _emit(result, est, est.estimate(), oracle_every)
    return result


def run_adaptive(n: int, cfg: EstimatorConfig, seed: int, horizon: int,
                 cadence: int = 100, oracle_every: int = 0,
                 density: float = 0.2) -> RunResult:
    """Drive an adaptive adversary against a live estimator. The adversary's
    only input is the estimate published at each cadence boundary; the number
    of reads is recorded in the metadata. Exact sizes go to every
    `oracle_every`-th row."""
    est = Estimator(n, cfg)
    adv = AdaptiveAdversary(n, seed, batch=cadence, density=density)
    meta = {
        "type": "meta", "version": REPORT_VERSION, "n": n,
        "mode": cfg.mode, "eps": cfg.eps, "seed": cfg.seed,
        "reps": cfg.reps, "oracle_every": oracle_every,
        "workload": "adaptive-adversary", "deviations": DEVIATIONS,
    }
    result = RunResult(meta=meta)
    nu = 0.0
    applied = 0
    while applied < horizon:
        batch = adv.step(nu)
        if not batch:
            break
        for ev in batch:
            if applied >= horizon:
                break
            est.apply(ev)
            applied += 1
        se = est.estimate()
        nu = se.nu
        _emit(result, est, se, oracle_every)
    meta["adversary_reads"] = len(adv.estimate_log)
    return result


# -- report I/O ------------------------------------------------------------


def write_report(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result.meta, sort_keys=True) + "\n")
        for row in result.rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    csv_path = path + ".csv"
    cols = ["t", "nu", "mu", "ratio", "m1"]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in result.rows:
            writer.writerow([row.get(c, "") for c in cols])


def read_report(path: str) -> RunResult:
    rows: List[dict] = []
    meta: Optional[dict] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedReport(f"line {lineno}: {exc}") from exc
            if obj.get("type") == "meta":
                meta = obj
            elif obj.get("type") == "row":
                rows.append(obj)
            else:
                raise MalformedReport(f"line {lineno}: unknown record type")
    if meta is None:
        raise MalformedReport("missing metadata record")
    for prev, cur in zip(rows, rows[1:]):
        if cur["t"] < prev["t"]:
            raise MalformedReport("rows not monotone in update index")
    return RunResult(meta=meta, rows=rows)


# -- summaries -------------------------------------------------------------


def _quantile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, int(math.ceil(q * len(sorted_vals))) - 1)
    return sorted_vals[max(0, idx)]


def summarize(result: RunResult, criteria: Optional[dict] = None) -> dict:
    ratios = sorted(r["ratio"] for r in result.rows
                    if r.get("ratio") is not None)
    summary: Dict[str, object] = {
        "rows": len(result.rows),
        "mode": result.meta.get("mode"),
        # rows past the oracle's size range, or off the oracle cadence
        "rows_without_mu": sum("mu" not in r for r in result.rows),
    }
    if ratios:
        summary["ratio_min"] = ratios[0]
        summary["ratio_max"] = ratios[-1]
        summary["ratio_q50"] = _quantile(ratios, 0.5)
        summary["ratio_q99"] = _quantile(ratios, 0.99)
    if criteria is not None:
        ok = True
        bound = criteria.get("ratio_max")
        quantile = criteria.get("quantile", 0.99)
        lower = criteria.get("ratio_lower", 1.0)
        if bound is not None:
            if not ratios:
                ok = False
            else:
                within = [r for r in ratios if lower - 1e-9 <= r <= bound + 1e-9]
                ok = len(within) >= quantile * len(ratios)
        summary["pass"] = ok
    return summary
