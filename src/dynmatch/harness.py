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
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from .graph import DynamicGraph, Edge, UpdateEvent, norm_edge
from . import oracles
from .estimator import ALPHA, B_STAR, BETA, Estimator, EstimatorConfig

REPORT_VERSION = 1

# recorded in every report: the first-pass matching comes from a local
# repair that keeps it maximal and free of 3-augmenting paths, with no
# fractional provider; queries replay the live edge set exactly instead of
# sampling it.
DEVIATIONS = ["local-repair-matching", "exact-query-replay"]


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


def _any_pair(rng: random.Random, n: int) -> Edge:
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    return norm_edge(u, v)


def _cross_pair(rng: random.Random, n: int) -> Edge:
    """A pair across the id halves [0, n//2) and [n//2, n)."""
    h = n // 2
    return norm_edge(rng.randrange(h), h + rng.randrange(n - h))


def _fresh_pair(rng: random.Random, n: int, live: Dict[Edge, None],
                pick) -> Optional[Edge]:
    """The first of at most 50n draws of `pick` that is not in `live`, or
    None if every draw is."""
    for _ in range(50 * n):
        e = pick(rng, n)
        if e not in live:
            return e
    return None


def _churn_events(n: int, horizon: int, seed: int, target: int,
                  pick) -> List[UpdateEvent]:
    """Fill toward `target` edges, then churn around it: each step inserts a
    random absent pair or deletes a random present edge."""
    rng = random.Random(seed)
    live: Dict[Edge, None] = {}
    events: List[UpdateEvent] = []
    for _ in range(horizon):
        if len(live) < target or rng.random() < 0.5:
            e = _fresh_pair(rng, n, live, pick)
            if e is not None:
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
    return _churn_events(n, horizon, seed, target, _any_pair)


def gen_random_bipartite(n: int, horizon: int, seed: int,
                         density: float = 0.2) -> List[UpdateEvent]:
    h = n // 2
    target = max(1, int(density * h * (n - h)))
    return _churn_events(n, horizon, seed, target, _cross_pair)


def gen_sliding_window(n: int, horizon: int, seed: int,
                       window: int = 200) -> List[UpdateEvent]:
    """Insert a fresh random pair each step; from step `window` on, first
    delete the pair inserted `window` steps earlier."""
    rng = random.Random(seed)
    live: Dict[Edge, None] = {}
    order: Deque[Edge] = deque()
    events: List[UpdateEvent] = []
    while len(events) < horizon:
        if len(order) >= window:
            e = order.popleft()
            del live[e]
            events.append(UpdateEvent("d", *e))
            if len(events) >= horizon:
                break
        e = _fresh_pair(rng, n, live, _any_pair)
        if e is None:
            raise InvalidParams("window too large for vertex count")
        live[e] = None
        order.append(e)
        events.append(UpdateEvent("i", *e))
    return events


def gen_planted_matching(n: int, horizon: int) -> List[UpdateEvent]:
    """The first `horizon` of floor(n/2) disjoint edges across the id
    halves; maximum matching size is known by construction."""
    h = n // 2
    return [UpdateEvent("i", i, h + i) for i in range(min(h, horizon))]


class AdaptiveAdversary:
    """Update source whose future depends on the published estimates.

    Feedback channel: the single value passed to step(); every read is
    logged. Strategy: grow a bipartite-ish graph; whenever the estimate
    has risen since the previous read and reaches `trigger`, a share of
    n // 2 (no estimate exceeds mu), tear out the edges most recently
    credited (newest inserts, which the maintained structures lean on) and
    re-insert elsewhere. A read that has not risen lets the graph grow, so
    the live edge count climbs to `target` between strikes.
    """

    def __init__(self, n: int, seed: int, batch: int = 20,
                 density: float = 0.2):
        self.n = n
        self.rng = random.Random(seed)
        self.batch = batch
        h = n // 2
        self.target = max(1, int(density * h * (n - h)))
        self.trigger = 0.3 * h
        self.live: Dict[Edge, None] = {}
        # newest inserts, oldest dropped beyond 4 batches
        self.recent: Deque[Edge] = deque(maxlen=4 * batch)
        self.estimate_log: List[float] = []

    def step(self, last_estimate: float) -> List[UpdateEvent]:
        """One batch of updates, shaped by the last published estimate."""
        log = self.estimate_log
        rose = bool(log) and last_estimate > log[-1]
        log.append(last_estimate)
        events: List[UpdateEvent] = []
        aggressive = rose and last_estimate >= self.trigger
        if aggressive and self.live:
            # delete the most recently inserted surviving edges; an edge
            # deleted and inserted again is in `recent` twice, and is
            # deleted once
            kill = list(dict.fromkeys(
                e for e in reversed(self.recent) if e in self.live))
            for e in kill[:self.batch // 2]:
                del self.live[e]
                events.append(UpdateEvent("d", *e))
        while len(events) < self.batch:
            if len(self.live) < self.target:
                e = _fresh_pair(self.rng, self.n, self.live, _cross_pair)
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


def gen_adaptive(n: int, horizon: int, seed: int, density: float,
                 batch: int, cfg: EstimatorConfig) -> List[UpdateEvent]:
    """Realize an AdaptiveAdversary against a live estimator. After each
    batch (the last one cut at `horizon`) the adversary reads the estimate,
    and a `q` marks the read, so `run_stream` replays the stream and
    publishes exactly the values the adversary saw."""
    est = Estimator(n, cfg)
    adv = AdaptiveAdversary(n, seed, batch=batch, density=density)
    events: List[UpdateEvent] = []
    applied = 0
    nu = 0.0
    while applied < horizon:
        updates = adv.step(nu)[:horizon - applied]
        if not updates:
            break
        for ev in updates:
            est.apply(ev)
        events.extend(updates)
        events.append(UpdateEvent("q"))
        applied += len(updates)
        nu = est.estimate().nu
    return events


def generate_workload(workload: str, n: int, seed: int, horizon: int = 1000,
                      density: float = 0.2, window: int = 200,
                      query_every: int = 0,
                      cfg: Optional[EstimatorConfig] = None
                      ) -> List[UpdateEvent]:
    """The update stream of `workload`, with a `q` marker after every
    `query_every` updates (0: none). The adaptive adversary instead reads
    the estimate of `cfg` every `query_every` updates (at least 1), and its
    `q` markers are those reads."""
    if workload not in WORKLOADS:
        raise InvalidParams(f"unknown workload {workload!r}")
    if n < 2 and workload != "planted-matching":
        # every other workload draws vertex pairs
        raise InvalidParams(f"{workload} needs at least 2 vertices")
    if not 0 < density <= 1:
        raise InvalidParams(f"density must be in (0, 1], got {density}")
    if window < 1:
        raise InvalidParams(f"window must be at least 1, got {window}")
    if horizon < 0 or query_every < 0:
        raise InvalidParams("horizon and query_every must be non-negative")
    if workload == "adaptive-adversary":
        if query_every < 1:
            raise InvalidParams("adaptive-adversary needs query_every >= 1")
        if cfg is None:
            cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=seed)
        return gen_adaptive(n, horizon, seed, density, query_every, cfg)
    if workload == "random-er":
        events = gen_random_er(n, horizon, seed, density)
    elif workload == "random-bipartite":
        events = gen_random_bipartite(n, horizon, seed, density)
    elif workload == "sliding-window":
        events = gen_sliding_window(n, horizon, seed, window)
    else:
        events = gen_planted_matching(n, horizon)
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


def run_stream(events: Sequence[UpdateEvent], n: int, cfg: EstimatorConfig,
               oracle_every: int = 0) -> RunResult:
    """Feed events and emit a row at every `q` marker. Every
    `oracle_every`-th row (counting from 1; 0 for none) also carries the
    exact size, unless the oracle is out of range for the graph."""
    if oracle_every < 0:
        raise InvalidParams("oracle_every must be non-negative")
    est = Estimator(n, cfg)
    meta = {
        "type": "meta", "version": REPORT_VERSION, "n": n,
        "mode": cfg.mode, "eps": cfg.eps, "seed": cfg.seed,
        "reps": cfg.reps, "oracle_every": oracle_every,
        "deviations": DEVIATIONS,
    }
    if cfg.mode == "tradeoff":
        meta.update(alpha=ALPHA, b_star=B_STAR, beta=BETA)
    result = RunResult(meta=meta)
    for ev in events:
        if ev.kind != "q":
            est.apply(ev)
            continue
        se = est.estimate()
        row: Dict[str, object] = {
            "type": "row", "t": est.g.ops, "nu": se.nu,
            "m1": se.components["m1"],
        }
        if oracle_every > 0 and (len(result.rows) + 1) % oracle_every == 0:
            mu = _exact_mu(est.g)
            if mu is not None:
                row["mu"] = mu
                row["ratio"] = (mu / se.nu) if se.nu > 0 else None
        result.rows.append(row)
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
                t = obj.get("t")
                if not isinstance(t, int) or isinstance(t, bool):
                    raise MalformedReport(f"line {lineno}: row without an "
                                          "integer update index t")
                for key in ("nu", "mu", "ratio"):
                    val = obj.get(key)
                    # json reads NaN and Infinity; a row's numbers are finite
                    if val is not None and (type(val) not in (int, float)
                                            or not math.isfinite(val)):
                        raise MalformedReport(f"line {lineno}: {key} is "
                                              "neither a finite number nor "
                                              "null")
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


CRITERIA_KEYS = ("ratio_max", "quantile", "ratio_lower")


def summarize(result: RunResult, criteria: Optional[dict] = None) -> dict:
    """Row counts and ratio quantiles; with `criteria`, also `pass`. Raises
    InvalidParams unless `criteria` maps keys among CRITERIA_KEYS to finite
    numbers, with quantile in (0, 1], so a misspelled gate cannot pass. A
    row with nu = 0 below a positive mu has no ratio and counts as outside
    the gate; a row with mu = 0 is not gated."""
    ratios = sorted(r["ratio"] for r in result.rows
                    if r.get("ratio") is not None)
    zero_nu = sum(r.get("ratio") is None and (r.get("mu") or 0) > 0
                  for r in result.rows)
    summary: Dict[str, object] = {
        "rows": len(result.rows),
        "mode": result.meta.get("mode"),
        # rows past the oracle's size range, or off the oracle cadence
        "rows_without_mu": sum(r.get("mu") is None for r in result.rows),
    }
    if ratios:
        summary["ratio_min"] = ratios[0]
        summary["ratio_max"] = ratios[-1]
        summary["ratio_q50"] = _quantile(ratios, 0.5)
        summary["ratio_q99"] = _quantile(ratios, 0.99)
    if criteria is not None:
        if not isinstance(criteria, dict):
            raise InvalidParams("criteria must be a JSON object")
        for key, val in criteria.items():
            if key not in CRITERIA_KEYS:
                raise InvalidParams(f"unknown criterion {key!r}")
            if type(val) not in (int, float) or not math.isfinite(val):
                raise InvalidParams(f"criterion {key} must be a finite number")
        ok = True
        bound = criteria.get("ratio_max")
        quantile = criteria.get("quantile", 0.99)
        if not 0 < quantile <= 1:
            raise InvalidParams("quantile must be in (0, 1]")
        lower = criteria.get("ratio_lower", 1.0)
        if bound is not None:
            gated = len(ratios) + zero_nu
            within = sum(lower - 1e-9 <= r <= bound + 1e-9 for r in ratios)
            ok = gated > 0 and within >= quantile * gated
        summary["pass"] = ok
    return summary
