"""The benchmark's four workloads: generation, set-up, replay and references.

Every workload is a closed loop driven by one caller in one thread: the next
update or estimate is issued only after the previous call has returned. The
inputs are a deterministic function of the seed, and the package receives
nothing but the generated events. README.md in this directory says why each
workload was chosen.

The references are independent of the served path and run outside every
timed span:

- `oracles.max_matching_size` (Hopcroft-Karp when bipartite, networkx blossom
  for at most 64 touched vertices) for `bip-churn-300` and `gen-query-60`;
- networkx `max_weight_matching(maxcardinality=True)`, per connected
  component with a cache of unchanged components, for `gen-sparse-8192`;
- `sublinear.exact_pair_matched_count`, the materialized-supergraph count,
  for `sublinear-pair-8`.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

import speed
from dynmatch import oracles, sublinear
from dynmatch.estimator import Estimator, EstimatorConfig
from dynmatch.graph import DynamicGraph, Matching, UpdateEvent, norm_edge
from dynmatch.harness import generate_workload

TOL = 1e-9
ESTIMATOR_SEED = 1
# alpha of each mode without its eps term (README: 1 + 1/sqrt(2), 1.973)
ALPHA = {"bipartite": 1.0 + 1.0 / math.sqrt(2.0), "general": 1.973}


class Round:
    """What one replay served, when each served call started and ended, and
    the host-speed samples taken meanwhile."""

    def __init__(self):
        self.updates: List[Tuple[int, int]] = []
        self.estimates: List[Tuple[int, int]] = []
        self.served: List[Optional[float]] = []
        self.attempted = 0
        self.errors = 0
        self.first_error: Optional[str] = None
        self.sampler = speed.Sampler()

    def fail(self, exc: Exception) -> None:
        self.errors += 1
        if self.first_error is None:
            self.first_error = f"{type(exc).__name__}: {exc}"

    @property
    def replay_ns(self) -> int:
        """Unscaled wall time inside served calls."""
        return sum(b - a for a, b in self.updates + self.estimates)

    def scaled_updates(self) -> List[float]:
        return self.sampler.scaled(self.updates)

    def scaled_estimates(self) -> List[float]:
        return self.sampler.scaled(self.estimates)

    def scaled_replay_ns(self) -> float:
        return sum(self.scaled_updates()) + sum(self.scaled_estimates())


class Checks:
    """Served values against the reference at each checkpoint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lower_bound_broken = 0
        self.ratios: List[float] = []

    @property
    def pass_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def digest(lines: Sequence[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- dynamic estimator workloads ---------------------------------------------


@dataclass(frozen=True)
class DynamicWorkload:
    """A harness-generated update stream with `q` markers, replayed against
    `Estimator.apply`/`Estimator.estimate`."""

    name: str
    generator: str
    mode: str
    n: int
    density: float
    eps: float
    reps: int
    horizon: int
    query_every: int
    check_every: int        # reference at every check_every-th estimate
    reference_kind: str     # "oracles" or "networkx"
    gate: float             # share of checkpoints that must pass

    def generate(self, seed: int) -> List[UpdateEvent]:
        return generate_workload(self.generator, self.n, seed,
                                 horizon=self.horizon, density=self.density,
                                 query_every=self.query_every)

    @staticmethod
    def lines(events: Sequence[UpdateEvent]) -> List[str]:
        return [f"{ev.kind} {ev.u} {ev.v}" for ev in events]

    def setup(self) -> Estimator:
        """The estimator under test. Its own seed is fixed, so the workload
        seed moves only the event stream: with the estimator seed drawn
        from the workload seed, the contraction hashes alone changed the
        per-estimate cost of bip-churn-300 by up to 1.9x between seeds."""
        return Estimator(self.n, EstimatorConfig(
            mode=self.mode, eps=self.eps, seed=ESTIMATOR_SEED,
            reps=self.reps))

    @staticmethod
    def own_graph(est: Estimator) -> DynamicGraph:
        return est.g

    @staticmethod
    def replay(est: Estimator, events: Sequence[UpdateEvent]) -> Round:
        rec = Round()
        clock = time.perf_counter_ns
        apply, estimate = est.apply, est.estimate
        with rec.sampler.running():
            for ev in events:
                rec.attempted += 1
                if ev.kind == "q":
                    t0 = clock()
                    try:
                        se = estimate()
                    except Exception as exc:  # counted as a failed operation
                        rec.fail(exc)
                        rec.served.append(None)
                        continue
                    rec.estimates.append((t0, clock()))
                    rec.served.append(se.nu)
                else:
                    t0 = clock()
                    try:
                        apply(ev)
                    except Exception as exc:  # counted as a failed operation
                        rec.fail(exc)
                        continue
                    rec.updates.append((t0, clock()))
        return rec

    def reference(self, events: Sequence[UpdateEvent],
                  span) -> List[Optional[int]]:
        """Exact maximum matching size at every check_every-th estimate
        (None at the estimates in between)."""
        out: List[Optional[int]] = []
        if self.reference_kind == "oracles":
            g = DynamicGraph(self.n)
            name = "oracles.max_matching"

            def exact() -> int:
                return oracles.max_matching_size(g)

            update = g.apply
        else:
            gx = nx.Graph()
            cache: Dict[frozenset, int] = {}
            name = "reference.networkx"

            def exact() -> int:
                return _component_matching_size(gx, cache)

            def update(ev: UpdateEvent) -> None:
                if ev.kind == "i":
                    gx.add_edge(ev.u, ev.v)
                else:
                    gx.remove_edge(ev.u, ev.v)
        for ev in events:
            if ev.kind != "q":
                update(ev)
                continue
            if len(out) % self.check_every == 0:
                with span(name):
                    out.append(exact())
            else:
                out.append(None)
        return out

    def check(self, served: Sequence[Optional[float]],
              ref: Sequence[Optional[int]]) -> Checks:
        """nu <= mu <= alpha * nu at each checkpoint; ratio mu/nu."""
        bound = ALPHA[self.mode] + self.eps
        ck = Checks()
        for nu, mu in zip(served, ref):
            if mu is None:
                continue
            ck.attempted += 1
            if nu is None:
                ck.failed += 1
                continue
            if nu > mu + TOL:
                ck.lower_bound_broken += 1
            if mu == 0 and nu == 0:
                ck.ratios.append(1.0)
                continue
            if nu <= 0 or nu > mu + TOL or mu > bound * nu + TOL:
                ck.failed += 1
            if nu > 0:
                ck.ratios.append(mu / nu)
        return ck


def _component_matching_size(gx: nx.Graph, cache: Dict[frozenset, int]) -> int:
    """Maximum matching size as the sum over connected components, each
    solved by networkx blossom once per distinct edge set."""
    total = 0
    for comp in nx.connected_components(gx):
        if len(comp) == 2:
            total += 1
            continue
        sub = gx.subgraph(comp)
        key = frozenset(norm_edge(u, v) for u, v in sub.edges())
        size = cache.get(key)
        if size is None:
            size = len(nx.max_weight_matching(sub, maxcardinality=True))
            cache[key] = size
        total += size
    return total


# -- sublinear pair-matched workload -----------------------------------------


_UNLIMITED = sublinear.QueryBudget(max_probes=None)


@dataclass(frozen=True)
class PairWorkload:
    """`estimate_pair_matched` on the 8-vertex graph holding the k disjoint
    edges of M* = {(i, k+i)}, over a fixed list of estimator seeds.

    Before each call a seeded burst of updates inserts and deletes spare
    pairs and ends with the graph back at M* alone, so every call sees the
    same graph and only the update path depends on the workload seed."""

    name: str
    n: int
    k: int
    eps: float
    sample_constant: float
    call_seeds: Tuple[int, ...]
    burst: int              # updates before each call
    gate: float

    def generate(self, seed: int) -> list:
        """Ops: UpdateEvent for updates, int (an estimator seed) for calls."""
        rng = random.Random(seed)
        mstar = {(i, self.k + i) for i in range(self.k)}
        spare = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                 if (u, v) not in mstar]
        ops: list = []
        for call_seed in self.call_seeds:
            live: List[Tuple[int, int]] = []
            left = self.burst
            while left > len(live):
                if live and (len(live) >= self.k or rng.random() < 0.5):
                    e = live.pop(rng.randrange(len(live)))
                    ops.append(UpdateEvent("d", *e))
                else:
                    e = rng.choice([p for p in spare if p not in live])
                    live.append(e)
                    ops.append(UpdateEvent("i", *e))
                left -= 1
            for e in live:
                ops.append(UpdateEvent("d", *e))
            ops.append(call_seed)
        return ops

    @staticmethod
    def lines(ops: Sequence) -> List[str]:
        return [f"q {op}" if isinstance(op, int) else f"{op.kind} {op.u} {op.v}"
                for op in ops]

    def setup(self) -> Tuple[DynamicGraph, Matching]:
        g = DynamicGraph(self.n)
        for i in range(self.k):
            g.insert(i, self.k + i)
        return g, Matching([(i, self.k + i) for i in range(self.k)])

    @staticmethod
    def own_graph(state) -> DynamicGraph:
        return state[0]

    def replay(self, state, ops: Sequence) -> Round:
        g, mstar = state
        rec = Round()
        clock = time.perf_counter_ns
        apply = g.apply
        eps, const = self.eps, self.sample_constant
        # looked up here so that a traced replay calls the wrapper; this loop
        # mirrors DynamicWorkload.replay rather than sharing it, so that no
        # extra call sits inside the timed spans of sub-microsecond updates
        estimate = sublinear.estimate_pair_matched
        with rec.sampler.running():
            for op in ops:
                rec.attempted += 1
                if isinstance(op, int):
                    t0 = clock()
                    try:
                        kappa = estimate(g, mstar, eps, op,
                                         sample_constant=const,
                                         budget=_UNLIMITED,
                                         force_sampling=True)
                    except Exception as exc:  # counted as a failed operation
                        rec.fail(exc)
                        rec.served.append(None)
                        continue
                    rec.estimates.append((t0, clock()))
                    rec.served.append(kappa)
                else:
                    t0 = clock()
                    try:
                        apply(op)
                    except Exception as exc:  # counted as a failed operation
                        rec.fail(exc)
                        continue
                    rec.updates.append((t0, clock()))
        return rec

    def reference(self, ops: Sequence, span) -> List[int]:
        """Exact pair-matched count at every call."""
        g, mstar = self.setup()
        cache: Dict[tuple, int] = {}
        out = []
        for op in ops:
            if not isinstance(op, int):
                g.apply(op)
                continue
            key = (op, tuple(sorted(g.edges())))
            if key not in cache:
                with span("sublinear.reference"):
                    cache[key] = sublinear.exact_pair_matched_count(
                        g, mstar, self.eps, op)
            out.append(cache[key])
        return out

    def check(self, served: Sequence[Optional[float]],
              ref: Sequence[int]) -> Checks:
        """exact - eps^2 n <= kappa <= exact at every call. The ratio is
        (exact + w) / (kappa + w) with w = eps^2 n, the window width: 1 when
        kappa is exact, lower is better, as with mu/nu."""
        w = self.eps ** 2 * self.n
        ck = Checks()
        for kappa, exact in zip(served, ref):
            ck.attempted += 1
            if kappa is None:
                ck.failed += 1
                continue
            if kappa > exact + TOL:
                ck.lower_bound_broken += 1
            if not (exact - w - TOL <= kappa <= exact + TOL):
                ck.failed += 1
            ck.ratios.append((exact + w) / (kappa + w))
        return ck


WORKLOADS = {wl.name: wl for wl in (
    DynamicWorkload(
        name="bip-churn-300", generator="random-bipartite", mode="bipartite",
        n=300, density=0.1, eps=0.2, reps=25, horizon=6000, query_every=10,
        check_every=5, reference_kind="oracles", gate=0.99),
    DynamicWorkload(
        name="gen-query-60", generator="random-er", mode="general",
        n=60, density=0.15, eps=0.25, reps=25, horizon=2000, query_every=1,
        check_every=20, reference_kind="oracles", gate=0.99),
    DynamicWorkload(
        name="gen-sparse-8192", generator="random-er", mode="general",
        n=8192, density=4.0 / 8191, eps=0.3, reps=1, horizon=500,
        query_every=10, check_every=1, reference_kind="networkx", gate=0.99),
    PairWorkload(
        name="sublinear-pair-8", n=8, k=4, eps=0.5, sample_constant=4,
        call_seeds=(0, 1, 2, 3), burst=4000, gate=0.95),
)}
