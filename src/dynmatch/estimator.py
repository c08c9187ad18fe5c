"""Top-level dynamic matching-size estimators.

Every estimate queries the live graph, with the maintained approximately-
maximal matching as the first matching M1, through the two-pass machinery:
the bipartite mixing formula (floored at |M1|, which is itself a certified
lower bound), the bipartition/b-matching count for general graphs, and the
matching combiner for the approximation/maximality tradeoff.

The paper's hash-contracted graph copies stay below as a tested library.
They exist so that a sampled query costs time tracking mu; here queries
replay the live edge set exactly, so on the served path they would only add
routing work to every update.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import DynamicGraph, Edge, Matching, UpdateEvent, norm_edge
from . import oracles
from .amm import AMMMaintainer, DynamicMaximalMatching
# random_bipartition is imported for callers that look it up in this module,
# such as the benchmark's tracer
from .streaming import (B_GENERAL, Boundary, SecondPassConfig, coin_word,
                        random_bipartition, second_pass_bipartite,
                        second_pass_general)


# Tradeoff mode improves an alpha-approximate matching provider. Its provider
# is the built-in maximal matching, so alpha = 2. With c = 1/alpha - 1/2 the
# paper's constants are b* = ceil(16 (1 + 2c) / (1 - 6c)) and
# gain = 9 (1 - 6c)^2 / (2312 (1 + 2c)); at alpha = 2, c = 0.
ALPHA = 2.0
B_STAR = 16
GAIN = 9 / 2312
BETA = ALPHA - GAIN


@dataclass
class EstimatorConfig:
    """Mode, precision, seeding and repetitions.

    `reps` is the number of bipartition draws averaged per general or
    tradeoff estimate. It changes no bipartite value: that value is
    deterministic, and its `rep_values` is `[nu] * reps`. General mode
    draws with b = `B_GENERAL`, tradeoff mode with b = `B_STAR`."""

    mode: str
    eps: float
    seed: int = 0
    reps: int = 1

    def __post_init__(self):
        if self.mode not in ("bipartite", "general", "tradeoff"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # rejects an eps outside (0, 1), NaN included
        self.spc = SecondPassConfig.bipartite(self.eps)
        # a float would fail only in an estimate, and a bool is no count
        for name in ("seed", "reps"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name}={value!r} is not an integer")
        if self.reps < 1:
            raise ValueError("repetition count must be >= 1")


@dataclass
class SizeEstimate:
    nu: float
    timestamp: int
    components: Dict[str, object] = field(default_factory=dict)
    rep_values: List[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.nu >= 0.0:
            raise ValueError(f"size estimate must be >= 0, got {self.nu}")


# -- contraction family ----------------------------------------------------


_HASH_PRIME = (1 << 61) - 1


class ContractedMember:
    """One contracted copy: vertices hashed into buckets, an edge between two
    buckets exists iff its preimage multiset is nonempty. Bucket self-pairs
    are suppressed. A locally repaired maximal matching supplies the member's
    first matching."""

    def __init__(self, scale: int, buckets: int, seed: int):
        self.scale = scale
        self.buckets = buckets
        rng = random.Random(seed)
        self._a = rng.randrange(1, _HASH_PRIME)
        self._b = rng.randrange(_HASH_PRIME)
        self.cg = DynamicGraph(buckets)
        self.pre: Dict[Edge, int] = {}
        self.matcher = DynamicMaximalMatching(self.cg)
        self.cg.register(self.matcher)

    def bucket(self, v: int) -> int:
        return ((self._a * v + self._b) % _HASH_PRIME) % self.buckets

    def apply(self, ev: UpdateEvent) -> None:
        bu, bv = self.bucket(ev.u), self.bucket(ev.v)
        if bu == bv:
            return
        key = norm_edge(bu, bv)
        if ev.kind == "i":
            self.pre[key] = self.pre.get(key, 0) + 1
            if self.pre[key] == 1:
                self.cg.insert(*key)
        elif ev.kind == "d":
            self.pre[key] -= 1
            if self.pre[key] == 0:
                del self.pre[key]
                self.cg.delete(*key)

    def preimage_audit(self, g: DynamicGraph) -> bool:
        """Full-sweep check: preimage multiplicities match the live graph."""
        fresh: Dict[Edge, int] = {}
        for (u, v) in g.edges():
            bu, bv = self.bucket(u), self.bucket(v)
            if bu != bv:
                key = norm_edge(bu, bv)
                fresh[key] = fresh.get(key, 0) + 1
        if fresh != self.pre:
            return False
        return set(fresh) == set(self.cg.edges())


class ContractionFamily:
    """Members at scales k = ceil((1+eps)^j); a member's bucket count is
    min(n, ceil(k/eps_b)) with eps_b = eps/16. Scales whose bucket count
    reaches n are identity contractions and need no copy, so only the few
    smallest scales materialize. Registered as a graph listener; each update
    routes to every member."""

    REPS_PER_SCALE = 3

    def __init__(self, n: int, eps: float, seed: int):
        self.n = n
        self.eps = eps
        self.eps_b = eps / 16.0
        self.members: List[ContractedMember] = []
        scales: List[int] = []
        k = 1
        j = 0
        limit = max(1, n // 2)
        while k <= limit:
            if k not in scales:
                scales.append(k)
            j += 1
            k = math.ceil((1 + eps) ** j)
        for k in scales:
            buckets = min(n, math.ceil(k / self.eps_b))
            if buckets >= n:
                continue
            for r in range(self.REPS_PER_SCALE):
                self.members.append(ContractedMember(
                    k, buckets, seed * 7919 + k * 131 + r))

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        if ev.kind == "q":
            return
        for mem in self.members:
            mem.apply(ev)

    def audit(self, g: DynamicGraph) -> bool:
        return all(mem.preimage_audit(g) for mem in self.members)


# -- mode queries ----------------------------------------------------------


def bipartite_query(g: DynamicGraph, m1: Matching, spc: SecondPassConfig
                    ) -> Tuple[float, float, int]:
    """(nu, psi, reads): nu = (1-delta)|M1| + (delta/k)*psi, with psi = |M2|
    computed exactly by the saturating second pass over the live edge set
    (query-time replay), and `reads` the edge and vertex reads spent. Only a
    mix above |M1| is worth certifying, so only then does the query 2-colour
    the graph; if it is not 2-colourable the query returns (|M1|, 0), still
    a valid lower bound. Costs O(m), plus O(n + m) when it colours."""
    nu, m2 = second_pass_bipartite(g.edges(), m1, spc)
    if nu <= len(m1):
        return nu, float(m2.size), g.m
    reads = 2 * g.m + g.n
    if oracles.bipartition(g) is None:
        return float(len(m1)), 0.0, reads
    return nu, float(m2.size), reads


def general_query(g: DynamicGraph, m1: Matching, b: int,
                  seeds: Sequence[int], reps: int
                  ) -> Tuple[List[Tuple[float, int]], int]:
    """([(|M1| + kappa/b, kappa) per repetition], reads), with kappa =
    |M1_hat|, the number of M1 edges whose endpoints both got matched in the
    second pass (a subset of M1, so kappa <= |M1|). Deterministically
    <= mu(g): at least kappa/b of those edges carry vertex-disjoint
    3-augmenting paths (`streaming.disjoint_augmenting_paths`). One
    boundary, built in one O(m) read of the live edges, serves every
    repetition.

    Repetition r draws from block r // 64, whose seed is `seeds[r // 64]`:
    each block computes one word per free boundary vertex from (seed,
    vertex id) (`streaming.coin_word`), and r's coin for that vertex is
    bit 63 - r % 64 of its word. Repetition 0's coin is thus
    `streaming.coin(seeds[0], v)`. Only each distinct pattern of coins
    runs the O(|B|) pass (`streaming.second_pass_general`); repetitions
    with equal coins share its kappa. `reads` charges the m edges, |free|
    coins per repetition, and the boundary entries of every draw that ran.
    There must be exactly one seed per block of 64 repetitions, else
    ValueError."""
    if reps < 1 or len(seeds) != -(-reps // 64):
        raise ValueError(f"{len(seeds)} seeds for {reps} repetitions")
    boundary = Boundary(g.edges(), m1)
    free = boundary.free
    size = len(m1)
    kappas: Dict[Tuple[int, ...], int] = {}  # coin pattern -> kappa
    out = []
    for q, seed in enumerate(seeds):
        words = [coin_word(seed, v) for v in free]
        for r in range(64 * q, min(reps, 64 * q + 64)):
            shift = 63 - r % 64
            coins = tuple([w >> shift & 1 for w in words])
            kappa = kappas.get(coins)
            if kappa is None:
                kappa = kappas[coins] = second_pass_general(
                    boundary, coins, b)[1]
            out.append((size + kappa / b, kappa))
    return out, g.m + reps * len(free) + len(kappas) * len(boundary.edges)


def combine_amm_and_alpha(m_prime: Matching, m_second: Matching) -> Matching:
    """Per connected component of the union (alternating paths/cycles), keep
    the side with more edges in it, ties to m_prime. The output is a matching
    with |out| >= |m_second| that covers every vertex of m_prime.

    A vertex has at most one partner in each matching, so each component is
    walked through the two partner maps, and a side's matched vertices in it
    are twice its edges there. The kept edges come in each input's order,
    m_prime's first."""
    pp, ps = m_prime.partner, m_second.partner
    keep_prime: Dict[int, bool] = {}  # vertex -> its component keeps m_prime
    for start in pp:
        if start in keep_prime:
            continue
        comp = [start]
        keep_prime[start] = True
        for v in comp:  # grows as the walk reaches new vertices
            for w in (pp.get(v), ps.get(v)):
                if w is not None and w not in keep_prime:
                    keep_prime[w] = True
                    comp.append(w)
        keep = sum(v in pp for v in comp) >= sum(v in ps for v in comp)
        for v in comp:
            keep_prime[v] = keep
    # a component m_prime does not reach holds m_second's edges only
    out = Matching(e for e in m_prime.edges() if keep_prime[e[0]])
    for (u, v) in m_second.edges():
        if not keep_prime.get(u, False):
            out.add(u, v)
    return out


# -- top level -------------------------------------------------------------


def _mix(seed: int, block: int, stamp: int) -> int:
    """The coin seed of repetitions 64*block .. 64*block + 63 of the
    estimate at `stamp`."""
    return (seed * 0x9E3779B97F4A7C15 + block * 0xC2B2AE3D + stamp) & (
        2**63 - 1)


class Estimator:
    """Dynamic size estimator: owns the graph, the matching maintainer, and
    (in tradeoff mode) the alpha-approximate provider, a second maximal
    matching (alpha = 2), whose bound the combination improves to `BETA`.

    estimate() is read-only, available after every update, and queries the
    live graph at most once, with the maintained matching as M1 (combined
    with the provider's matching in tradeoff mode). In bipartite mode it
    serves max((1-delta)|M1| + (delta/k)|M2|, |M1|): both terms are at most mu
    because M1 is a live matching, and the max is at least the paper's
    value, so its approximation bound stands. `components["bound"]` names
    the term that served ("mix" or "m1"). Before any query, an exact O(1)
    check bounds |M2| by free_cap times the free vertices; when even that
    mix is at most |M1|, |M1| is served with no query and no `psi`."""

    def __init__(self, n: int, cfg: EstimatorConfig):
        self.cfg = cfg
        self.g = DynamicGraph(n)
        self.amm = AMMMaintainer(self.g, eps=cfg.eps)
        self.g.register(self.amm)
        self.query_work = 0
        self.alpha_source: Optional[DynamicMaximalMatching] = None
        if cfg.mode == "tradeoff":
            # the provider: a maximal matching is a 2-approximation
            self.alpha_source = DynamicMaximalMatching(self.g)
            self.g.register(self.alpha_source)

    def insert(self, u: int, v: int) -> None:
        self.g.insert(u, v)

    def delete(self, u: int, v: int) -> None:
        self.g.delete(u, v)

    def apply(self, ev: UpdateEvent) -> None:
        self.g.apply(ev)

    def total_work(self) -> int:
        """Aggregate touch count: maintainer, provider and query work — the
        per-update cost measure of the scaling report."""
        work = self.amm.work + self.query_work
        if self.alpha_source is not None:
            work += self.alpha_source.work
        return work

    # -- queries -----------------------------------------------------------

    def _live_matching(self) -> Matching:
        m1 = self.amm.matching()
        if self.alpha_source is not None:
            return combine_amm_and_alpha(m1, self.alpha_source.m)
        return m1

    def _value(self, m1: Matching, stamp: int
               ) -> Tuple[float, List[float], Dict[str, object]]:
        cfg, g = self.cfg, self.g
        if cfg.mode == "bipartite":
            size = len(m1)
            nu, comp = float(size), {"m1": size, "bound": "m1"}
            # each free vertex holds at most free_cap M2 copies, and the mix
            # is monotone in |M2|: if even that many cannot lift it above
            # |M1|, no second pass can
            spc = cfg.spc
            if spc.mix(size, spc.free_cap * (g.n - 2 * size)) <= size:
                self.query_work += 1
            else:
                mix, comp["psi"], reads = bipartite_query(g, m1, spc)
                self.query_work += reads
                if mix > size:
                    nu, comp["bound"] = mix, "mix"
            # each draw is deterministic; repetitions agree, median = value
            return nu, [nu] * cfg.reps, comp
        b = B_GENERAL if cfg.mode == "general" else B_STAR
        seeds = [_mix(cfg.seed, q, stamp) for q in range(-(-cfg.reps // 64))]
        draws, reads = general_query(g, m1, b, seeds, cfg.reps)
        self.query_work += reads
        vals = [nu_r for nu_r, _ in draws]
        return (statistics.fmean(vals), vals,
                {"m1": len(m1), "kappa": draws[-1][1]})

    def estimate(self) -> SizeEstimate:
        stamp = self.g.ops
        nu, reps, comp = self._value(self._live_matching(), stamp)
        return SizeEstimate(nu, stamp, comp, reps)
