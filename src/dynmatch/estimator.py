"""Top-level dynamic matching-size estimators.

A contraction family routes every update to a set of contracted copies of the
graph at geometrically spaced scales; the maximum estimate over the copies that
clear their size thresholds is served. A copy's value can never exceed a fixed
multiple of its first matching's size, so copies are queried largest matching
first and the scan stops once that bound falls below the best value found.
Queries reuse the two-pass machinery: the bipartite mixing formula, the
bipartition/b-matching count for general graphs, and the matching combiner for
the approximation/maximality tradeoff.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graph import DynamicGraph, Edge, Matching, UpdateEvent, norm_edge
from . import oracles
from .amm import AMMMaintainer, DynamicMaximalMatching
from .streaming import (B_GENERAL, SecondPassConfig, random_bipartition,
                        second_pass_bipartite, second_pass_general)


class AlphaOutOfRange(Exception):
    pass


MIN_TRADEOFF_GAIN = 1e-4


@dataclass
class EstimatorConfig:
    """Mode, precision and seeding, plus the mode's derived constants."""

    mode: str
    eps: float
    seed: int = 0
    reps: int = 1
    alpha: float = 2.0
    contraction_reps: int = 3

    def __post_init__(self):
        if self.mode not in ("bipartite", "general", "tradeoff"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.eps < 1.0:  # also rejects NaN
            raise ValueError(f"eps={self.eps} outside (0, 1)")
        if self.reps < 1:
            raise ValueError("repetition count must be >= 1")
        self.spc = SecondPassConfig.bipartite(self.eps)
        self.b_general = B_GENERAL
        if self.mode == "tradeoff":
            if not (1.5 < self.alpha <= 2.0):
                raise AlphaOutOfRange(f"alpha={self.alpha} outside (1.5, 2]")
            c = 1.0 / self.alpha - 0.5
            self.c = c
            self.b_star = math.ceil(16.0 * (1 + 2 * c) / (1 - 6 * c))
            self.gain = 9.0 * (1 - 6 * c) ** 2 / (2312.0 * (1 + 2 * c))
            if self.gain < MIN_TRADEOFF_GAIN:
                raise AlphaOutOfRange(
                    f"alpha={self.alpha} leaves no usable gain")
            self.beta = self.alpha - self.gain


@dataclass
class SizeEstimate:
    nu: float
    timestamp: int
    components: Dict[str, float] = field(default_factory=dict)
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
    running size estimate. `last_served_at` is refreshed at every estimate
    that serves the member; `last_value` only when the estimate queries it,
    which it skips once the member cannot beat the best value."""

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
        self.last_value = 0.0
        self.last_served_at = -1

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

    def mu_tilde(self) -> int:
        return 2 * len(self.matcher.m)

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
    reaches n are identity contractions and collapse into the single shared
    live graph, so only the few smallest scales materialize. Registered as a
    graph listener; each update routes to every member."""

    def __init__(self, n: int, eps: float, seed: int,
                 reps_per_scale: int = 3):
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
        self.identity_scales: List[int] = []
        for k in scales:
            buckets = min(n, math.ceil(k / self.eps_b))
            if buckets >= n:
                self.identity_scales.append(k)
                continue
            for r in range(reps_per_scale):
                self.members.append(ContractedMember(
                    k, buckets, seed * 7919 + k * 131 + r))
        self.identity_threshold = n * self.eps_b
        self.work = 0

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        if ev.kind == "q":
            return
        self.work += 1 + len(self.members)
        for mem in self.members:
            mem.apply(ev)

    def served_members(self) -> List[ContractedMember]:
        out = []
        for mem in self.members:
            if mem.mu_tilde() >= mem.buckets * self.eps_b:
                out.append(mem)
        return out

    def audit(self, g: DynamicGraph) -> bool:
        return all(mem.preimage_audit(g) for mem in self.members)


# -- mode queries ----------------------------------------------------------


def bipartite_query(g: DynamicGraph, m1: Matching,
                    spc: SecondPassConfig) -> Tuple[float, float]:
    """(1-delta)|M1| + (delta/k)*psi with psi computed exactly by the
    saturating second pass over the live edge set (query-time replay). Falls
    back to |M1| if the graph is not 2-colorable (contracted copies can lose
    bipartiteness); that is still a valid lower bound."""
    if oracles.bipartition(g) is None:
        return float(len(m1)), 0.0
    nu, m2 = second_pass_bipartite(g.snapshot_edges(), m1, spc)
    return nu, float(m2.size)


def general_query(g: DynamicGraph, m1: Matching, b: int,
                  seed: int) -> Tuple[float, int]:
    """|M1| + kappa/b for one bipartition draw, with kappa the exact count of
    M1 edges whose endpoints both got matched in the second pass (clamped to
    |M1|). Deterministically <= mu(g): those kappa edges host vertex-disjoint
    augmenting structure worth at least kappa/b extra matching size."""
    part = random_bipartition(m1, g.n, seed)
    _, m1_hat = second_pass_general(g.snapshot_edges(), m1, part, b)
    kappa = min(len(m1_hat), len(m1))
    return len(m1) + kappa / b, kappa


def combine_amm_and_alpha(m_prime: Matching, m_second: Matching) -> Matching:
    """Per connected component of the union (alternating paths/cycles), keep
    the side with more edges in it, ties to m_prime. The output is a matching
    with |out| >= |m_second| that covers every vertex of m_prime."""
    parent: Dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(v, v) != v:
            parent[v], v = root, parent[v]
        return root

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    for m in (m_prime, m_second):
        for (u, v) in m.edges():
            union(u, v)
    count: Dict[int, List[int]] = {}
    for idx, m in enumerate((m_prime, m_second)):
        for (u, v) in m.edges():
            c = count.setdefault(find(u), [0, 0])
            c[idx] += 1
    out = Matching()
    for (u, v) in m_prime.edges():
        c = count[find(u)]
        if c[0] >= c[1]:
            out.add(u, v)
    for (u, v) in m_second.edges():
        c = count[find(u)]
        if c[1] > c[0] and norm_edge(u, v) not in out:
            out.add(u, v)
    return out


# -- top level -------------------------------------------------------------


def _mix(seed: int, rep: int, stamp: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + rep * 0xC2B2AE3D + stamp) & (2**63 - 1)


class Estimator:
    """Dynamic size estimator: owns the graph, the matching maintainer, the
    contraction family, and (in tradeoff mode) the 2-approximation source.

    estimate() is read-only, available after every update, and serves the
    maximum over the identity scale and the members above their size
    thresholds. The identity is queried first when it clears its threshold;
    members follow in descending order of first-matching size, and the scan
    stops at the first member whose `_value_bound` is below the best value,
    since no later member can reach it. Ties go to the identity, then to the
    earliest member in `served_members()` order, so the served estimate is
    the one a full scan in that order would serve. When every member is
    below threshold but the graph is nonempty, the live graph is queried
    anyway and the estimate flagged (threshold hysteresis window)."""

    def __init__(self, n: int, cfg: EstimatorConfig):
        self.cfg = cfg
        self.g = DynamicGraph(n)
        self.amm = AMMMaintainer(self.g, eps=cfg.eps)
        self.g.register(self.amm)
        self.family = ContractionFamily(n, cfg.eps, cfg.seed,
                                        cfg.contraction_reps)
        self.g.register(self.family)
        self.query_work = 0
        self.alpha_source: Optional[DynamicMaximalMatching] = None
        if cfg.mode == "tradeoff":
            # stub provider: a maximal matching is a 2-approximation
            self.alpha_source = DynamicMaximalMatching(self.g)
            self.g.register(self.alpha_source)

    def insert(self, u: int, v: int) -> None:
        self.g.insert(u, v)

    def delete(self, u: int, v: int) -> None:
        self.g.delete(u, v)

    def apply(self, ev: UpdateEvent) -> None:
        self.g.apply(ev)

    def total_work(self) -> int:
        """Aggregate touch count: maintainer, routing, and query work — the
        per-update cost measure of the scaling report."""
        return self.amm.work + self.family.work + self.query_work

    # -- queries -----------------------------------------------------------

    def _member_value(self, graph: DynamicGraph, m1: Matching,
                      stamp: int) -> Tuple[float, List[float], Dict[str, float]]:
        cfg = self.cfg
        if cfg.mode == "bipartite":
            self.query_work += graph.m + graph.n
            nu, psi = bipartite_query(graph, m1, cfg.spc)
            # each draw is deterministic; repetitions agree, median = value
            return nu, [nu] * cfg.reps, {"m1": len(m1), "psi": psi}
        b = cfg.b_general if cfg.mode == "general" else cfg.b_star
        # a general pass touches the edges and the matched ids, not all of [n]
        self.query_work += (graph.m + len(m1)) * cfg.reps
        vals = []
        last_kappa = 0
        for r in range(cfg.reps):
            nu_r, last_kappa = general_query(
                graph, m1, b, _mix(cfg.seed, r, stamp))
            vals.append(nu_r)
        return (statistics.fmean(vals), vals,
                {"m1": len(m1), "kappa": last_kappa})

    def _value_bound(self, m1_size: int) -> float:
        """An upper bound on any value `_member_value` returns for a first
        matching of m1_size edges. General and tradeoff modes: each
        repetition is |M1| + kappa/b with kappa <= |M1|. Bipartite mode: each
        M2 copy uses a unit of cap k at one of the 2|M1| matched vertices, so
        (1-delta)|M1| + (delta/k)|M2| <= (1+delta)|M1|; the odd-cycle
        fallback is |M1|. The 1e-9 relative margin covers the rounding of the
        value's float arithmetic."""
        cfg = self.cfg
        if cfg.mode == "bipartite":
            growth = 1.0 + cfg.spc.delta
        else:
            b = cfg.b_general if cfg.mode == "general" else cfg.b_star
            growth = 1.0 + 1.0 / b
        return growth * m1_size * (1.0 + 1e-9)

    def _live_matching(self) -> Matching:
        m1 = self.amm.matching()
        if self.cfg.mode == "tradeoff" and self.alpha_source is not None:
            return combine_amm_and_alpha(m1, self.alpha_source.m)
        return m1

    def estimate(self) -> SizeEstimate:
        stamp = self.g.ops
        if self.g.m == 0:
            return SizeEstimate(0.0, stamp)
        best = 0.0
        best_reps: List[float] = []
        best_comp: Dict[str, float] = {}
        # list position of the winner: -1 for the identity, None for none yet
        best_pos: Optional[int] = None
        identity_served = (2 * len(self.amm.matching())
                           >= self.family.identity_threshold)
        if identity_served:
            nu, reps, comp = self._member_value(
                self.g, self._live_matching(), stamp)
            comp["scale"] = -1
            best, best_reps, best_comp, best_pos = nu, reps, comp, -1
        served = self.family.served_members()
        for mem in served:
            mem.last_served_at = stamp
        # largest first matchings first (stable): once a member's bound is
        # below the best value, so is every later member's
        order = sorted(range(len(served)),
                       key=lambda i: -len(served[i].matcher.m))
        for pos in order:
            mem = served[pos]
            if self._value_bound(len(mem.matcher.m)) < best:
                break
            nu, reps, comp = self._member_value(mem.cg, mem.matcher.m, stamp)
            mem.last_value = nu
            # ties go to the identity, then to the earliest member in list
            # order: the winner of a full scan in that order
            if nu > best or (nu == best and best_pos is not None
                             and best_pos > pos):
                comp["scale"] = mem.scale
                best, best_reps, best_comp, best_pos = nu, reps, comp, pos
        if best == 0.0:
            # hysteresis window: nonempty graph but every member below
            # threshold; serve the live graph and flag it
            nu, reps, comp = self._member_value(
                self.g, self._live_matching(), stamp)
            comp["scale"] = -1
            comp["hysteresis"] = 1
            best, best_reps, best_comp = nu, reps, comp
        return SizeEstimate(best, stamp, best_comp, best_reps)
