"""Two-pass streaming estimators over insert-only edge streams.

Pass one builds a greedy maximal matching M1. Pass two (a re-scan of the same
stream) builds a maximal b-matching M2 on the edges between V(M1) and the free
vertices, from which the size estimate / augmented matching follows. The same
second-pass logic doubles as the query of the dynamic estimators, which
replay the live edge set instead of a stream; only tradeoff mode serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .graph import (BMatching, DynamicGraph, Edge, Matching, NotMaximal,
                    first_pass_matching, norm_edge)
from . import oracles

B_BIPARTITE = 1.0 + math.sqrt(2.0)
DELTA = 1.0 / B_BIPARTITE
B_GENERAL = 9


class NonBipartiteInput(Exception):
    pass


@dataclass(frozen=True)
class SecondPassConfig:
    """The bipartite second pass's cap k on matched vertices; a free vertex
    takes floor(k*b), for b = `B_BIPARTITE`, and the estimate mixes with
    delta = `DELTA` = 1/b."""

    k: int

    @staticmethod
    def bipartite(eps: float) -> "SecondPassConfig":
        """k >= 8/(eps' * b) at the derived precision eps' = eps/16 (the
        stricter of the two candidate wirings). An eps outside (0, 1),
        NaN included, raises ValueError."""
        if not 0.0 < eps < 1.0:  # also rejects NaN
            raise ValueError(f"eps={eps} outside (0, 1)")
        return SecondPassConfig(
            k=math.ceil(8.0 / ((eps / 16.0) * B_BIPARTITE)))

    @property
    def free_cap(self) -> int:
        """floor(k*b), the M2 capacity of a free vertex."""
        return int(self.k * B_BIPARTITE)

    def mix(self, m1: int, m2: int) -> float:
        """(1-delta)*m1 + (delta/k)*m2. Correctly rounded float operations
        are monotone, so the value never falls as m2 grows: an upper bound
        on |M2| bounds the mix exactly."""
        return (1.0 - DELTA) * m1 + (DELTA / self.k) * m2


def bulk_maximal_b_matching(edges: Sequence[Edge], caps: Dict[int, int]) -> BMatching:
    """Maximal b-matching in one saturating pass.

    Each edge receives min(residual(u), residual(v)) copies at its turn;
    residuals never grow, so no earlier edge can become addable again.
    Residuals live in one local dict; `load` is filled from them at the
    end, and maximality over `edges` is checked on them before returning
    (raises NotMaximal). A vertex without capacity raises KeyError.
    """
    bm = BMatching(caps)
    res = dict(bm.caps)
    mult = bm.mult
    for (u, v) in edges:
        ru, rv = res[u], res[v]
        t = ru if ru < rv else rv
        if t > 0:
            res[u] = ru - t
            res[v] = rv - t
            e = (u, v) if u < v else (v, u)
            mult[e] = mult.get(e, 0) + t
    for (u, v) in edges:
        if res[u] > 0 and res[v] > 0:
            raise NotMaximal(f"b-matching not maximal at ({u},{v})")
    load = bm.load
    for v, cap in bm.caps.items():
        load[v] = cap - res[v]
    return bm


def _check_bipartite(edges: Sequence[Edge], n: int) -> None:
    g = DynamicGraph(n)
    for (u, v) in edges:
        if not g.edge_exists(u, v):
            g.insert(u, v)
    if oracles.bipartition(g) is None:
        raise NonBipartiteInput("stream contains an odd cycle")


def second_pass_bipartite(edges: Iterable[Edge], M1: Matching,
                          cfg: SecondPassConfig) -> Tuple[float, BMatching]:
    """Maximal b-matching on edges between V(M1) and free vertices, plus the
    combined estimate (1-delta)|M1| + (delta/k)|M2|. Capacities exist only
    for endpoints of those edges, so the pass costs O(m) whatever n is."""
    matched = M1.partner
    free_cap = cfg.free_cap
    e2 = [e for e in edges if (e[0] in matched) != (e[1] in matched)]
    caps = {v: (cfg.k if v in matched else free_cap) for e in e2 for v in e}
    m2 = bulk_maximal_b_matching(e2, caps)
    return cfg.mix(len(M1), m2.size), m2


def bipartite_two_pass(edges: Sequence[Edge], eps: float, n: int
                       ) -> Tuple[float, Matching, BMatching]:
    """Two-pass size estimate for bipartite inputs.

    Guarantees nu <= mu(G) <= (1 + 1/sqrt(2) + eps) * nu. The lower side is
    deterministic: placing value 1-delta on M1 edges and delta/k on M2
    multi-edges is a feasible fractional matching of the (bipartite) subgraph
    M1 union M2, of value nu. An eps outside (0, 1) raises ValueError.
    """
    cfg = SecondPassConfig.bipartite(eps)
    edges = list(edges)
    _check_bipartite(edges, n)
    m1 = first_pass_matching(edges)
    nu, m2 = second_pass_bipartite(edges, m1, cfg)
    return nu, m1, m2


# -- general graphs --------------------------------------------------------


class Bipartition:
    """Vertex side labels on [0, n): each M1 edge split deterministically
    (lower id left), free vertices by independent fair coins from the seed.

    Free vertex v is "r" iff `coin(seed, v)` is 1. A coin is computed from
    (seed, v) alone, so construction is O(1) and each side costs O(1),
    whatever the id. M1 is read, not copied.
    """

    def __init__(self, M1: Matching, n: int, seed: int):
        self.n = n
        self.seed = seed
        self._partner = M1.partner

    def side_of(self, v: int) -> str:
        if not 0 <= v < self.n:
            raise KeyError(v)
        partner = self._partner.get(v)
        if partner is not None:
            return "l" if v < partner else "r"
        return "r" if coin(self.seed, v) else "l"


_MASK64 = (1 << 64) - 1


def coin_word(seed: int, v: int) -> int:
    """SplitMix64's (v+1)-th output from state seed mod 2^64 (Steele, Lea
    & Flood, OOPSLA 2014): z = seed + (v+1)*golden gamma, then the
    finalizer's xor-shifts and multiplies, all mod 2^64. Each bit of the
    word is a fair coin of (seed, v); a general estimate's repetition r
    reads bit 63 - r % 64 (see `estimator.general_query`)."""
    z = (seed + (v + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def coin(seed: int, v: int) -> int:
    """The top bit of `coin_word(seed, v)`, which the last xor-shift (by
    31) leaves as it is: the coin of a single draw, and of repetition 0."""
    return coin_word(seed, v) >> 63


def random_bipartition(M1: Matching, n: int, seed: int) -> Bipartition:
    return Bipartition(M1, n, seed)


class Boundary:
    """The coin-independent part of the general second pass, shared by all
    bipartition draws: the edges with exactly one M1-matched endpoint, in
    edge order, each as (matched endpoint, index of the free endpoint in
    `free`, 1 iff the matched endpoint is "r"), and `free`, their distinct
    free endpoints in the order the edges first reach them. Built in one
    O(m) pass."""

    def __init__(self, edges: Iterable[Edge], M1: Matching):
        partner = self.partner = M1.partner
        self.edges: List[Tuple[int, int, int]] = []
        index: Dict[int, int] = {}
        for (u, v) in edges:
            if (u in partner) == (v in partner):
                continue
            m, free = (u, v) if u in partner else (v, u)
            self.edges.append((m, index.setdefault(free, len(index)),
                               int(m > partner[m])))
        self.free: List[int] = list(index)


def second_pass_general(boundary: Boundary, coins: Sequence[int], b: int
                        ) -> Tuple[Dict[int, int], int]:
    """One bipartition draw of the general second pass: the maximal
    b-matching M2 (caps 1 matched / b free) on the boundary edges that
    cross the bipartition, as (mate, kappa). `coins[i]` is the coin of
    `boundary.free[i]`: the free vertex is "r" iff it is 1. `mate` maps
    each M2-matched M1 vertex to its free M2 partner, in the order the
    copies were taken; with cap 1 on the matched side, each M2 edge has one
    copy. kappa is |M1_hat|, the number of M1 edges with both endpoints
    matched in M2, counted as each M1 edge's second endpoint is taken.

    A pure function of the boundary, the coins and b: one loop takes the
    copies and one re-checks maximality (raises NotMaximal), O(|B|) with
    no term in n, the highest free id or |M1|. A free capacity b < 1
    raises ValueError, also on an empty boundary."""
    if b < 1:
        raise ValueError(f"free capacity b={b} must be positive")
    entries = boundary.edges
    free = boundary.free
    partner = boundary.partner
    mate: Dict[int, int] = {}
    load = [0] * len(free)
    kappa = 0
    for m, i, right in entries:
        if coins[i] == right or m in mate:
            continue
        taken = load[i]
        if taken < b:
            mate[m] = free[i]
            load[i] = taken + 1
            if partner[m] in mate:
                kappa += 1
    for m, i, right in entries:
        if coins[i] != right and m not in mate and load[i] < b:
            raise NotMaximal(f"b-matching not maximal at ({m},{free[i]})")
    return mate, kappa


def disjoint_augmenting_paths(M1_hat: Sequence[Edge], mate: Dict[int, int]
                              ) -> List[Tuple[int, int, int, int]]:
    """Vertex-disjoint 3-augmenting paths u'-u-v-v' from M1_hat, for u' =
    mate[u] and v' = mate[v] in the M2 mate map of `second_pass_general`.

    Contract each candidate path to the edge (u', v') between its free
    endpoints; that contracted graph is bipartite with max degree <= b, so its
    maximum matching has size >= |M1_hat|/b, and each matched contracted edge
    lifts back to a path (the V(M1) middles are distinct by construction).
    """
    paths: Dict[Edge, Tuple[int, int, int, int]] = {}
    contracted: Dict[Edge, None] = {}
    free_ids: Dict[int, None] = {}
    for (u, v) in M1_hat:
        up = mate[u]
        vp = mate[v]
        ce = norm_edge(up, vp)
        if ce not in contracted:
            contracted[ce] = None
            paths[ce] = (up, u, v, vp)
        free_ids[up] = None
        free_ids[vp] = None
    # maximum matching of the contracted graph via the exact oracle
    remap = {v: i for i, v in enumerate(free_ids)}
    cg = DynamicGraph(len(remap))
    for (a, c) in contracted:
        cg.insert(remap[a], remap[c])
    _, mm = oracles.max_matching_exact(cg)
    inv = {i: v for v, i in remap.items()}
    out = []
    for (a, c) in mm.edges():
        out.append(paths[norm_edge(inv[a], inv[c])])
    return out


@dataclass
class GeneralTwoPassResult:
    value: int
    M1: Matching
    M2: Dict[int, int]  # the mate map: M1 vertex -> free M2 partner
    M1_hat: List[Edge]
    part: Bipartition


def general_two_pass(edges: Sequence[Edge], n: int, b: int = B_GENERAL,
                     seed: int = 0) -> GeneralTwoPassResult:
    """Two-pass matching computation for general graphs.

    Returns mu(G[M1 union M2]), exact on the sparse union subgraph, together
    with M1, M2 and M1_hat. The union is bipartite under `part`: each M1 edge
    is split lower id left, and each M2 edge crosses by the second pass's
    filter. So the exact oracle takes its layered route, which has no size
    cap. The first pass is a greedy maximal matching M1, so in expectation
    over the bipartition seed the value is >= (1/2 + 1/144) * mu(G) at b = 9.
    A seed that is not an int raises ValueError.
    """
    oracles.check_seed(seed)
    edges = list(edges)
    m1 = first_pass_matching(edges)
    boundary = Boundary(edges, m1)
    m2, _ = second_pass_general(
        boundary, [coin(seed, v) for v in boundary.free], b)
    m1_hat = [(u, v) for (u, v) in m1.edges() if u in m2 and v in m2]
    # an M2 edge has exactly one M1-matched endpoint, so it is no M1 edge
    union = DynamicGraph(n)
    for (u, v) in m1.edges():
        union.insert(u, v)
    for (u, v) in m2.items():
        union.insert(u, v)
    value, _ = oracles.max_matching_exact(union)
    return GeneralTwoPassResult(value=value, M1=m1, M2=m2, M1_hat=m1_hat,
                                part=random_bipartition(m1, n, seed))
