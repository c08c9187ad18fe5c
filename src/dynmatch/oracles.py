"""Exact and exhaustive reference algorithms.

Ground truth for tests and acceptance runs. One of them serves estimates:
`bipartition` 2-colours the live graph in every bipartite-mode query whose
mix exceeds |M1|, to certify that mix. All functions are pure in their
inputs; rank-driven ones are deterministic given the seed.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import networkx as nx

from .graph import DynamicGraph, Edge, Matching, first_pass_matching

GENERAL_EXACT_CAP = 64
AUG_PATH_CAP = 24


class TooLarge(Exception):
    pass


class RankFunction:
    """Deterministic map from an edge name to a rank in [0, 1).

    Stands in for a uniformly random edge permutation: i.i.d. 64-bit ranks
    from a seeded PRF of the canonicalized edge name, ties broken by
    lexicographic name order via sort_key. Works for plain integer pairs and
    for structured names (supergraph vertices), so the local oracle never has
    to materialize a permutation.

    The canonical name puts the endpoints in `repr` order (`canonical`), and
    the PRF input is that name's `repr` (`name_bytes`). `ranks_of` is the one
    place a rank is hashed: `sort_key` ranks a single name through it, and
    `sort_edges` ranks a whole edge list in one call, so a subclass that
    overrides `ranks_of` changes every rank.
    """

    def __init__(self, seed: int):
        # a float would fail only at the first hash, and a bool is no seed
        if type(seed) is not int:
            raise ValueError(f"seed={seed!r} is not an integer")
        self.seed = seed
        # keyed once; each hash continues from a copy of this state
        self._prf = hashlib.blake2b(
            digest_size=8, key=seed.to_bytes(16, "little", signed=True))

    @staticmethod
    def canonical(a, b) -> Tuple:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    @staticmethod
    def name_bytes(ra: str, rb: str) -> bytes:
        """The bytes ranked for the edge whose endpoints' reprs are ra and
        rb: the encoded repr of its canonical name."""
        # f"({ra}, {rb})" == repr((a, b)) for a 2-tuple
        return (f"({ra}, {rb})" if ra <= rb else f"({rb}, {ra})").encode()

    def rank(self, a, b) -> float:
        return self.sort_key(a, b)[0]

    def sort_key(self, a, b):
        ra, rb = repr(a), repr(b)
        return (self.ranks_of([self.name_bytes(ra, rb)])[0],
                (a, b) if ra <= rb else (b, a))

    def ranks_of(self, names: Sequence[bytes]) -> List[float]:
        """The rank of each edge given as its `name_bytes`."""
        copy = self._prf.copy
        out = []
        for name in names:
            h = copy()
            h.update(name)
            out.append(int.from_bytes(h.digest(), "little") / 2.0**64)
        return out

    def rank_order(self, names: Sequence[bytes], key: Callable[[int], Tuple]
                   ) -> Tuple[List[float], List[int]]:
        """The ranks of a batch of edges given by their `name_bytes`, and
        the batch's indices in increasing sort_key order. `key(i)` is edge
        i's sort_key; it is called only if a rank repeats in the batch,
        when the indices are sorted by it to break the tie by name."""
        ranks = self.ranks_of(names)
        if len(set(ranks)) == len(ranks):
            return ranks, sorted(range(len(ranks)), key=ranks.__getitem__)
        return ranks, sorted(range(len(ranks)), key=key)

    def sort_edges(self, edges: Iterable[Tuple]) -> List[Tuple]:
        """`edges` in increasing sort_key order, ranked in one batch:
        `sorted(edges, key=lambda e: self.sort_key(*e))`."""
        edges = list(edges)
        name = self.name_bytes
        _, order = self.rank_order(
            [name(repr(a), repr(b)) for a, b in edges],
            lambda i: self.sort_key(*edges[i]))
        return [edges[i] for i in order]


# -- exact maximum matching ------------------------------------------------


def bipartition(g: DynamicGraph) -> Optional[List[int]]:
    """2-color the graph; returns color list or None if an odd cycle exists.

    Isolated/unreached vertices get color 0. Deterministic (BFS from
    increasing roots, neighbors in adjacency order).
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def _hopcroft_karp(g: DynamicGraph, color: List[int]) -> Matching:
    INF = float("inf")
    left = [v for v in range(g.n) if color[v] == 0 and g.degree(v) > 0]
    pair_l: Dict[int, int] = {}
    pair_r: Dict[int, int] = {}
    dist: Dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if u not in pair_l:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for w in g.neighbors(u):
                nxt = pair_r.get(w)
                if nxt is None:
                    found = min(found, dist[u] + 1)
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        dist["_t"] = found
        return found != INF

    def dfs(root: int) -> bool:
        """One augmenting path from root along the BFS layers, searched
        depth-first with an explicit stack: an augmenting path can be as
        long as the graph, past Python's recursion limit. A stack entry is
        (left vertex, its neighbour iterator, the right vertex it was
        reached through); a dead end's layer is set to INF."""
        stack = [(root, g.neighbors(root), None)]
        while stack:
            u, it, _ = stack[-1]
            layer = dist[u] + 1
            for w in it:
                nxt = pair_r.get(w)
                if nxt is None:
                    if dist["_t"] == layer:
                        # flip the path, deepest edge first
                        while stack:
                            u, _, via = stack.pop()
                            pair_l[u] = w
                            pair_r[w] = u
                            w = via
                        return True
                elif dist.get(nxt, INF) == layer:
                    stack.append((nxt, g.neighbors(nxt), w))
                    break
            else:
                dist[u] = INF
                stack.pop()
        return False

    while bfs():
        for u in left:
            if u not in pair_l:
                dfs(u)
    return Matching((u, w) for u, w in pair_l.items())


def max_matching_exact(g: DynamicGraph) -> Tuple[int, Matching]:
    """Maximum matching: layered search when bipartite, blossom otherwise.

    The general route is capped at 64 vertices touched by edges (kept small so
    acceptance suites finish in minutes); raises TooLarge beyond it.
    """
    color = bipartition(g)
    if color is not None:
        m = _hopcroft_karp(g, color)
        return len(m), m
    touched = {v for e in g.edges() for v in e}
    if len(touched) > GENERAL_EXACT_CAP:
        raise TooLarge(f"general exact matching above cap ({len(touched)} > "
                       f"{GENERAL_EXACT_CAP} non-isolated vertices)")
    gx = nx.Graph()
    gx.add_edges_from(g.edges())
    mm = nx.max_weight_matching(gx, maxcardinality=True)
    return len(mm), Matching(mm)


def max_matching_size(g: DynamicGraph) -> int:
    return max_matching_exact(g)[0]


# -- greedy algorithms -----------------------------------------------------


def greedy_maximal_matching(g: DynamicGraph, ranks: RankFunction) -> Matching:
    """The greedy scan over the edges in increasing rank."""
    return first_pass_matching(ranks.sort_edges(g.edges()))


# -- 3-augmenting-path packing --------------------------------------------


def _three_aug_options(g: DynamicGraph, M: Matching) -> List[Tuple[Edge, List[Tuple[int, int]]]]:
    options = []
    for (u, v) in M.edges():
        lefts = [w for w in g.neighbors(u) if not M.is_matched(w)]
        rights = [w for w in g.neighbors(v) if not M.is_matched(w)]
        pairs = [(a, b) for a in lefts for b in rights if a != b]
        if pairs:
            options.append(((u, v), pairs))
    return options


def count_disjoint_3aug(g: DynamicGraph, M: Matching) -> int:
    """Maximum number of vertex-disjoint length-3 augmenting paths w.r.t. M.

    Exhaustive branch-and-bound over which matched edge hosts a path and which
    free endpoints extend it; exact, capped at small n.
    """
    touched = {v for e in g.edges() for v in e}
    if len(touched) > AUG_PATH_CAP:
        raise TooLarge(f"{len(touched)} non-isolated vertices > {AUG_PATH_CAP}")
    options = _three_aug_options(g, M)

    best = 0

    def rec(i: int, used: set, count: int) -> None:
        nonlocal best
        if count + (len(options) - i) <= best:
            return
        if i == len(options):
            best = max(best, count)
            return
        rec(i + 1, used, count)
        _, pairs = options[i]
        for (a, b) in pairs:
            if a in used or b in used:
                continue
            used.add(a)
            used.add(b)
            rec(i + 1, used, count + 1)
            used.discard(a)
            used.discard(b)

    rec(0, set(), 0)
    return best


# -- approximate-maximality witness ---------------------------------------


def _min_vertex_cover_at_most(edges: List[Edge], k: int) -> bool:
    """Exact bounded vertex-cover search (branch on an uncovered edge)."""
    if not edges:
        return True
    if k <= 0:
        return False
    (u, v) = edges[0]
    rest_u = [e for e in edges if u not in e]
    if _min_vertex_cover_at_most(rest_u, k - 1):
        return True
    rest_v = [e for e in edges if v not in e]
    return _min_vertex_cover_at_most(rest_v, k - 1)


def amm_witness_check(g: DynamicGraph, M: Matching, eps: float, mu: int) -> bool:
    """True iff M is maximal after removing at most eps*mu vertices.

    Equivalently: the subgraph of edges with both endpoints unmatched by M has
    a vertex cover of size <= eps*mu. Exact cover search — exponential only in
    that (tiny, when M is near-maximal) subgraph.
    """
    uncovered = [e for e in g.edges()
                 if not M.is_matched(e[0]) and not M.is_matched(e[1])]
    budget = int(eps * mu + 1e-9)
    return _min_vertex_cover_at_most(uncovered, budget)
