"""Local access to random greedy maximal matching and the sampling estimators.

The centerpiece is an implicit supergraph H of the base graph G that supports
ordered adjacency-list queries at a cost of at most one membership probe to G
each, such that the random greedy maximal matching (GMM) of H restricted to G
is near-maximal w.h.p. Status queries resolve a vertex's matched status under
GMM locally via rank-based pruning, without materializing anything; H's
pendant edges are ranked by the pendant rule (`_pendant_ranks`), under which
only the first pendant of each V* vertex can join GMM. For small
n, `materialized_gmm` runs the global greedy scan over an explicit H; it is
the one exact reference for the local oracle and the samplers.

Vertex naming in H: ('v', i) for base vertices, ('vs', i) for their shadow
copies, ('w', i, j) and ('u', i, j) for the degree-<=1 pendant classes.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from .graph import DynamicGraph, Matching, first_pass_matching
from .oracles import RankFunction, check_seed, greedy_maximal_matching


class BudgetExceeded(Exception):
    pass


class IndexOutOfClassRange(Exception):
    pass


class AdjacencyOracle:
    """Matrix-query access to a dynamic graph with probe accounting."""

    def __init__(self, g: DynamicGraph):
        self.g = g
        self.n = g.n
        self.probes = 0

    def edge_exists(self, u: int, v: int) -> bool:
        self.probes += 1
        return self.g.edge_exists(u, v)


@dataclass
class QueryBudget:
    """Probe cap per status query (None: no cap). A single status query
    that breaches it raises `BudgetExceeded`; the sampling estimators
    replace a breaching draw with one fresh draw and raise only if that
    draw breaches too."""

    max_probes: Optional[int] = None

    @staticmethod
    def standard(n: int) -> "QueryBudget":
        return QueryBudget(max_probes=int(50 * math.log(n + 2) ** 2))


def n_too_small(n: int, eps: float) -> bool:
    """Below this threshold the concentration arguments behind the samplers
    are vacuous; callers fall back to exact computation."""
    return n * eps**4 < 64.0 * math.log(max(n, 2))


class ImplicitSupergraph:
    """The supergraph H = (V u V* u W u U, E_H) over a matrix oracle for G.

    Degrees: class V exactly n, class V* exactly n+s, classes W/U at most 1,
    with s = ceil(10n/delta); |V_H| = 2n + n^2 + n*s. Each list query spends
    at most one matrix probe on G (only for V/V* queries with index <= n).
    """

    def __init__(self, oracle: AdjacencyOracle, delta: float):
        if not (0 < delta < 1):
            raise ValueError("delta must be in (0,1)")
        self.oracle = oracle
        self.n = oracle.n
        self.delta = delta
        self.s = math.ceil(10 * self.n / delta)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n + self.n**2 + self.n * self.s

    def degree(self, x) -> int:
        kind = x[0]
        if kind == "v":
            return self.n
        if kind == "vs":
            return self.n + self.s
        if kind == "w":
            _, i, j = x
            return 1 if (i != j and self.oracle.edge_exists(i, j)) else 0
        if kind == "u":
            return 1
        raise ValueError(f"unknown vertex class {x!r}")

    def list_query(self, x, j: int):
        """j-th neighbor (1-indexed) of H-vertex x, or None for an isolated
        pendant; follows the four class rules verbatim."""
        kind = x[0]
        if kind == "v":
            i = x[1]
            if not (1 <= j <= self.n):
                raise IndexOutOfClassRange(f"index {j} for class V")
            other = j - 1
            if other != i and self.oracle.edge_exists(i, other):
                return ("v", other)
            return ("vs", other)
        if kind == "vs":
            i = x[1]
            if 1 <= j <= self.n:
                other = j - 1
                if other != i and self.oracle.edge_exists(i, other):
                    return ("w", i, other)
                return ("v", other)
            if self.n < j <= self.n + self.s:
                return ("u", i, j - self.n)
            raise IndexOutOfClassRange(f"index {j} for class V*")
        if kind == "w":
            _, i, other = x
            if j != 1:
                raise IndexOutOfClassRange(f"index {j} for class W")
            if i != other and self.oracle.edge_exists(i, other):
                return ("vs", i)
            return None
        if kind == "u":
            _, i, idx = x
            if j != 1:
                raise IndexOutOfClassRange(f"index {j} for class U")
            return ("vs", i)
        raise ValueError(f"unknown vertex class {x!r}")

    def neighbors_of(self, x) -> List[Tuple]:
        """The non-None `list_query(x, j)` for j = 1..degree(x), in that
        order and with the same probes; V and V* lists are built per class
        in one pass over the n base indices."""
        kind = x[0]
        if kind == "v":
            i = x[1]
            probe = self.oracle.edge_exists
            return [("v", j) if j != i and probe(i, j) else ("vs", j)
                    for j in range(self.n)]
        if kind == "vs":
            out = self._shadow_row(x[1])
            out.extend([("u", x[1], j) for j in range(1, self.s + 1)])
            return out
        out = []
        for j in range(1, self.degree(x) + 1):
            y = self.list_query(x, j)
            if y is not None:
                out.append(y)
        return out

    def _shadow_row(self, i: int) -> List[Tuple]:
        """The first n neighbours of ("vs", i), one probe per base index."""
        probe = self.oracle.edge_exists
        return [("w", i, j) if j != i and probe(i, j) else ("v", j)
                for j in range(self.n)]

    def gmm_neighbors_of(self, x) -> List[Tuple]:
        """`neighbors_of(x)` less the edges GMM can never take under the
        pendant rule (`_pendant_ranks`): a V* vertex keeps only its first
        pendant ("u", i, 1), whose edge is its lowest-ranked pendant edge.
        No pendant past the first is built."""
        if x[0] != "vs":
            return self.neighbors_of(x)
        out = self._shadow_row(x[1])
        out.append(("u", x[1], 1))
        return out

    def materialize(self) -> Tuple[List[Tuple], List[Tuple[Tuple, Tuple]]]:
        """Explicit (vertices, edges) of H for small-n cross-checks, each
        edge named canonically. The edges are read from `neighbors_of` of
        the V and V* vertices: a W or U vertex's only neighbour is its own
        V* vertex, so every edge of H has such an endpoint."""
        verts: List[Tuple] = []
        for i in range(self.n):
            verts.append(("v", i))
            verts.append(("vs", i))
            for j in range(self.n):
                verts.append(("w", i, j))
            for j in range(1, self.s + 1):
                verts.append(("u", i, j))
        # each vertex's repr taken once; endpoints in `repr` order, as in
        # the names `RankFunction` ranks
        rep = {x: repr(x) for x in verts}
        edges = set()
        for i in range(self.n):
            for x in (("v", i), ("vs", i)):
                rx = rep[x]
                edges.update((x, y) if rx <= rep[y] else (y, x)
                             for y in self.neighbors_of(x))
        return verts, sorted(edges)


# -- the pendant rule -------------------------------------------------------


def _pendant_ranks(h: Sequence[float], s: int) -> List[float]:
    """The ranks in H of the pendant edges (vs_i, u_i1), (vs_i, u_i2), ...
    of one V* vertex with s pendants, from the `RankFunction` rank h[j-1]
    of each edge's own name (a prefix of the s will do).

    The first edge holds the minimum of s i.i.d. U(0, 1), whose CDF is
    1 - (1 - x)^s: r_1 = 1 - (1 - h_1)^(1/s). Given that minimum, the
    others are i.i.d. uniform above it: r_j = r_1 + (1 - r_1) h_j. The s
    pendants are exchangeable, so this relabelling leaves the law of every
    V and V* vertex's status under GMM as it is. It lets the local oracle
    rank one pendant edge per V* vertex instead of s: u_i1's edge sorts
    first among them, under a rank tie by name too, so GMM matches vs_i at
    or below it and never takes a later one."""
    r1 = -math.expm1(math.log1p(-h[0]) / s)
    return [r1] + [r1 + (1.0 - r1) * x for x in h[1:]]


def _supergraph_sort_key(ranks: RankFunction, s: int, a, b
                         ) -> Tuple[float, Tuple]:
    """The sort_key of edge (a, b) of H (s pendants per V* vertex):
    `ranks.sort_key`, with a U-class edge re-ranked by `_pendant_ranks`."""
    key = ranks.sort_key(a, b)
    name = key[1]
    u = name[0]  # a U vertex's repr sorts before its V* vertex's
    if u[0] != "u":
        return key
    _, i, j = u
    if j == 1:
        return (_pendant_ranks([key[0]], s)[0], name)
    h1 = ranks.sort_key(("u", i, 1), ("vs", i))[0]
    return (_pendant_ranks([h1, key[0]], s)[1], name)


# -- local GMM status ------------------------------------------------------


class _LocalGMM:
    """Memoized rank-based local simulation of GMM over a list-query host.

    An edge is in the greedy matching iff every strictly-lower-rank edge
    sharing an endpoint is not. Exploration visits incident edges in
    increasing rank and recurses only downward, so answers agree exactly with
    the global greedy matching under the same ranks.

    Each simulator memoizes, for its lifetime, every edge verdict and every
    fetched vertex's rank-sorted incidence (its ranks in an `array('d')` and
    its neighbours in the same order); the host must not change meanwhile.
    The lower-rank edges at an endpoint are then a prefix of its incidence,
    found by bisection. A probe budget therefore counts only the probes a
    query spends on incidences its simulator has not fetched before, so a
    query that reuses earlier queries' work breaches less often than it
    would alone.

    An incidence is ranked in one batch through `RankFunction.ranks_of`,
    the one place a rank is hashed, and `sort_key` is called only for the
    edge being decided and to break rank ties.

    Over an `ImplicitSupergraph` the edges are ranked by the pendant rule
    (`_pendant_ranks`, `_supergraph_sort_key`), and a V* vertex's
    incidence holds its n V/W neighbours and its first pendant only
    (`gmm_neighbors_of`): n + 1 ranks instead of n + s.
    """

    def __init__(self, host, ranks: RankFunction,
                 budget: Optional[QueryBudget] = None,
                 probe_source: Optional[AdjacencyOracle] = None):
        self.ranks = ranks
        self.budget = budget
        self.probe_source = probe_source
        # verdicts keyed by both orientations of each edge
        self.edge_memo: Dict[Tuple, bool] = {}
        self._incidence_memo: Dict = {}
        self._probe_floor = 0
        if isinstance(host, ImplicitSupergraph):
            self._pendants = host.s
            self._neighbors = host.gmm_neighbors_of
            self.sort_key = functools.partial(_supergraph_sort_key, ranks,
                                              host.s)
        else:
            self._pendants = 0
            self._neighbors = host.neighbors_of
            self.sort_key = ranks.sort_key

    def _check_budget(self) -> None:
        if (self.budget and self.budget.max_probes is not None
                and self.probe_source is not None):
            spent = self.probe_source.probes - self._probe_floor
            if spent > self.budget.max_probes:
                raise BudgetExceeded(f"{spent} probes > cap "
                                     f"{self.budget.max_probes}")

    def _incidence(self, x) -> Tuple[array, List]:
        """x's neighbours in increasing sort_key order of the edge (x, y),
        with the rank of each edge. All of x's edges are ranked in one
        `ranks_of` batch, with x's repr taken once, and sorted by the full
        sort_key only if a rank repeats. Under the pendant rule a V*
        vertex's first pendant, listed last, is re-ranked, and a U vertex's
        one edge is ranked by its sort_key."""
        inc = self._incidence_memo.get(x)
        if inc is None:
            neigh = self._neighbors(x)
            key = self.sort_key
            if self._pendants and x[0] == "u":
                ranks = [key(x, y)[0] for y in neigh]
            else:
                rx = repr(x)
                name = RankFunction.name_bytes
                ranks = self.ranks.ranks_of([name(rx, repr(y)) for y in neigh])
                if self._pendants and x[0] == "vs":
                    ranks[-1] = _pendant_ranks(ranks[-1:], self._pendants)[0]
            if len(set(ranks)) == len(ranks):
                order = sorted(range(len(ranks)), key=ranks.__getitem__)
            else:
                order = sorted(range(len(ranks)),
                               key=lambda i: key(x, neigh[i]))
            inc = (array("d", [ranks[i] for i in order]),
                   [neigh[i] for i in order])
            self._incidence_memo[x] = inc
        return inc

    def _lower_prefix(self, x, my_key) -> Tuple[array, List, int]:
        """x's incidence and the length of its prefix of edges whose
        sort_key is below my_key; equal ranks are settled by the full key."""
        ranks, neigh = self._incidence(x)
        r = my_key[0]
        end = bisect_left(ranks, r)
        while (end < len(ranks) and ranks[end] == r
               and self.sort_key(x, neigh[end]) < my_key):
            end += 1
        return ranks, neigh, end

    def edge_in_matching(self, e: Tuple) -> bool:
        memo = self.edge_memo
        if e in memo:
            return memo[e]
        # explicit stack of (edge, merged lower-rank edge list, cursor)
        stack = [self._frame(e)]
        while stack:
            edge, lower, idx = stack[-1]
            verdict = None
            while idx[0] < len(lower):
                f = lower[idx[0]]
                if f in memo:
                    if memo[f]:
                        verdict = False
                        break
                    idx[0] += 1
                else:
                    stack.append(self._frame(f))
                    break
            else:
                verdict = True
            if verdict is not None:
                memo[edge] = memo[edge[1], edge[0]] = verdict
                stack.pop()
        return memo[e]

    def _frame(self, e: Tuple):
        self._check_budget()
        a, b = e
        my_key = self.sort_key(a, b)
        ra, na, ea = self._lower_prefix(a, my_key)
        rb, nb, eb = self._lower_prefix(b, my_key)
        # merge the two sorted prefixes by sort_key
        lower = []
        i = j = 0
        while i < ea and j < eb:
            if ra[i] < rb[j] or (
                    ra[i] == rb[j] and self.sort_key(a, na[i])
                    < self.sort_key(b, nb[j])):
                lower.append((a, na[i]))
                i += 1
            else:
                lower.append((b, nb[j]))
                j += 1
        lower.extend((a, y) for y in na[i:ea])
        lower.extend((b, y) for y in nb[j:eb])
        return (e, lower, [0])

    def vertex_matched(self, x) -> bool:
        for y in self._incidence(x)[1]:
            if self.edge_in_matching((x, y)):
                return True
        return False

    def begin_query(self) -> None:
        if self.probe_source is not None:
            self._probe_floor = self.probe_source.probes


class _GraphListHost:
    """List-query host over a plain DynamicGraph (adjacency order)."""

    def __init__(self, g: DynamicGraph):
        self.g = g

    def neighbors_of(self, x: int) -> List[int]:
        return list(self.g.neighbors(x))


def gmm_vertex_status(host, v, ranks: RankFunction,
                      budget: Optional[QueryBudget] = None,
                      probe_source: Optional[AdjacencyOracle] = None) -> str:
    """Matched status of one vertex under the greedy matching of the host's
    full edge set, resolved locally. host: ImplicitSupergraph, _GraphListHost,
    or any object with neighbors_of(x). Spending more than the budget's
    probes of `probe_source` raises `BudgetExceeded`."""
    sim = _LocalGMM(host, ranks, budget, probe_source)
    sim.begin_query()
    return "Matched" if sim.vertex_matched(v) else "Unmatched"


def _sampled_hits(g: DynamicGraph, seed: int, delta: float, salt: int,
                  draws: int, draw: Callable[[random.Random], Sequence],
                  budget: Optional[QueryBudget]) -> int:
    """How many of `draws` samples hit: each sample is `draw(rng)`, a list
    of vertices of the implicit supergraph (parameter delta) of g, and it
    hits when GMM under the ranks of `seed` matches all of them. The draws
    come from one Random(seed ^ salt). A draw that breaches the budget
    (default `QueryBudget.standard`) is replaced by one fresh draw; a
    breach of that fresh draw raises `BudgetExceeded`."""
    oracle = AdjacencyOracle(g)
    if budget is None:
        budget = QueryBudget.standard(g.n)
    sim = _LocalGMM(ImplicitSupergraph(oracle, delta), RankFunction(seed),
                    budget, oracle)
    rng = random.Random(seed ^ salt)
    hits = 0
    for _ in range(draws):
        xs = draw(rng)
        sim.begin_query()
        try:
            hit = all(map(sim.vertex_matched, xs))
        except BudgetExceeded:
            xs = draw(rng)
            sim.begin_query()
            hit = all(map(sim.vertex_matched, xs))
        hits += hit
    return hits


# -- estimators ------------------------------------------------------------


def mm_size_estimate(g: DynamicGraph, eps: float, seed: int,
                     budget: Optional[QueryBudget] = None,
                     force_sampling: bool = False) -> float:
    """Estimate of the size of a (seed-determined) maximal matching mu~ with
    mu~ >= nu >= mu~ - eps*n w.h.p.

    When n is below the concentration-validity threshold, computes mu~ exactly
    as the global greedy matching under the seeded ranks (the estimate is then
    exact, which only tightens the window). A seed that is not an int
    raises ValueError, whatever the graph.
    """
    check_seed(seed)
    if not (0 < eps < 0.5):
        raise ValueError("eps must be in (0, 1/2)")
    n = g.n
    if n == 0 or g.m == 0:
        return 0.0
    if n_too_small(n, eps) and not force_sampling:
        return float(len(greedy_maximal_matching(g, RankFunction(seed))))
    delta = eps / 4.0
    samples = math.ceil(64.0 * math.log(n + 2) / eps**2)
    matched = _sampled_hits(g, seed, delta, 0x5EED, samples,
                            lambda rng: [("v", rng.randrange(n))], budget)
    frac = matched / samples
    nu = (frac - eps / 4.0 - delta) * n / 2.0
    return max(0.0, nu)


@functools.lru_cache(maxsize=1)
def _materialized_h(n: int, edges: FrozenSet[Tuple[int, int]], delta: float
                    ) -> Tuple[Tuple[bytes, ...], Tuple[Tuple[int, int], ...],
                               Tuple[Tuple, ...], int]:
    """The seed-independent part of GMM over a materialized H (parameter
    delta) for the graph on [0, n) with `edges`: H's edges in name order,
    each as its `RankFunction.name_bytes` and as a pair of endpoint ids,
    the H vertex of each id, with ("v", i) numbered i, and s, the number
    of pendants per V* vertex. As ("u", ...) sorts before every other
    vertex, the n * s U-class edges lead the name order, those of
    ("vs", i) at [i * s, (i + 1) * s) in pendant order.
    The last graph is kept, so a run of seeds on one graph builds H once."""
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    h = ImplicitSupergraph(AdjacencyOracle(g), delta)
    verts, h_edges = h.materialize()
    rep = {x: repr(x) for x in verts}
    ids = {("v", i): i for i in range(n)}
    name = RankFunction.name_bytes
    names = tuple(name(rep[a], rep[b]) for (a, b) in h_edges)
    ends = tuple((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
                 for (a, b) in h_edges)
    return names, ends, tuple(ids), h.s


def materialized_gmm(g: DynamicGraph, delta: float, ranks: RankFunction
                     ) -> Dict[Tuple, Tuple]:
    """GMM over the materialized supergraph H (parameter delta) of g, as
    its partner map on H vertices: the greedy scan in increasing sort_key
    order, the exact reference for the local status oracle (small n only).
    H is built once per graph and delta (`_materialized_h`); the ranks
    only re-order its edges. Every edge of H is ranked, all s pendants of
    each V* vertex too: one `ranks_of` batch, then the pendant rule
    (`_pendant_ranks`) on each V* vertex's pendant edges, so the scan
    checks that the local oracle may drop all but the first. A stable sort
    of the name-ordered edges by rank breaks ties by name, as
    `RankFunction.sort_key` orders them; the scan runs on endpoint ids."""
    names, ends, verts, s = _materialized_h(g.n, frozenset(g.edges()),
                                            delta)
    r = ranks.ranks_of(names)
    for lo in range(0, g.n * s, s):
        r[lo:lo + s] = _pendant_ranks(r[lo:lo + s], s)
    partner = first_pass_matching(
        ends[i] for i in sorted(range(len(names)), key=r.__getitem__)
    ).partner
    return {verts[a]: verts[b] for a, b in partner.items()}


def exact_pair_matched_count(g: DynamicGraph, m_star: Matching, eps: float,
                             seed: int) -> int:
    """Exact |{e in M*: both endpoints matched by GMM(H, ranks)}| for H at
    delta = eps^2/8 and the ranks of `seed`, via `materialized_gmm`; the
    reference the sampling path of `estimate_pair_matched` is checked
    against."""
    matched = materialized_gmm(g, eps**2 / 8.0, RankFunction(seed))
    return sum(1 for (u, v) in m_star.edges()
               if ("v", u) in matched and ("v", v) in matched)


def pair_matched_sample_count(n: int, eps: float,
                              sample_constant: float = 1e5) -> int:
    """L = ceil(constant * ln(n) / eps^5); the printed constant is 1e5."""
    return math.ceil(sample_constant * math.log(max(n, 2)) / eps**5)


def estimate_pair_matched(g: DynamicGraph, m_star: Matching, eps: float,
                          seed: int, sample_constant: float = 1e5,
                          budget: Optional[QueryBudget] = None,
                          force_sampling: bool = False) -> float:
    """Estimate kappa of the number of M* edges with both endpoints matched
    in a (seed-determined) near-maximal matching of g.

    Returns 0 outright when |M*| <= eps^2 * n. Otherwise samples
    L = ceil(sample_constant * ln(n) / eps^5) edges of M* with replacement,
    resolves both endpoints' status under GMM of the implicit supergraph
    (delta = eps^2/8), and returns X*|M*|/L - n*eps^2/2, clamped at 0. Below
    the validity threshold it instead counts exactly the M* edges whose
    endpoints are both matched by the base graph's greedy maximal matching
    under the seeded ranks. eps must lie in (0, 1), and a seed that is not
    an int raises ValueError, whatever the graph and M*.
    """
    check_seed(seed)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    n = g.n
    size = len(m_star)
    if size <= eps**2 * n:
        return 0.0
    if n_too_small(n, eps) and not force_sampling:
        # the supergraph mechanism is only needed when sampling
        m_prime = greedy_maximal_matching(g, RankFunction(seed))
        return float(sum(1 for (u, v) in m_star.edges()
                         if m_prime.is_matched(u) and m_prime.is_matched(v)))
    L = pair_matched_sample_count(n, eps, sample_constant)
    edges = m_star.edges()

    def draw(rng: random.Random) -> List[Tuple]:
        (u, v) = edges[rng.randrange(size)]
        return [("v", u), ("v", v)]

    hits = _sampled_hits(g, seed, eps**2 / 8.0, 0xA55, L, draw, budget)
    kappa = hits * size / L - n * eps**2 / 2.0
    return max(0.0, kappa)
