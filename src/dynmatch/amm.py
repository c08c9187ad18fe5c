"""Maintenance of the first-pass matching, and the paper's kernel library.

The served first-pass matching M1 comes from `AMMMaintainer`, a local repair
that keeps it maximal and free of augmenting paths of length 3 after every
update, in O(deg^2) neighbour reads. That certifies |M1| >= (2/3)mu at any
size, which `check_two_thirds` checks in O(n + m).

The paper's kernel pipeline is kept as a library, with one validator per
object, each raising on its first failure: an approximately-maximal
fractional matching (AMfM, a plain edge -> value map that `validate_amfm`
checks for feasibility and approximate maximality) -> value-level
sparsification -> bounded-degree kernel (`validate_kernel`) -> static
matching extraction with an explicit removal witness. The paper's
sparsifier samples colour classes at each level; under the provider's
degree bound d every sample would cover its level's whole palette, so
`edge_color_and_sparsify` takes every level wholesale and the kernel is
every live edge ordered by level. `AMMMaintainer.rebuild`, which no update
calls, runs that pipeline, one greedy pass over the kernel in its order and
the repair's augmenting sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from .graph import (DynamicGraph, Edge, GraphError, Matching, NotMaximal,
                    UpdateEvent, first_pass_matching, norm_edge)


class ValidationFailed(Exception):
    pass


class KernelValidationFailed(Exception):
    pass


# -- approximately-maximal fractional matchings ----------------------------


@dataclass
class AMfM:
    """Fractional matching x, a map from edges (min, max) to their values,
    with the approximate-maximality certificate parameters (c, d): every
    edge has x_e > 1/d, or an endpoint of fractional degree >= 1/c all of
    whose incident values are <= 1/d."""

    x: Dict[Edge, float]
    c: float
    d: int


_TOL = 1e-9


def _is_edge(g: DynamicGraph, u: int, v: int) -> bool:
    """Whether (u, v) with u < v is an edge of g; ids outside [0, n) are
    not, and raise nothing."""
    return 0 <= u < v < g.n and v in g.adj[u]


def validate_amfm(g: DynamicGraph, amfm: AMfM) -> None:
    """Feasibility, then a literal check of the defining property over every
    edge of g; raises ValidationFailed at the first failure. Feasible: every
    value is nonnegative and on an edge of g, and every fractional degree is
    at most 1."""
    x = amfm.x
    fdeg: Dict[int, float] = {}
    maxx: Dict[int, float] = {}
    for (u, v), xe in x.items():
        if not xe >= 0:
            raise ValidationFailed(f"value {xe} on ({u},{v})")
        if not _is_edge(g, u, v):
            raise ValidationFailed(f"({u},{v}) is not an edge (min, max) of g")
        for w in (u, v):
            s = fdeg[w] = fdeg.get(w, 0.0) + xe
            if s > 1.0 + _TOL:
                raise ValidationFailed(f"fractional degree {s} > 1 at {w}")
            maxx[w] = max(maxx.get(w, 0.0), xe)
    inv_d = 1.0 / amfm.d
    inv_c = 1.0 / amfm.c
    for (u, v) in g.edges():
        # heavy: x_e > 1/d, the strict inequality up to float noise
        if x.get((u, v), 0.0) > inv_d - _TOL:
            continue
        if not any(fdeg.get(w, 0.0) >= inv_c - _TOL
                   and maxx.get(w, 0.0) <= inv_d + _TOL for w in (u, v)):
            raise ValidationFailed(f"edge ({u},{v}) neither heavy nor blocked")


def required_degree_bound(n: int, c: float, eps: float) -> int:
    return math.ceil(9.0 * c * (1 + eps) ** 2 * math.log(max(n, 2)) / eps**2)


def provider_degree_bound(g: DynamicGraph, eps: float) -> int:
    """The provider's default d: the analysis bound at c = 1 + 2*eps,
    floored at max-degree+1, capped at n-1 (for n >= 3), and at least 2.
    It is never below the maximum degree, so the whole graph, the kernel
    `edge_color_and_sparsify` builds by taking every level wholesale, passes
    `validate_kernel`'s degree bound; the paper's colour sampling would keep
    every colour class at this d."""
    n = g.n
    max_deg = max(map(len, g.adj), default=0)
    d = max(required_degree_bound(n, 1.0 + 2.0 * eps, eps), max_deg + 1)
    if n >= 3:
        d = min(d, n - 1)
    return max(d, 2)


def fractional_provider(g: DynamicGraph, eps: float) -> AMfM:
    """Default provider: degree-proportional spread x_e = 1/max(deg u, deg v).

    Feasible (each vertex's sum is at most 1) and approximately maximal: an
    edge whose larger endpoint degree is below d is heavy; otherwise that
    endpoint has all incident values <= 1/d and fractional degree close to 1.
    d is `provider_degree_bound`. x has every edge of g, in g's edge order.
    Output is validated by `validate_amfm`, feasibility included, never
    assumed: raises ValidationFailed.
    """
    d = provider_degree_bound(g, eps)
    adj = g.adj
    x = {e: 1.0 / max(len(adj[e[0]]), len(adj[e[1]])) for e in g.edges()}
    amfm = AMfM(x=x, c=1.0 + 2.0 * eps, d=d)
    validate_amfm(g, amfm)
    return amfm


# -- kernels ---------------------------------------------------------------


@dataclass
class Kernel:
    """Bounded-degree subgraph: max kernel degree <= d, and every graph edge
    outside it has an endpoint of kernel degree >= d*(1-eps)."""

    edges: List[Edge]
    d: int
    eps: float
    degrees: Dict[int, int] = field(init=False)

    def __post_init__(self):
        self.degrees = {}
        for (u, v) in self.edges:
            self.degrees[u] = self.degrees.get(u, 0) + 1
            self.degrees[v] = self.degrees.get(v, 0) + 1

    def degree(self, v: int) -> int:
        return self.degrees.get(v, 0)


def validate_kernel(g: DynamicGraph, k: Kernel) -> None:
    """Raises KernelValidationFailed at the first kernel degree above k.d,
    kernel edge outside g, or edge of g left out of the kernel with no
    endpoint of kernel degree at least d(1 - eps)."""
    for v, dv in k.degrees.items():
        if dv > k.d:
            raise KernelValidationFailed(f"kernel degree {dv} > {k.d} at {v}")
    kernel_set = set()
    for (u, v) in k.edges:
        e = norm_edge(u, v)
        if not _is_edge(g, *e):
            raise KernelValidationFailed(f"kernel edge ({u},{v}) is not in g")
        kernel_set.add(e)
    threshold = k.d * (1.0 - k.eps)
    for (u, v) in g.edges():
        if (u, v) in kernel_set:
            continue
        if k.degree(u) < threshold and k.degree(v) < threshold:
            raise KernelValidationFailed(
                f"excluded edge ({u},{v}) lacks a near-{k.d}-degree endpoint")


def level_of(xe: float, eps: float) -> int:
    """Level i with x_e in ((1+eps)^-i, (1+eps)^-(i-1)]."""
    return max(1, math.floor(-math.log(xe) / math.log1p(eps) + 1e-12) + 1)


def edge_color_and_sparsify(g: DynamicGraph, amfm: AMfM, eps: float) -> Kernel:
    """The AMfM's edges by value level, every level taken wholesale.

    Levels partition edges by x-value ranges (`level_of`). The paper keeps a
    sample of each level's colour classes; at the provider's d the sample
    covers the whole palette, so the kernel is every level in full, in
    ascending level order and in the AMfM's order within a level. Output is
    validated by `validate_kernel`, never assumed: raises
    KernelValidationFailed, for instance when a kernel degree exceeds amfm.d.
    """
    levels: Dict[int, List[Edge]] = {}
    for e, xe in amfm.x.items():
        levels.setdefault(level_of(xe, eps), []).append(e)
    kern = Kernel(edges=[e for i in sorted(levels) for e in levels[i]],
                  d=amfm.d, eps=eps)
    validate_kernel(g, kern)
    return kern


# -- static matching extraction -------------------------------------------


@dataclass
class AMMState:
    """Matching plus explicit removal witness making maximality checkable."""

    matching: Matching
    witness: Set[int] = field(default_factory=set)


def high_degree_nodes(k: Kernel) -> List[int]:
    threshold = k.d * (1.0 - k.eps)
    return [v for v, dv in k.degrees.items() if dv >= threshold]


def static_amm_from_kernel(g: DynamicGraph, k: Kernel,
                           eps: float) -> AMMState:
    """Max-weight matching under w_e = |e cut high-degree set|, extended to a
    maximal matching of the kernel; witness = unmatched high-degree nodes."""
    hk = set(high_degree_nodes(k))
    m = Matching()
    if hk:
        gx = nx.Graph()
        for (u, v) in k.edges:
            w = (u in hk) + (v in hk)
            if w > 0:
                gx.add_edge(u, v, weight=w)
        for (u, v) in nx.max_weight_matching(gx):
            m.add(u, v)
    for (u, v) in k.edges:
        if not m.is_matched(u) and not m.is_matched(v):
            m.add(u, v)
    witness = {v for v in hk if not m.is_matched(v)}
    return AMMState(matching=m, witness=witness)


# -- dynamic maintenance ---------------------------------------------------


class DynamicMaximalMatching:
    """Always-maximal matching under updates via local repair.

    Insert: match when both endpoints are free. Delete of a matched edge:
    rematch both endpoints against their free neighbors. Maximality is
    preserved exactly (every uncovered edge would have had a free endpoint
    pair, which the repair rule eliminates). `AMMMaintainer` extends this
    rule with its augmenting searches; the estimator's tradeoff source and
    the contracted copies of the contraction library use it directly.
    `work` counts the neighbours the repairs read.
    """

    def __init__(self, g: DynamicGraph):
        self.m = Matching()
        self.g = g
        self.work = 0

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        m = self.m
        u, v = ev.u, ev.v
        if ev.kind == "i":
            if u not in m.partner and v not in m.partner:
                m.add(u, v)
        elif ev.kind == "d" and m.partner.get(u) == v:
            m.remove(u, v)
            self.work += self._rematch(g, u) + self._rematch(g, v)

    def _rematch(self, g: DynamicGraph, v: int) -> int:
        """Match v to its first free neighbour; returns the neighbours read."""
        # v was just freed and its old edge is gone, so no rematch took v
        partner = self.m.partner
        reads = 0
        for reads, w in enumerate(g.neighbors(v), 1):
            if w not in partner:
                self.m.add(v, w)
                break
        return reads


class ShortAugmentingPath(Exception):
    """A matching edge u=v whose ends have distinct free neighbours x and y:
    x-u=v-y is an augmenting path of length 3."""


def _free_ends(g: DynamicGraph, partner: Dict[int, int], u: int, v: int
               ) -> Tuple[Optional[int], Optional[int], int]:
    """(x, y, reads): a free neighbour x of u and a free neighbour y != x
    of v, or (None, None, reads) when there are none; `reads` counts the
    neighbours read. O(deg u + deg v)."""
    reads = 0
    first = second = None
    for w in g.neighbors(u):
        reads += 1
        if w not in partner:
            if first is not None:
                second = w
                break
            first = w
    if first is not None:
        for w in g.neighbors(v):
            reads += 1
            if w not in partner:
                if w != first:
                    return first, w, reads
                if second is not None:
                    return second, w, reads
    return None, None, reads


def augment_short_paths(g: DynamicGraph, m: Matching) -> int:
    """Augment a maximal matching m of g in place until it has no augmenting
    path of length 3; returns the neighbours read.

    One sweep over m's edges suffices: augmenting x-u=v-y matches two
    vertices that were free in a maximal matching, so all their neighbours
    are matched and neither new edge can carry a path, and the free
    vertices only get fewer, so an edge found without a path keeps none.
    O(n + g.m)."""
    reads = 0
    for (u, v) in m.edges():
        x, y, r = _free_ends(g, m.partner, u, v)
        reads += r
        if x is not None:
            m.remove(u, v)
            m.add(x, u)
            m.add(v, y)
    return reads


def check_two_thirds(g: DynamicGraph, m: Matching) -> None:
    """Check that m certifies |m| >= (2/3)mu(g): every edge of m is live,
    m is maximal, and no edge of m carries an augmenting path of length 3
    (Hopcroft & Karp, 1973). Raises GraphError for an edge of m that is
    not in g, NotMaximal for an edge of g with two free ends and
    ShortAugmentingPath for a 3-augmenting path. O(n + g.m)."""
    partner = m.partner
    for (u, v) in m.edges():
        if not _is_edge(g, u, v):
            raise GraphError(f"matched edge ({u},{v}) is not in g")
    for (u, v) in g.edges():
        if u not in partner and v not in partner:
            raise NotMaximal(f"matching not maximal at ({u},{v})")
    for (u, v) in m.edges():
        x, y, _ = _free_ends(g, partner, u, v)
        if x is not None:
            raise ShortAugmentingPath(
                f"{x}-{u}={v}-{y} augments the matching")


class AMMMaintainer(DynamicMaximalMatching):
    """The first-pass matching M1, maximal and free of augmenting paths of
    length 3 after every update, registered as a graph listener.

    Such a matching has |M| >= (2/3)mu (Hopcroft & Karp, 1973), so every
    mode's estimate, which is at least |M1|, has mu <= 1.5 nu. The rule is
    a local repair (after Neiman & Solomon, STOC 2013); it keeps M1
    maximal, so a free vertex has only matched neighbours:

    - an insert matches two free endpoints; they had no free neighbour, so
      the new edge carries no path. An insert (x, a) with x free and a
      matched to b augments x-a=b-y if b has a free neighbour y != x;
    - a matched-edge delete runs the inherited rematch on both endpoints,
      then each endpoint that stayed free tries x-a=b-y through every
      neighbour a. Both rematches come first, so a rematched edge whose
      far end can reach the other, still free endpoint is found from
      that endpoint.

    An augmentation matches two vertices that were free, and so carries no
    new path. An update thus augments at most twice and reads O(deg^2)
    neighbours; `work` charges 1 per update and every neighbour read.
    `rebuild`, which no update calls, recomputes the matching from the
    live graph through the kernel pipeline, swaps it in and restores the
    invariant; its report is `empty` on an edgeless graph, otherwise
    `branch="kernel"` and the `kernel_edges` it read.
    """

    def __init__(self, g: DynamicGraph, eps: float):
        super().__init__(g)
        self.eps = eps
        self.last_rebuild_report: dict = {}

    def matching(self) -> Matching:
        return self.m

    # -- update path -------------------------------------------------------

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        partner = self.m.partner
        u, v = ev.u, ev.v
        work = 1
        if ev.kind == "i":
            if u not in partner:
                if v not in partner:
                    self.m.add(u, v)
                else:
                    work += self._augment_via(g, u, v)
            elif v not in partner:
                work += self._augment_via(g, v, u)
        elif partner.get(u) == v:
            self.m.remove(u, v)
            work += self._rematch(g, u) + self._rematch(g, v)
            for x in (u, v):
                if x not in partner:
                    work += self._augment_from(g, x)
        self.work += work

    def _augment_via(self, g: DynamicGraph, x: int, a: int) -> int:
        """Augment x-a=b-y, for free x and a matched to b, along b's first
        free neighbour y != x; returns the neighbours read."""
        partner = self.m.partner
        b = partner[a]
        reads = 0
        for reads, y in enumerate(g.neighbors(b), 1):
            if y not in partner and y != x:
                self.m.remove(a, b)
                self.m.add(x, a)
                self.m.add(b, y)
                break
        return reads

    def _augment_from(self, g: DynamicGraph, x: int) -> int:
        """Augment from a free x whose neighbours are all matched through
        the first neighbour that leads to a path; returns the neighbours
        read."""
        partner = self.m.partner
        reads = 0
        for a in g.neighbors(x):
            reads += 1 + self._augment_via(g, x, a)
            if x in partner:
                break
        return reads

    def rebuild(self) -> None:
        """Recompute the matching from the live graph and swap it in.

        It is one greedy maximal matching over the kernel of the library
        pipeline, `fractional_provider` -> `edge_color_and_sparsify`, in its
        order, then one `augment_short_paths` sweep. Each live edge is read
        a constant number of times, so a rebuild is charged g.m plus the
        sweep's reads.
        """
        g = self.g
        self.work += g.m
        if g.m == 0:
            self.m = Matching()
            self.last_rebuild_report = {"empty": True}
        else:
            eps = self.eps
            kern = edge_color_and_sparsify(g, fractional_provider(g, eps), eps)
            self.m = first_pass_matching(kern.edges)
            self.work += augment_short_paths(g, self.m)
            self.last_rebuild_report = {"branch": "kernel",
                                        "kernel_edges": g.m}
