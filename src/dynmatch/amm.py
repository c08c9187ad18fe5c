"""Robust maintenance of an approximately-maximal matching.

The paper's kernel pipeline is kept as a library with its validators: a
validated approximately-maximal fractional matching (AMfM) -> level-wise edge
coloring and color sampling -> bounded-degree kernel -> static matching
extraction with an explicit removal witness. With the provider's degree bound
d every level's sample covers its whole palette, so that kernel is always the
full edge list sorted by level; the maintainer builds exactly that list from
the live graph and extracts from it, without running the pipeline. An eager
repair rule keeps the live matching exactly maximal between the epoch
rebuilds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import networkx as nx

from .graph import (DynamicGraph, Edge, FractionalMatching, Matching,
                    UpdateEvent, norm_edge)
from .streaming import first_pass_matching


class ValidationFailed(Exception):
    pass


class KernelValidationFailed(Exception):
    pass


# -- approximately-maximal fractional matchings ----------------------------


@dataclass
class AMfM:
    """Fractional matching with the approximate-maximality certificate
    parameters (c, d): every edge has x_e > 1/d, or an endpoint of fractional
    degree >= 1/c all of whose incident values are <= 1/d."""

    x: FractionalMatching
    c: float
    d: int


_TOL = 1e-9


def validate_amfm(g: DynamicGraph, amfm: AMfM) -> dict:
    """Literal check of the defining property over every edge of g."""
    x = amfm.x
    fdeg: Dict[int, float] = {}
    maxx: Dict[int, float] = {}
    for (u, v), xe in x.x.items():
        for w in (u, v):
            fdeg[w] = fdeg.get(w, 0.0) + xe
            maxx[w] = max(maxx.get(w, 0.0), xe)
    inv_d = 1.0 / amfm.d
    inv_c = 1.0 / amfm.c
    for (u, v) in g.edges():
        xe = x.x.get(norm_edge(u, v), 0.0)
        if xe > inv_d + _TOL:
            continue
        ok = False
        for w in (u, v):
            if (fdeg.get(w, 0.0) >= inv_c - _TOL
                    and maxx.get(w, 0.0) <= inv_d + _TOL):
                ok = True
                break
        if not ok and xe > inv_d - _TOL and xe <= inv_d + _TOL:
            # boundary case: strict inequality up to float noise
            continue
        if not ok:
            return {"ok": False,
                    "violation": f"edge ({u},{v}) neither heavy nor blocked"}
    return {"ok": True}


def required_degree_bound(n: int, c: float, eps: float) -> int:
    return math.ceil(9.0 * c * (1 + eps) ** 2 * math.log(max(n, 2)) / eps**2)


def provider_degree_bound(g: DynamicGraph, eps: float) -> int:
    """The provider's default d: the analysis bound at c = 1 + 2*eps,
    floored at max-degree+1, capped at n-1 (for n >= 3), and at least 2.
    It is never below the maximum degree, so every level's color sample in
    `edge_color_and_sparsify` covers the level's whole palette."""
    n = g.n
    max_deg = max(map(len, g.adj), default=0)
    d = max(required_degree_bound(n, 1.0 + 2.0 * eps, eps), max_deg + 1)
    if n >= 3:
        d = min(d, n - 1)
    return max(d, 2)


def spread_value(g: DynamicGraph, e: Edge) -> float:
    """The provider's value on edge e: 1/max(deg u, deg v)."""
    return 1.0 / max(g.degree(e[0]), g.degree(e[1]))


def fractional_provider(g: DynamicGraph, eps: float,
                        d: Optional[int] = None) -> AMfM:
    """Default provider: degree-proportional spread x_e = 1/max(deg u, deg v).

    Feasible (each vertex's sum is at most 1) and approximately maximal: an
    edge whose larger endpoint degree is below d is heavy; otherwise that
    endpoint has all incident values <= 1/d and fractional degree close to 1.
    d defaults to `provider_degree_bound`. Output is validated, never
    assumed.
    """
    if d is None:
        d = provider_degree_bound(g, eps)
    x = FractionalMatching()
    for e in g.edges():
        x.set_value(*e, spread_value(g, e))
    amfm = AMfM(x=x, c=1.0 + 2.0 * eps, d=d)
    report = validate_amfm(g, amfm)
    if not report["ok"]:
        raise ValidationFailed(report["violation"])
    return amfm


# -- kernels ---------------------------------------------------------------


@dataclass
class Kernel:
    """Bounded-degree subgraph: max kernel degree <= d, and every graph edge
    outside it has an endpoint of kernel degree >= d*(1-eps)."""

    edges: List[Edge]
    d: int
    eps: float
    degrees: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.degrees:
            for (u, v) in self.edges:
                self.degrees[u] = self.degrees.get(u, 0) + 1
                self.degrees[v] = self.degrees.get(v, 0) + 1

    def degree(self, v: int) -> int:
        return self.degrees.get(v, 0)


def validate_kernel(g: DynamicGraph, k: Kernel) -> dict:
    for v, dv in k.degrees.items():
        if dv > k.d:
            return {"ok": False, "violation": f"kernel degree {dv} > {k.d} at {v}"}
    kernel_set = {norm_edge(u, v) for (u, v) in k.edges}
    threshold = k.d * (1.0 - k.eps)
    for (u, v) in g.edges():
        if norm_edge(u, v) in kernel_set:
            continue
        if k.degree(u) < threshold and k.degree(v) < threshold:
            return {"ok": False,
                    "violation": f"excluded edge ({u},{v}) lacks a "
                                 f"near-{k.d}-degree endpoint"}
    return {"ok": True}


def level_of(xe: float, eps: float) -> int:
    """Level i with x_e in ((1+eps)^-i, (1+eps)^-(i-1)]."""
    return max(1, math.floor(-math.log(xe) / math.log1p(eps) + 1e-12) + 1)


def greedy_level_coloring(edges: List[Edge], palette: int) -> Dict[Edge, int]:
    """First-free proper edge coloring within one level."""
    used: Dict[int, Set[int]] = {}
    coloring: Dict[Edge, int] = {}
    for (u, v) in edges:
        taken = used.setdefault(u, set()) | used.setdefault(v, set())
        for color in range(palette):
            if color not in taken:
                coloring[(u, v)] = color
                used[u].add(color)
                used[v].add(color)
                break
        else:
            raise KernelValidationFailed(
                f"palette {palette} exhausted within a level")
    return coloring


def edge_color_and_sparsify(g: DynamicGraph, amfm: AMfM, eps: float,
                            d: Optional[int] = None, seed: int = 0) -> Kernel:
    """Union of sampled color classes across the value levels of the AMfM.

    Levels partition edges by x-value ranges; each level gets a palette of
    2*ceil((1+eps)^i) colors of which min(2*ceil(d(1+eps)), palette) are
    sampled without replacement. When the sample covers the whole palette the
    coloring is irrelevant and the level is taken wholesale. Resamples with a
    fresh seed up to 3 times if the validator rejects.
    """
    if d is None:
        d = amfm.d
    n = g.n
    max_level = math.ceil(2 * math.log(max(n, 2) / eps) / math.log1p(eps))
    levels: Dict[int, List[Edge]] = {}
    for e, xe in amfm.x.x.items():
        i = level_of(xe, eps)
        if i <= max_level:
            levels.setdefault(i, []).append(e)
    sample_cap = 2 * math.ceil(d * (1 + eps))
    last_error = None
    for attempt in range(3):
        rng = random.Random((seed << 2) | attempt)
        kernel_edges: List[Edge] = []
        for i in sorted(levels):
            palette = 2 * math.ceil((1 + eps) ** i)
            count = min(sample_cap, palette)
            if count >= palette:
                kernel_edges.extend(levels[i])
                continue
            coloring = greedy_level_coloring(levels[i], palette)
            chosen = set(rng.sample(range(palette), count))
            kernel_edges.extend(e for e, c in coloring.items() if c in chosen)
        kern = Kernel(edges=kernel_edges, d=d, eps=eps)
        report = validate_kernel(g, kern)
        if report["ok"]:
            return kern
        last_error = report["violation"]
    raise KernelValidationFailed(last_error or "kernel resampling failed")


def level_ordered_kernel(g: DynamicGraph, eps: float) -> Kernel:
    """The kernel `edge_color_and_sparsify` returns for `fractional_provider`'s
    AMfM, built straight from the live graph. Under `provider_degree_bound`
    every level is taken wholesale, so that kernel is every edge ordered by
    the level of its spread value, ascending, in insertion order within a
    level. The level depends only on d = max(deg u, deg v), so it is computed
    once per distinct d, and one pass over the edges buckets them by level
    and reads the kernel's degrees from the adjacency."""
    adj = g.adj
    degrees: Dict[int, int] = {}
    levels: Dict[int, List[Edge]] = {}
    bucket_of: Dict[int, List[Edge]] = {}
    for e in g.edges():
        du = degrees[e[0]] = len(adj[e[0]])
        dv = degrees[e[1]] = len(adj[e[1]])
        d = du if du > dv else dv
        bucket = bucket_of.get(d)
        if bucket is None:
            # 1.0 / d is the float `spread_value` gives
            bucket = bucket_of[d] = levels.setdefault(
                level_of(1.0 / d, eps), [])
        bucket.append(e)
    return Kernel(edges=[e for i in sorted(levels) for e in levels[i]],
                  d=provider_degree_bound(g, eps), eps=eps, degrees=degrees)


# -- static matching extraction -------------------------------------------


@dataclass
class AMMState:
    """Matching plus explicit removal witness making maximality checkable."""

    matching: Matching
    witness: Set[int] = field(default_factory=set)


def high_degree_nodes(k: Kernel) -> List[int]:
    threshold = k.d * (1.0 - k.eps)
    return [v for v, dv in k.degrees.items() if dv >= threshold]


def static_amm_from_kernel(g: DynamicGraph, k: Kernel, eps: float,
                           hk: Optional[Set[int]] = None) -> AMMState:
    """Max-weight matching under w_e = |e cut high-degree set|, extended to a
    maximal matching of the kernel; witness = unmatched high-degree nodes.
    `hk` is the kernel's high-degree set when the caller has computed it."""
    if hk is None:
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
    pair, which the repair rule eliminates). `AMMMaintainer` inherits this
    rule; the estimator's contraction members and tradeoff source use it
    directly.
    """

    def __init__(self, g: DynamicGraph):
        self.m = Matching()
        self.g = g

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        m = self.m
        u, v = ev.u, ev.v
        if ev.kind == "i":
            if u not in m.partner and v not in m.partner:
                m.add(u, v)
        elif ev.kind == "d" and m.partner.get(u) == v:
            m.remove(u, v)
            self._rematch(g, u)
            self._rematch(g, v)

    def _rematch(self, g: DynamicGraph, v: int) -> None:
        partner = self.m.partner
        if v in partner:
            return
        for w in g.neighbors(v):
            if w not in partner:
                self.m.add(v, w)
                return


class AMMMaintainer(DynamicMaximalMatching):
    """Epoch-based maintainer registered as a graph listener.

    Between rebuilds the inherited repair rule keeps the live matching `m`
    maximal. Epoch length tracks eps*mu_hat/3 with mu_hat = 2|M| (a
    <=3-approximation since the live matching is maximal); at the end of
    every epoch `rebuild` recomputes the matching from the live graph and
    swaps it in. The latest rebuild's branch and sizes are kept for
    checkpoint audits.
    """

    def __init__(self, g: DynamicGraph, eps: float):
        super().__init__(g)
        self.eps = eps
        self.witness: Set[int] = set()
        self.epoch_index = 0
        self.updates_in_epoch = 0
        self.rebuild_count = 0
        self.work = 0
        self.last_rebuild_report: dict = {}
        self._set_epoch_length()

    # -- size estimate -----------------------------------------------------

    def matching(self) -> Matching:
        return self.m

    @property
    def state(self) -> AMMState:
        """The live matching with the latest rebuild's removal witness."""
        return AMMState(matching=self.m, witness=self.witness)

    def mu_hat(self) -> int:
        return max(1, 2 * len(self.m))

    def _set_epoch_length(self) -> None:
        self.epoch_length = max(1, int(self.eps * self.mu_hat() / 3))

    # -- update path -------------------------------------------------------

    def on_update(self, g: DynamicGraph, ev: UpdateEvent) -> None:
        self.work += 1
        # an explicit base call: cheaper than super() on every update
        DynamicMaximalMatching.on_update(self, g, ev)
        self.updates_in_epoch += 1
        if self.updates_in_epoch >= self.epoch_length:
            self.epoch_index += 1
            self.updates_in_epoch = 0
            self.rebuild()

    def rebuild(self) -> None:
        """Recompute the matching from the live graph and swap it in.

        While 2|M| is below 1/eps it is a greedy maximal matching in edge
        order (the small-size branch). Otherwise it is extracted from
        `level_ordered_kernel`, the kernel the library pipeline would
        return, without running that pipeline.
        """
        g = self.g
        self.rebuild_count += 1
        self.work += g.m + g.n
        report: dict = {"epoch": self.epoch_index}
        if g.m == 0:
            self.m, self.witness = Matching(), set()
            report["empty"] = True
        elif 2 * len(self.m) < 1.0 / self.eps:
            self.m, self.witness = first_pass_matching(g.edges()), set()
            report.update(branch="small-direct", kernel_edges=g.m)
        else:
            kern = level_ordered_kernel(g, self.eps)
            hk = set(high_degree_nodes(kern))
            state = static_amm_from_kernel(g, kern, self.eps, hk)
            self.m, self.witness = state.matching, state.witness
            report.update(branch="kernel", kernel_edges=len(kern.edges),
                          high_degree=len(hk))
        self._set_epoch_length()
        self.last_rebuild_report = report
