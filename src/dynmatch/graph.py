"""Dynamic graph storage, update events, and solution-object validation.

The graph is the single source of truth under edge insertions/deletions.
Solution containers (Matching, BMatching) carry enough state to be validated
independently against a graph; an approximately-maximal fractional matching
is a plain edge->value map, validated by `amm.validate_amfm`.

All iteration surfaces (edges, adjacency) follow insertion order, so a fixed
update stream yields fully deterministic downstream behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Edge = Tuple[int, int]


class GraphError(Exception):
    pass


class SelfLoop(GraphError):
    pass


class OutOfRange(GraphError):
    pass


class DuplicateInsert(GraphError):
    pass


class MissingDelete(GraphError):
    pass


class NotMaximal(GraphError):
    pass


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an unordered pair."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class UpdateEvent:
    """A single stream event: kind 'i' (insert), 'd' (delete) or 'q' (query)."""

    kind: str
    u: int = -1
    v: int = -1

    def edge(self) -> Edge:
        return norm_edge(self.u, self.v)


class DynamicGraph:
    """Undirected simple graph on a fixed vertex set [0, n).

    Edge membership is a hashed unordered-pair index (expected O(1) lookup);
    adjacency is per-vertex insertion-ordered dicts used as ordered sets.
    """

    def __init__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not an int >= 0")
        self.n = n
        self._edges: Dict[Edge, None] = {}
        self.adj: List[Dict[int, None]] = [dict() for _ in range(n)]
        self._listeners: list = []
        # coarse operation counter for scaling reports
        self.ops = 0

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> List[int]:
        return [len(a) for a in self.adj]

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter(self.adj[v])

    def edge_exists(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return norm_edge(u, v) in self._edges

    def _check_pair(self, u: int, v: int) -> None:
        # the ids are the ints in [0, n): a float such as 1.0 hashes like
        # its int, so `apply` would write the edge index and then fail to
        # index the adjacency
        if not (type(u) is int and type(v) is int
                and 0 <= u < self.n and 0 <= v < self.n):
            raise OutOfRange(
                f"vertex pair ({u!r},{v!r}) not two ints in [0,{self.n})")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")

    # -- updates -----------------------------------------------------------

    def register(self, listener) -> None:
        """Listeners get .on_update(graph, event) once per applied event,
        in registration order."""
        self._listeners.append(listener)

    def insert(self, u: int, v: int) -> None:
        self.apply(UpdateEvent("i", u, v))

    def delete(self, u: int, v: int) -> None:
        self.apply(UpdateEvent("d", u, v))

    def apply(self, ev: UpdateEvent) -> None:
        """Apply one event; rejects invalid events without state change."""
        if ev.kind == "q":
            return
        self._check_pair(ev.u, ev.v)
        e = ev.edge()
        if ev.kind == "i":
            if e in self._edges:
                raise DuplicateInsert(f"edge {e} already present")
            self._edges[e] = None
            self.adj[e[0]][e[1]] = None
            self.adj[e[1]][e[0]] = None
        elif ev.kind == "d":
            if e not in self._edges:
                raise MissingDelete(f"edge {e} absent")
            del self._edges[e]
            del self.adj[e[0]][e[1]]
            del self.adj[e[1]][e[0]]
        else:
            raise GraphError(f"unknown event kind {ev.kind!r}")
        self.ops += 1
        for listener in self._listeners:
            listener.on_update(self, ev)


class Matching:
    """A vertex-disjoint edge set, stored as its symmetric partner map. An
    edge's two entries are added and removed together, so the map's order
    is the edges' insertion order."""

    def __init__(self, edges: Iterable[Edge] = ()):
        self.partner: Dict[int, int] = {}
        for (u, v) in edges:
            self.add(u, v)

    def __len__(self) -> int:
        return len(self.partner) >> 1

    def __contains__(self, e: Edge) -> bool:
        u, v = e
        return self.partner.get(u) == v

    def edges(self) -> List[Edge]:
        return [(u, v) for u, v in self.partner.items() if u < v]

    def is_matched(self, v: int) -> bool:
        return v in self.partner

    def add(self, u: int, v: int) -> None:
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        if u in self.partner or v in self.partner:
            raise GraphError(f"endpoint of ({u},{v}) already matched")
        self.partner[u] = v
        self.partner[v] = u

    def remove(self, u: int, v: int) -> None:
        if self.partner.get(u) != v:
            raise GraphError(f"edge {norm_edge(u, v)} not in matching")
        del self.partner[u]
        del self.partner[v]

    def vertices(self) -> List[int]:
        return list(self.partner)


def first_pass_matching(edges: Iterable[Edge]) -> Matching:
    """Greedy maximal matching in the given order: an edge joins when both
    endpoints are free. Every greedy matching the package builds from an
    empty matching is this scan over some order (stream, rank or level
    order)."""
    m = Matching()
    partner = m.partner
    for (u, v) in edges:
        if u != v and u not in partner and v not in partner:
            partner[u] = v
            partner[v] = u
    return m


class BMatching:
    """Multiset of edges with per-vertex capacities and load tracking."""

    def __init__(self, caps: Dict[int, int]):
        for v, b in caps.items():
            if b <= 0:
                raise ValueError(f"capacity of {v} must be positive")
        self.caps = dict(caps)
        self.mult: Dict[Edge, int] = {}
        self.load: Dict[int, int] = {v: 0 for v in caps}

    @property
    def size(self) -> int:
        return sum(self.mult.values())

    def residual(self, v: int) -> int:
        return self.caps[v] - self.load[v]

    def add(self, u: int, v: int, count: int = 1) -> None:
        if count <= 0:
            return
        if self.residual(u) < count or self.residual(v) < count:
            raise GraphError(f"capacity breach adding {count}x ({u},{v})")
        e = norm_edge(u, v)
        self.mult[e] = self.mult.get(e, 0) + count
        self.load[u] += count
        self.load[v] += count

    def check_maximal(self, edges: Iterable[Edge]) -> None:
        """Raise NotMaximal unless every edge has a saturated endpoint."""
        for (u, v) in edges:
            if self.residual(u) > 0 and self.residual(v) > 0:
                raise NotMaximal(f"b-matching not maximal at ({u},{v})")


def validate(g: DynamicGraph, sol) -> None:
    """Check a solution object against its invariants and the host graph.

    Raises at the first failure: OutOfRange for a vertex outside [0, n),
    GraphError for any other. An object that is neither a Matching nor a
    BMatching raises TypeError.
    """
    if isinstance(sol, Matching):
        seen: Dict[int, Edge] = {}
        for (u, v) in sol.edges():
            if not (0 <= u < g.n and 0 <= v < g.n):
                raise OutOfRange(f"vertex out of range in ({u},{v})")
            if not g.edge_exists(u, v):
                raise GraphError(f"edge ({u},{v}) missing from graph")
            for w in (u, v):
                if w in seen:
                    raise GraphError(f"vertex {w} matched twice")
                seen[w] = (u, v)
        for v, p in sol.partner.items():
            if sol.partner.get(p) != v:
                raise GraphError(f"partner map asymmetric at {v}")
    elif isinstance(sol, BMatching):
        loads: Dict[int, int] = {}
        for (u, v), c in sol.mult.items():
            if not g.edge_exists(u, v):
                raise GraphError(f"edge ({u},{v}) missing from graph")
            loads[u] = loads.get(u, 0) + c
            loads[v] = loads.get(v, 0) + c
        for v, used in loads.items():
            if v not in sol.caps:
                raise GraphError(f"vertex {v} has no capacity")
            if used > sol.caps[v]:
                raise GraphError(f"capacity breach at {v}")
            if sol.load.get(v, 0) != used:
                raise GraphError(f"load cache stale at {v}")
    else:
        raise TypeError(f"cannot validate object of type {type(sol)!r}")


# -- shared update-stream text format -------------------------------------


def parse_stream_lines(lines: Iterable[str]) -> List[UpdateEvent]:
    """Parse the shared text format: `i u v`, `d u v`, `q`, `# comment`."""
    events: List[UpdateEvent] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "q":
            if len(parts) != 1:
                raise GraphError(f"line {lineno}: malformed query marker")
            events.append(UpdateEvent("q"))
        elif parts[0] in ("i", "d"):
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected '{parts[0]} u v'")
            try:
                u, v = map(int, parts[1:])
            except ValueError:
                raise GraphError(
                    f"line {lineno}: non-integer vertex id") from None
            events.append(UpdateEvent(parts[0], u, v))
        else:
            raise GraphError(f"line {lineno}: unknown event {parts[0]!r}")
    return events


def read_stream(path: str) -> List[UpdateEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream_lines(fh)


def format_event(ev: UpdateEvent) -> str:
    if ev.kind == "q":
        return "q"
    return f"{ev.kind} {ev.u} {ev.v}"


def write_stream(path: str, events: Iterable[UpdateEvent],
                 header: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for ev in events:
            fh.write(format_event(ev) + "\n")
