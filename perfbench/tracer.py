"""Per-layer tracing for the benchmark, done entirely from outside the package.

`Tracer.installed()` replaces the public functions and methods of each layer
with wrappers that record a span around every call, and restores the
originals on exit. Nothing under `src/` is edited. Each span records its
name, its parent, the request (root span) it belongs to, its start and its
duration. Self time is a span's duration minus the time its child spans
cover, accumulated per name while the run goes, so the per-layer totals need
no span to be kept. The span log itself is kept in memory up to a cap and
written out when the run ends.

Attribution rules, which the wrappers decide from the call's arguments:

- `DynamicGraph.apply` opens a `graph.apply` span only for a graph registered
  with `own()`. Applies on contracted member graphs happen inside
  `estimator.route`, so their time lands in that span's self time.
- `bipartite_query` and `general_query` are named `estimator.identity_query`
  on an owned graph and `estimator.member_query` on a member graph.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from dynmatch import amm, estimator, graph, oracles, sublinear

# A span's layer is the part of its name before the first dot.
LAYERS = ("graph", "amm", "estimator", "streaming", "oracles", "sublinear")

# spans kept in the log of one traced replay; later ones are only counted
LOG_CAP = 100_000

# (owner, attribute, span name); owner is a module or a class. Module
# attributes are patched where the caller looks them up at call time.
_SIMPLE: List[Tuple[object, str, str]] = [
    (estimator.Estimator, "apply", "estimator.apply"),
    (estimator.Estimator, "estimate", "estimator.estimate"),
    (estimator.ContractionFamily, "on_update", "estimator.route"),
    (amm.AMMMaintainer, "on_update", "amm.update"),
    (amm.AMMMaintainer, "rebuild", "amm.rebuild"),
    (amm, "fractional_provider", "amm.provider"),
    (amm, "validate_amfm", "amm.validate_amfm"),
    (amm, "edge_color_and_sparsify", "amm.sparsify"),
    (amm, "validate_kernel", "amm.validate_kernel"),
    (amm, "static_amm_from_kernel", "amm.extract"),
    (estimator, "second_pass_bipartite", "streaming.second_pass_bipartite"),
    (estimator, "second_pass_general", "streaming.second_pass_general"),
    (estimator, "random_bipartition", "streaming.random_bipartition"),
    (oracles, "bipartition", "oracles.bipartition"),
    (sublinear, "estimate_pair_matched", "sublinear.estimate_pair_matched"),
    (oracles.RankFunction, "rank", "sublinear.rank"),
    (oracles.RankFunction, "sort_key", "sublinear.sort_key"),
    (sublinear.ImplicitSupergraph, "neighbors_of", "sublinear.neighbors_of"),
]


class Tracer:
    """Span recorder with online self-time accounting."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.gauges: Dict[str, float] = {}
        # (name, span id, parent id, root id, start ns, duration ns)
        self.spans: List[Optional[tuple]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._own: set = set()
        self._kernel_ratios: List[float] = []
        self._branches: Counter = Counter()

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name: str) -> None:
        sid = -1
        if len(self.spans) < LOG_CAP:
            sid = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, time.perf_counter_ns(), 0, sid])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        self.calls[name] += 1
        parent = root = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
            root = self._stack[0][3]
        if sid >= 0:
            self.spans[sid] = (name, sid, parent, root, start, dur)
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (generation, references)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def own(self, g) -> None:
        """Mark `g` as a served graph: its applies are `graph.apply` spans
        and queries on it are identity queries."""
        self._own.add(id(g))

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, orig: Callable, namer, after=None):
        """Wrap `orig` in a span; `namer` is the span name, or a function of
        the call's arguments giving the name or None for no span."""
        enter, leave = self._enter, self._exit
        if isinstance(namer, str) and after is None:
            name = namer

            def traced_fixed(*args, **kwargs):
                enter(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    leave()

            return traced_fixed
        if isinstance(namer, str):
            namer = (lambda _args, _name=namer: _name)

        def traced(*args, **kwargs):
            name = namer(args)
            if name is None:
                return orig(*args, **kwargs)
            enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _counter(self, orig: Callable, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    def _after_rebuild(self, args, _out) -> None:
        maint = args[0]
        rep = maint.last_rebuild_report
        if rep.get("empty"):
            return
        self._branches[rep.get("branch", "")] += 1
        if maint.g.m:
            self._kernel_ratios.append(rep["kernel_edges"] / maint.g.m)

    def _after_route(self, args, _out) -> None:
        family, _g, ev = args
        self.gauges["estimator.members"] = len(family.members)
        if ev.kind != "q":
            self.counts["estimator.member_applies"] += len(family.members)

    def _after_estimate(self, _args, out) -> None:
        self.counts["estimator.estimates"] += 1
        if out.components.get("scale", -1) != -1:
            self.counts["estimator.member_wins"] += 1

    def _after_bipartition(self, _args, out) -> None:
        if out is None:
            self.counts["oracles.nonbipartite"] += 1

    def _patches(self) -> List[Tuple[object, str, Callable]]:
        after = {
            "amm.rebuild": self._after_rebuild,
            "estimator.route": self._after_route,
            "estimator.estimate": self._after_estimate,
            "oracles.bipartition": self._after_bipartition,
        }
        out = []
        for owner, attr, name in _SIMPLE:
            orig = getattr(owner, attr)
            out.append((owner, attr,
                        self._wrapper(orig, name, after.get(name))))
        own = self._own

        def graph_name(args):
            return "graph.apply" if id(args[0]) in own else None

        def query_name(args):
            return ("estimator.identity_query" if id(args[0]) in own
                    else "estimator.member_query")

        out.append((graph.DynamicGraph, "apply",
                    self._wrapper(graph.DynamicGraph.apply, graph_name)))
        for attr in ("bipartite_query", "general_query"):
            out.append((estimator, attr,
                        self._wrapper(getattr(estimator, attr), query_name)))
        out.append((sublinear.AdjacencyOracle, "edge_exists",
                    self._counter(sublinear.AdjacencyOracle.edge_exists,
                                  "sublinear.probes")))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in; restore the exact originals on exit."""
        saved = []
        try:
            for owner, attr, fn in self._patches():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def served_seconds(self) -> float:
        """Total time inside served calls (the roots of traced replay)."""
        return sum(self.self_ns.values()) / 1e9

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of one traced replay round."""
        s, c, k = self.seconds, self.calls, self.counts
        estimates = k["estimator.estimates"]
        bip = c["oracles.bipartition"]
        rebuilds = sum(self._branches.values())
        out = {
            "graph.apply_s": s("graph.apply"),
            "graph.apply_calls": c["graph.apply"],
            "amm.update_s": s("amm.update"),
            "amm.rebuilds": c["amm.rebuild"],
            "amm.rebuild_s": s("amm.rebuild"),
            "amm.provider_s": s("amm.provider"),
            "amm.validate_amfm_s": s("amm.validate_amfm"),
            "amm.sparsify_s": s("amm.sparsify"),
            "amm.validate_kernel_s": s("amm.validate_kernel"),
            "amm.validate_kernel_calls": c["amm.validate_kernel"],
            "amm.extract_s": s("amm.extract"),
            "amm.kernel_edge_ratio": (
                sum(self._kernel_ratios) / len(self._kernel_ratios)
                if self._kernel_ratios else 0.0),
            "amm.kernel_branch_share": (
                self._branches["kernel"] / rebuilds if rebuilds else 0.0),
            "estimator.apply_s": s("estimator.apply"),
            "estimator.estimate_s": s("estimator.estimate"),
            "estimator.route_s": s("estimator.route"),
            "estimator.members": self.gauges.get("estimator.members", 0),
            "estimator.member_applies": k["estimator.member_applies"],
            "estimator.identity_query_s": s("estimator.identity_query"),
            "estimator.member_query_s": s("estimator.member_query"),
            "estimator.identity_queries": c["estimator.identity_query"],
            "estimator.member_queries": c["estimator.member_query"],
            # inclusive of the streaming and oracles spans below them
            "estimator.identity_query_total_s":
                self.total_ns["estimator.identity_query"] / 1e9,
            "estimator.member_query_total_s":
                self.total_ns["estimator.member_query"] / 1e9,
            "estimator.member_win_share": (
                k["estimator.member_wins"] / estimates if estimates else 0.0),
            "streaming.second_pass_bipartite_s":
                s("streaming.second_pass_bipartite"),
            "streaming.second_pass_bipartite_calls":
                c["streaming.second_pass_bipartite"],
            "streaming.second_pass_general_s":
                s("streaming.second_pass_general"),
            "streaming.second_pass_general_calls":
                c["streaming.second_pass_general"],
            "streaming.random_bipartition_s":
                s("streaming.random_bipartition"),
            "streaming.random_bipartition_calls":
                c["streaming.random_bipartition"],
            "oracles.bipartition_s": s("oracles.bipartition"),
            "oracles.bipartition_calls": bip,
            "oracles.nonbipartite_share": (
                k["oracles.nonbipartite"] / bip if bip else 0.0),
            "sublinear.estimate_s": s("sublinear.estimate_pair_matched"),
            "sublinear.rank_s": s("sublinear.rank"),
            "sublinear.rank_calls": c["sublinear.rank"],
            "sublinear.sort_key_s": s("sublinear.sort_key"),
            "sublinear.sort_key_calls": c["sublinear.sort_key"],
            "sublinear.neighbors_of_s": s("sublinear.neighbors_of"),
            "sublinear.neighbors_of_calls": c["sublinear.neighbors_of"],
            "sublinear.probes": k["sublinear.probes"],
        }
        total = self.served_seconds()
        for layer in LAYERS:
            part = sum(v for name, v in self.self_ns.items()
                       if name.split(".", 1)[0] == layer) / 1e9
            out[f"{layer}.share"] = part / total if total else 0.0
        return out

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the span log as JSON lines: a header, then one span each."""
        with open(path, "w", encoding="utf-8") as fh:
            head = {"type": "header", "dropped": self.dropped,
                    "fields": ["name", "id", "parent", "root", "start_ns",
                               "dur_ns"]}
            if extra:
                head.update(extra)
            fh.write(json.dumps(head) + "\n")
            for rec in self.spans:
                if rec is not None:
                    fh.write(json.dumps(rec) + "\n")
