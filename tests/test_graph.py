import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dynmatch.graph import (BMatching, DuplicateInsert, DynamicGraph,
                            GraphError, Matching,
                            MissingDelete, NotMaximal, OutOfRange, SelfLoop,
                            UpdateEvent,
                            format_event, norm_edge, parse_stream_lines,
                            read_stream, validate, write_stream)


def test_insert_delete_roundtrip():
    g = DynamicGraph(4)
    g.insert(0, 1)
    g.insert(2, 3)
    assert g.m == 2
    assert g.edge_exists(1, 0)
    g.delete(1, 0)
    assert g.m == 1
    assert not g.edge_exists(0, 1)


def test_invalid_updates_rejected_without_state_change():
    g = DynamicGraph(3)
    g.insert(0, 1)
    with pytest.raises(DuplicateInsert):
        g.insert(1, 0)
    with pytest.raises(MissingDelete):
        g.delete(1, 2)
    with pytest.raises(SelfLoop):
        g.insert(2, 2)
    with pytest.raises(OutOfRange):
        g.insert(0, 3)
    # a float id hashes like the int but cannot index the adjacency: it is
    # refused before any write, whether it names a new or a live edge
    for ev in (UpdateEvent("i", 1.0, 2), UpdateEvent("i", 1, 2.5),
               UpdateEvent("d", 0.0, 1)):
        with pytest.raises(OutOfRange):
            g.apply(ev)
    assert g.m == 1 and g.ops == 1
    assert list(g.edges()) == [(0, 1)] and g.degrees() == [1, 1, 0]
    g.insert(1, 2)
    assert list(g.edges()) == [(0, 1), (1, 2)] and g.degrees() == [1, 2, 1]


def test_vertex_count_is_a_nonnegative_int():
    assert DynamicGraph(0).n == 0 and DynamicGraph(3).adj == [{}, {}, {}]
    for n in (True, False, 3.0, -1, "3", None):
        with pytest.raises(ValueError):
            DynamicGraph(n)


def test_listeners_called_in_registration_order():
    calls = []

    class L:
        def __init__(self, tag):
            self.tag = tag

        def on_update(self, g, ev):
            calls.append((self.tag, ev.kind))

    g = DynamicGraph(3)
    g.register(L("a"))
    g.register(L("b"))
    g.insert(0, 1)
    g.delete(0, 1)
    assert calls == [("a", "i"), ("b", "i"), ("a", "d"), ("b", "d")]


def test_edges_follow_insertion_order():
    g = DynamicGraph(5)
    seq = [(3, 4), (0, 2), (1, 0)]
    for e in seq:
        g.insert(*e)
    assert list(g.edges()) == [norm_edge(*e) for e in seq]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
def test_adjacency_consistent_with_edge_set(pairs):
    g = DynamicGraph(10)
    live = set()
    for (u, v) in pairs:
        if u == v:
            continue
        e = norm_edge(u, v)
        if e in live:
            g.delete(u, v)
            live.discard(e)
        else:
            g.insert(u, v)
            live.add(e)
    assert set(g.edges()) == live
    for v in range(10):
        for w in g.neighbors(v):
            assert norm_edge(v, w) in live
    assert sum(g.degrees()) == 2 * len(live)


def test_matching_container():
    m = Matching([(0, 1)])
    assert len(m) == 1 and m.is_matched(0) and (1, 0) in m
    with pytest.raises(GraphError):
        m.add(1, 2)
    m.add(2, 3)
    m.remove(0, 1)
    assert not m.is_matched(0) and len(m) == 1


def test_matching_follows_an_edge_list_model():
    """Random add/remove sequences on few vertices, so that removed edges
    come back: edges() keeps insertion order, and len, `in` and a rejected
    add or remove agree with a plain list of edges."""
    rng = random.Random(9)
    readds = 0
    for _ in range(200):
        m, model, removed = Matching(), [], set()
        for _ in range(60):
            u, v = rng.sample(range(8), 2)
            e = norm_edge(u, v)
            if rng.random() < 0.6:
                if any(w in f for f in model for w in e):
                    with pytest.raises(GraphError):
                        m.add(u, v)
                else:
                    m.add(u, v)
                    model.append(e)
                    readds += e in removed
            elif e in model:
                m.remove(u, v)
                model.remove(e)
                removed.add(e)
            else:
                with pytest.raises(GraphError):
                    m.remove(u, v)
            assert m.edges() == model
            assert len(m.partner) == 2 * len(m) == 2 * len(model)
            assert ((u, v) in m) == ((v, u) in m) == (e in model)
            assert all(m.partner[a] == b and m.partner[b] == a
                       for a, b in model)
    assert readds > 0


def test_bmatching_capacities():
    bm = BMatching({0: 2, 1: 1, 2: 1})
    bm.add(0, 1)
    bm.add(0, 2)
    assert bm.size == 2 and bm.residual(0) == 0
    with pytest.raises(GraphError):
        bm.add(0, 1)
    with pytest.raises(ValueError):
        BMatching({0: 0})


def test_bmatching_maximality_check_raises():
    bm = BMatching({0: 2, 1: 1, 2: 1})
    bm.add(0, 1)
    bm.check_maximal([(0, 1)])  # 1 is saturated
    with pytest.raises(NotMaximal):
        bm.check_maximal([(0, 1), (0, 2)])  # 0 and 2 both have room
    bm.add(0, 2)
    bm.check_maximal([(0, 1), (0, 2), (1, 2)])


def test_validate_solutions():
    """A valid solution passes; each fault raises at its first failure,
    OutOfRange for an id outside [0, n) and GraphError for the rest."""
    g = DynamicGraph(4)
    for e in [(0, 1), (1, 2), (2, 3)]:
        g.insert(*e)
    validate(g, Matching([(0, 1), (2, 3)]))
    with pytest.raises(OutOfRange, match=r"\(0,7\)"):
        validate(g, Matching([(0, 7)]))
    # partner maps no Matching.add builds: 1 in two edges, 3 -> 2 alone
    for partner, why in (({0: 2, 2: 0}, "edge (0,2) missing"),
                         ({0: 1, 1: 2}, "vertex 1 matched twice"),
                         ({0: 1, 1: 0, 3: 2}, "asymmetric at 3")):
        bad = Matching()
        bad.partner.update(partner)
        with pytest.raises(GraphError, match=re.escape(why)):
            validate(g, bad)
    bm = BMatching({0: 1, 1: 1})
    bm.add(0, 1)
    validate(g, bm)
    for fault, why in ((lambda b: b.mult.update({(0, 3): 1}), "(0,3) missing"),
                       (lambda b: b.mult.update({(2, 3): 1}),
                        "2 has no capacity"),
                       (lambda b: b.mult.update({(0, 1): 2}),
                        "capacity breach at 0"),
                       (lambda b: b.load.update({0: 0}), "stale at 0")):
        bad = BMatching({0: 1, 1: 1})
        bad.add(0, 1)
        fault(bad)
        with pytest.raises(GraphError, match=re.escape(why)):
            validate(g, bad)
    with pytest.raises(TypeError):
        validate(g, [(0, 1)])


def test_stream_format_roundtrip(tmp_path):
    events = [UpdateEvent("i", 0, 1), UpdateEvent("q"), UpdateEvent("d", 0, 1)]
    path = str(tmp_path / "s.txt")
    write_stream(path, events, header="hello\nworld")
    assert read_stream(path) == events
    assert format_event(events[1]) == "q"


def test_stream_parse_errors_and_comments():
    assert parse_stream_lines(["# c", "", "i 1 2"]) == [UpdateEvent("i", 1, 2)]
    with pytest.raises(GraphError):
        parse_stream_lines(["x 1 2"])
    with pytest.raises(GraphError):
        parse_stream_lines(["i 1"])
    with pytest.raises(GraphError):
        parse_stream_lines(["q 3"])
    # a non-integer vertex id names its line like every other error
    with pytest.raises(GraphError, match="line 2"):
        parse_stream_lines(["i 0 1", "i 1 x"])
