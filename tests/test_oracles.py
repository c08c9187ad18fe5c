import random

import networkx as nx
import pytest

from dynmatch.graph import DynamicGraph, Matching
from dynmatch import oracles
from dynmatch.oracles import (RankFunction, amm_witness_check, bipartition,
                              count_disjoint_3aug, greedy_maximal_matching,
                              max_matching_exact, max_matching_size)


def build(n, edges):
    g = DynamicGraph(n)
    for (u, v) in edges:
        g.insert(u, v)
    return g


PATH4 = [(0, 1), (1, 2), (2, 3)]


def test_rank_function_deterministic_and_tie_broken():
    r1, r2 = RankFunction(7), RankFunction(7)
    assert r1.rank(3, 5) == r2.rank(5, 3)
    assert RankFunction(8).rank(3, 5) != r1.rank(3, 5)
    keys = {r1.sort_key(a, b) for a in range(20) for b in range(a + 1, 20)}
    assert len(keys) == 190  # all distinct after tie-break


def test_rank_function_rejects_a_seed_that_is_not_an_int():
    for seed in (1.0, 1.5, "1", True, False, None):
        with pytest.raises(ValueError, match="seed"):
            RankFunction(seed)


def test_max_matching_examples():
    assert max_matching_size(build(8, [(i, i + 4) for i in range(4)])) == 4
    assert max_matching_size(build(3, [(0, 1), (1, 2), (0, 2)])) == 1
    petersen = nx.petersen_graph()
    g = build(10, list(petersen.edges()))
    assert max_matching_size(g) == 5


def test_bipartite_route_matches_general_route():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(2, 14)
        g = DynamicGraph(n)
        h = n // 2
        for u in range(h):
            for v in range(h, n):
                if rng.random() < 0.4:
                    g.insert(u, v)
        size, m = max_matching_exact(g)
        gx = nx.Graph()
        gx.add_edges_from(g.edges())
        assert size == len(nx.max_weight_matching(gx, maxcardinality=True))
        assert len(m) == size


def test_bipartite_route_on_long_shuffled_paths():
    # with shuffled ids an augmenting path can run through thousands of
    # layers; the search must not recurse once per layer
    n = 5000
    for seed in range(5):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        g = build(n, zip(perm, perm[1:]))
        size, m = max_matching_exact(g)
        assert size == len(m) == n // 2
        assert all(g.edge_exists(u, v) for (u, v) in m.edges())


def test_bipartition_detects_odd_cycle():
    assert bipartition(build(3, [(0, 1), (1, 2), (0, 2)])) is None
    color = bipartition(build(4, PATH4))
    assert color is not None and color[0] != color[1]


def test_greedy_trace_forced_choices():
    # ranks with rank(0,1) < rank(1,2): only {01} survives on a 2-edge path
    for seed in range(50):
        r = RankFunction(seed)
        g = build(3, [(0, 1), (1, 2)])
        m = greedy_maximal_matching(g, r)
        low = min([(0, 1), (1, 2)], key=lambda e: r.sort_key(*e))
        assert m.edges() == [low]


def test_greedy_disjoint_edges_all_taken():
    g = build(8, [(i, i + 4) for i in range(4)])
    assert len(greedy_maximal_matching(g, RankFunction(0))) == 4


def test_greedy_middle_edge_first_on_path():
    for seed in range(200):
        r = RankFunction(seed)
        if r.sort_key(1, 2) == min(r.sort_key(*e) for e in PATH4):
            m = greedy_maximal_matching(build(4, PATH4), r)
            assert m.edges() == [(1, 2)]
            break
    else:
        pytest.fail("no seed put the middle edge first")


def test_greedy_output_always_maximal():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randrange(2, 16)
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    g.insert(u, v)
        m = greedy_maximal_matching(g, RankFunction(trial))
        for (u, v) in g.edges():
            assert m.is_matched(u) or m.is_matched(v)


def test_count_disjoint_3aug_examples():
    g = build(4, PATH4)
    assert count_disjoint_3aug(g, Matching([(1, 2)])) == 1
    pm = build(8, [(i, i + 4) for i in range(4)])
    assert count_disjoint_3aug(pm, Matching([(i, i + 4) for i in range(4)])) == 0
    c6 = build(6, [(i, (i + 1) % 6) for i in range(6)])
    assert count_disjoint_3aug(c6, Matching([(0, 1), (2, 3), (4, 5)])) == 0


def test_count_disjoint_3aug_two_paths():
    # two disjoint copies of a 4-path, middles matched
    edges = PATH4 + [(u + 4, v + 4) for (u, v) in PATH4]
    g = build(8, edges)
    m = Matching([(1, 2), (5, 6)])
    assert count_disjoint_3aug(g, m) == 2


def test_amm_witness_check_examples():
    g = build(4, PATH4)
    assert amm_witness_check(g, Matching([(0, 1), (2, 3)]), 0.0, 2)
    assert not amm_witness_check(g, Matching(), 0.4, 2)
    g10 = build(20, [(i, i + 10) for i in range(10)])
    m9 = Matching([(i, i + 10) for i in range(9)])
    assert amm_witness_check(g10, m9, 0.2, 10)
    assert not amm_witness_check(g10, m9, 0.05, 10)


def test_witness_parameter_implies_size_bound():
    # every matching accepted at eps has size >= (1/2 - eps/2) * mu
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(2, 12)
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    g.insert(u, v)
        if g.m == 0:
            continue
        mu = max_matching_size(g)
        m = greedy_maximal_matching(g, RankFunction(trial))
        # drop one edge to create an imperfect candidate
        dropped = Matching(m.edges()[1:])
        for eps in (0.0, 0.5, 1.0):
            if amm_witness_check(g, dropped, eps, mu):
                assert len(dropped) >= (0.5 - eps / 2.0) * mu - 1e-9
