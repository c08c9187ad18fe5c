import hashlib
import math
import random
import struct

import pytest

from dynmatch.graph import DynamicGraph, Matching, first_pass_matching
from dynmatch import oracles
from dynmatch.oracles import RankFunction
from dynmatch.sublinear import (AdjacencyOracle, BudgetExceeded,
                                ImplicitSupergraph, IndexOutOfClassRange,
                                QueryBudget, _GraphListHost, _LocalGMM,
                                _sampled_hits, estimate_pair_matched,
                                exact_pair_matched_count, gmm_vertex_status,
                                materialized_gmm, mm_size_estimate,
                                n_too_small, pair_matched_sample_count)


def build(n, edges):
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    return g


BIG = QueryBudget(max_probes=None)


def test_probe_counter_increments():
    g = build(3, [(0, 1)])
    o = AdjacencyOracle(g)
    assert o.edge_exists(0, 1) and o.probes == 1
    assert not o.edge_exists(0, 2) and o.probes == 2


def test_local_status_examples():
    g = build(3, [(0, 1), (1, 2)])
    for seed in range(30):
        r = RankFunction(seed)
        host = _GraphListHost(g)
        gm = oracles.greedy_maximal_matching(g, r)
        for v in range(3):
            st = gmm_vertex_status(host, v, r, BIG)
            assert (st == "Matched") == gm.is_matched(v)
    iso = build(2, [])
    assert gmm_vertex_status(_GraphListHost(iso), 0, RankFunction(0), BIG) \
        == "Unmatched"
    pm = build(8, [(i, i + 4) for i in range(4)])
    for v in range(8):
        assert gmm_vertex_status(_GraphListHost(pm), v, RankFunction(1),
                                 BIG) == "Matched"


def test_local_matches_global_on_random_graphs():
    rng = random.Random(0)
    for trial in range(30):
        n = rng.randrange(3, 25)
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    g.insert(u, v)
        r = RankFunction(trial + 100)
        gm = oracles.greedy_maximal_matching(g, r)
        host = _GraphListHost(g)
        for v in range(n):
            st = gmm_vertex_status(host, v, r, BIG)
            assert (st == "Matched") == gm.is_matched(v)


def test_budget_breach_restarts_then_aborts():
    g = DynamicGraph(30)
    for u in range(30):
        for v in range(u + 1, 30):
            g.insert(u, v)
    o = AdjacencyOracle(g)
    h = ImplicitSupergraph(o, 0.5)
    tight = QueryBudget(max_probes=1)
    sim = _LocalGMM(h, RankFunction(0), tight, o)
    sim.begin_query()
    with pytest.raises(BudgetExceeded):
        sim.vertex_matched(("v", 0))


def test_budget_breach_redraws_once():
    """A sampled draw that breaches the budget is replaced by one fresh
    draw, and a breach of that fresh draw raises. The pinned values are
    those each estimator's own sampling loop gave before the loop was
    shared."""
    rng = random.Random(3)
    g = build(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                   if rng.random() < 0.3])
    with pytest.raises(BudgetExceeded):
        mm_size_estimate(g, 0.4, 0, QueryBudget(70), force_sampling=True)
    assert mm_size_estimate(g, 0.4, 0, QueryBudget(100),
                            force_sampling=True) == 3.379545454545455
    # the same loop with the draws counted: each breach costs one more draw
    drawn = []

    def draw(rng):
        drawn.append(rng.randrange(12))
        return [("v", drawn[-1])]

    samples = math.ceil(64.0 * math.log(14) / 0.4**2)
    _sampled_hits(g, 0, 0.1, 0x5EED, samples, draw, QueryBudget(100))
    assert len(drawn) > samples
    g8 = build(8, [(i, 4 + i) for i in range(4)])
    mstar = Matching([(i, 4 + i) for i in range(4)])
    with pytest.raises(BudgetExceeded):
        estimate_pair_matched(g8, mstar, 0.5, 0, sample_constant=4,
                              budget=QueryBudget(30),
                              force_sampling=True)
    assert estimate_pair_matched(g8, mstar, 0.5, 0, sample_constant=4,
                                 budget=QueryBudget(50),
                                 force_sampling=True) == 3.0
    # a single status query has no sample to redraw
    o = AdjacencyOracle(g)
    with pytest.raises(BudgetExceeded):
        gmm_vertex_status(ImplicitSupergraph(o, 0.1), ("v", 0),
                          RankFunction(0), QueryBudget(1), o)


def test_supergraph_sizes_and_rules():
    g = build(5, [(0, 1), (1, 2), (3, 4)])
    o = AdjacencyOracle(g)
    h = ImplicitSupergraph(o, 0.7)
    assert h.s == math.ceil(10 * 5 / 0.7)
    assert h.num_vertices == 2 * 5 + 25 + 5 * h.s
    # base vertex: j-th neighbor is the real j-th vertex iff adjacent
    assert h.list_query(("v", 0), 2) == ("v", 1)
    assert h.list_query(("v", 0), 3) == ("vs", 2)
    # shadow vertex: pendant index range needs no probe on the base graph
    before = o.probes
    assert h.list_query(("vs", 2), 5 + 3) == ("u", 2, 3)
    assert o.probes == before
    # pendant of a non-edge is isolated
    assert h.list_query(("w", 0, 3), 1) is None
    assert h.list_query(("w", 1, 2), 1) == ("vs", 1)
    with pytest.raises(IndexOutOfClassRange):
        h.list_query(("v", 0), 6)
    with pytest.raises(IndexOutOfClassRange):
        h.list_query(("u", 0, 1), 2)


def test_supergraph_one_probe_per_list_query():
    g = build(4, [(0, 1)])
    o = AdjacencyOracle(g)
    h = ImplicitSupergraph(o, 0.9)
    for x in [("v", 2), ("vs", 3)]:
        for j in range(1, 5):
            before = o.probes
            h.list_query(x, j)
            assert o.probes - before <= 1


def test_materialize_agrees_with_implicit():
    rng = random.Random(5)
    g = DynamicGraph(7)
    for u in range(7):
        for v in range(u + 1, 7):
            if rng.random() < 0.4:
                g.insert(u, v)
    h = ImplicitSupergraph(AdjacencyOracle(g), 0.9)
    verts, edges = h.materialize()
    assert len(verts) == h.num_vertices
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for x in verts:
        assert set(h.neighbors_of(x)) == adj.get(x, set())
        assert h.degree(x) >= len(adj.get(x, set()))


def test_occupancy_of_shadow_vertices():
    # nearly all shadow vertices end up matched into their pendant classes
    rng = random.Random(2)
    ok = 0
    trials = 30
    for t in range(trials):
        n = 12
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    g.insert(u, v)
        delta = 0.4
        matched = materialized_gmm(g, delta, RankFunction(t * 3 + 1))
        into_pendant = sum(1 for (x, y) in matched.items()
                           if x[0] == "vs" and y[0] in ("w", "u"))
        if into_pendant >= (1 - delta) * n:
            ok += 1
    assert ok >= 0.9 * trials


def test_n_too_small_threshold():
    assert n_too_small(200, 0.1)
    assert not n_too_small(10**7, 0.3)


def test_mm_size_estimate_examples():
    assert mm_size_estimate(build(5, []), 0.1, seed=1) == 0.0
    k = 8
    g = build(2 * k, [(i, k + i) for i in range(k)])
    nu = mm_size_estimate(g, 0.1, seed=2)
    assert k - 0.1 * 2 * k - 1e-9 <= nu <= k
    k20 = DynamicGraph(20)
    for u in range(20):
        for v in range(u + 1, 20):
            k20.insert(u, v)
    nu = mm_size_estimate(k20, 0.1, seed=3)
    assert 8 - 1e-9 <= nu <= 10


def test_mm_size_estimate_sampling_path_window():
    # force the sampling machinery on a small instance; the additive window
    # is eps*n below the seed-determined maximal matching
    g = build(12, [(i, 6 + i) for i in range(6)])
    eps = 0.4
    nu = mm_size_estimate(g, eps, seed=5, budget=BIG, force_sampling=True)
    assert 0.0 <= nu <= 6.0
    assert nu >= 6 - eps * 12 - 1e-9


def test_pair_matched_sample_count_formula():
    assert pair_matched_sample_count(100, 0.5) == \
        math.ceil(1e5 * math.log(100) / 0.5**5)


def test_estimate_pair_matched_small_mstar_returns_zero():
    g = build(100, [(0, 1)])
    assert estimate_pair_matched(g, Matching([(0, 1)]), 0.2, seed=1) == 0.0


def test_estimate_pair_matched_exact_fallback_window():
    n, k = 100, 50
    g = build(n, [(i, k + i) for i in range(k)])
    mstar = Matching([(i, k + i) for i in range(k)])
    kappa = estimate_pair_matched(g, mstar, 0.2, seed=7)
    assert 48 - 1e-9 <= kappa <= 50 + 1e-9


def test_estimate_pair_matched_edgeless_clamps_to_zero():
    g = build(50, [])
    mstar = Matching([(i, 25 + i) for i in range(25)])
    assert estimate_pair_matched(g, mstar, 0.2, seed=3) == 0.0


def test_estimate_pair_matched_rejects_eps_outside_unit_interval():
    n, k = 8, 4
    g = build(n, [(i, k + i) for i in range(k)])
    mstar = Matching([(i, k + i) for i in range(k)])
    for eps in (0.0, -0.5, 1.0, 1.5, float("nan")):
        for m in (mstar, Matching()):
            for forced in (False, True):
                with pytest.raises(ValueError, match="eps"):
                    estimate_pair_matched(g, m, eps, 0, sample_constant=4,
                                          budget=BIG, force_sampling=forced)


def test_seeded_estimates_reject_a_seed_that_is_not_an_int():
    # RankFunction refuses the seed before any hash is taken
    g = build(8, [(i, 4 + i) for i in range(4)])
    mstar = Matching([(i, 4 + i) for i in range(4)])
    for seed in (1.0, True):
        with pytest.raises(ValueError, match="seed"):
            exact_pair_matched_count(g, mstar, 0.5, seed)
        with pytest.raises(ValueError, match="seed"):
            estimate_pair_matched(g, mstar, 0.5, seed, sample_constant=4,
                                  budget=BIG, force_sampling=True)
        with pytest.raises(ValueError, match="seed"):
            mm_size_estimate(g, 0.4, seed)


def test_samplers_refuse_a_bad_seed_before_any_early_return():
    """The seed is checked at entry, by RankFunction's rule: the early
    zeros (an edgeless graph, an M* of at most eps^2 n edges) and the
    exact fallback refuse it as the sampling path does."""
    edgeless = DynamicGraph(8)
    g = build(8, [(i, 4 + i) for i in range(4)])
    mstar = Matching([(i, 4 + i) for i in range(4)])
    for seed in (1.5, True, False, "1", None):
        for graph in (DynamicGraph(0), edgeless, g):
            for forced in (False, True):
                with pytest.raises(ValueError, match="seed"):
                    mm_size_estimate(graph, 0.4, seed, budget=BIG,
                                     force_sampling=forced)
        for graph, m in ((edgeless, Matching()), (g, Matching()),
                         (g, mstar)):
            for forced in (False, True):
                with pytest.raises(ValueError, match="seed"):
                    estimate_pair_matched(graph, m, 0.5, seed,
                                          sample_constant=4, budget=BIG,
                                          force_sampling=forced)
    # the same early returns still serve 0 under an int seed
    assert mm_size_estimate(edgeless, 0.4, 1) == 0.0
    assert estimate_pair_matched(edgeless, Matching(), 0.5, 1) == 0.0


def test_sampling_path_agrees_with_materialized_reference():
    n, k = 10, 5
    eps = 0.5
    g = build(n, [(i, k + i) for i in range(k)])
    mstar = Matching([(i, k + i) for i in range(k)])
    for seed in range(5):
        exact = exact_pair_matched_count(g, mstar, eps, seed)
        kappa = estimate_pair_matched(g, mstar, eps, seed, sample_constant=50,
                                      budget=BIG, force_sampling=True)
        assert kappa <= exact + 1e-9
        assert kappa >= exact - eps**2 * n - 1e-9


def test_exact_pair_count_matches_sort_key_gmm():
    """The reference re-ranks one cached H per graph; its partner map is the
    greedy scan over `materialize()`'s edges sorted by `sort_key`, graph
    after graph and under rank ties, and the exact count reads it. Dense
    graphs leave some base vertex unmatched, and which one depends on the
    ranks."""
    rng = random.Random(12)
    for trial in range(8):
        n, eps = rng.randrange(2, 7), 0.9
        g = _random_graph(n, 0.8, rng)
        delta = eps**2 / 8.0
        _, h_edges = ImplicitSupergraph(AdjacencyOracle(g), delta).materialize()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

        def spec(ranks):
            return first_pass_matching(
                sorted(h_edges, key=lambda e: ranks.sort_key(*e))).partner

        for seed in range(2):
            tied = _FourRanks(seed)
            assert materialized_gmm(g, delta, tied) == spec(tied)
            matched = spec(RankFunction(seed))
            assert materialized_gmm(g, delta, RankFunction(seed)) == matched
            for (u, v) in pairs:
                both = ("v", u) in matched and ("v", v) in matched
                count = exact_pair_matched_count(g, Matching([(u, v)]), eps,
                                                 seed)
                assert count == int(both)


def _reference_sort_key(seed, a, b):
    """The rank formula spelled out: repr-ordered name, PRF of its repr."""
    name = (a, b) if repr(a) <= repr(b) else (b, a)
    h = hashlib.blake2b(repr(name).encode(), digest_size=8,
                        key=seed.to_bytes(16, "little", signed=True))
    (word,) = struct.unpack("<Q", h.digest())
    return (word / 2.0**64, name)


def test_sort_key_matches_reference_formula():
    names = ([("v", i) for i in (0, 3, 11)] + [("vs", i) for i in (0, 3, 11)]
             + [("w", i, j) for i in (0, 2) for j in (1, 10)]
             + [("u", i, j) for i in (0, 2) for j in (1, 100)])
    for seed in (0, 7, -1, -(2**120), 2**100 + 3):
        r = RankFunction(seed)
        pairs = [(a, b) for a in range(12) for b in range(12)]
        pairs += [(a, b) for a in names for b in names]
        for (a, b) in pairs:
            want = _reference_sort_key(seed, a, b)
            assert r.sort_key(a, b) == want
            assert r.sort_key(b, a) == want
            assert r.rank(a, b) == want[0]
            assert r.ranks_of([repr(want[1]).encode()])[0] == want[0]


class _FourRanks(RankFunction):
    """Ranks floored to a multiple of 1/4, so most edges tie on rank and
    order by name. Overriding the one hash site reaches every rank: the
    single ones of `sort_key` and the batched ones of incidences and
    greedy scans."""

    def ranks_of(self, names):
        return [math.floor(r * 4) / 4 for r in super().ranks_of(names)]


def _random_graph(n, p, rng):
    g = DynamicGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert(u, v)
    return g


def test_neighbors_of_matches_list_query():
    """`neighbors_of` builds V and V* lists per class; its specification is
    the non-None list queries in index order, at the same probe cost."""
    rng = random.Random(23)
    for trial in range(10):
        g = _random_graph(rng.randrange(1, 10), 0.4, rng)
        for delta in (0.9, 0.35):
            o = AdjacencyOracle(g)
            h = ImplicitSupergraph(o, delta)
            verts, _ = h.materialize()
            for x in verts:
                before = o.probes
                got = h.neighbors_of(x)
                spent = o.probes - before
                before = o.probes
                want = [h.list_query(x, j) for j in range(1, h.degree(x) + 1)]
                want = [y for y in want if y is not None]
                assert got == want
                assert spent == o.probes - before


def test_incidence_is_bit_identical_to_sort_key_order():
    """One batched ranking per incidence gives exactly the ranks and order
    of sorting each edge by its own `sort_key`; under `_FourRanks` every
    incidence repeats a rank and takes the tie fallback."""
    rng = random.Random(24)
    for trial in range(4):
        n = rng.randrange(2, 8)
        g = _random_graph(n, 0.5, rng)
        h = ImplicitSupergraph(AdjacencyOracle(g), 0.9)
        for seed in (0, 7, -1, -(2**120), 2**100 + 3):
            for ranks in (RankFunction(seed), _FourRanks(seed)):
                sim = _LocalGMM(h, ranks)
                for i in range(n):
                    for x in (("v", i), ("vs", i)):
                        want = sorted((ranks.sort_key(x, y), y)
                                      for y in h.neighbors_of(x))
                        got_ranks, got_neigh = sim._incidence(x)
                        assert ([r.hex() for r in got_ranks]
                                == [k[0].hex() for k, _ in want])
                        assert got_neigh == [y for _, y in want]


def test_sort_edges_is_sort_key_order():
    """The batched greedy-scan order equals a stable sort by `sort_key`,
    with both orientations of an edge in the list and under rank ties."""
    rng = random.Random(25)
    for trial in range(4):
        g = _random_graph(rng.randrange(2, 8), 0.5, rng)
        _, h_edges = ImplicitSupergraph(AdjacencyOracle(g), 0.9).materialize()
        base = list(g.edges())
        for edges in (base, base + [(b, a) for (a, b) in base], h_edges):
            for seed in (0, -1, 2**100 + 3):
                for ranks in (RankFunction(seed), _FourRanks(seed)):
                    want = sorted(edges, key=lambda e: ranks.sort_key(*e))
                    assert ranks.sort_edges(edges) == want


def test_local_status_under_rank_ties():
    rng = random.Random(44)
    for trial in range(6):
        n = rng.randrange(3, 11)
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.insert(u, v)
        ranks = _FourRanks(trial)
        o = AdjacencyOracle(g)
        h = ImplicitSupergraph(o, 0.9)
        matched = materialized_gmm(g, 0.9, ranks)
        sim = _LocalGMM(h, ranks, BIG, o)
        for i in range(n):
            for x in (("v", i), ("vs", i)):
                sim.begin_query()
                assert sim.vertex_matched(x) == (x in matched)
        gm = oracles.greedy_maximal_matching(g, ranks)
        base = _LocalGMM(_GraphListHost(g), ranks, BIG)
        for v in range(n):
            assert base.vertex_matched(v) == gm.is_matched(v)


def test_repeated_query_spends_no_probes():
    g = build(6, [(0, 1), (1, 2), (3, 4)])
    o = AdjacencyOracle(g)
    sim = _LocalGMM(ImplicitSupergraph(o, 0.9), RankFunction(3), BIG, o)
    sim.begin_query()
    first = sim.vertex_matched(("v", 0))
    assert o.probes > 0
    before = o.probes
    sim.begin_query()
    assert sim.vertex_matched(("v", 0)) == first
    assert o.probes == before
