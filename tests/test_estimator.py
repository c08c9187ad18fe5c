import hashlib
import math
import random
import statistics
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dynmatch.graph import (DynamicGraph, Matching, UpdateEvent,
                            first_pass_matching, validate)
from dynmatch import estimator, oracles
from dynmatch.amm import check_two_thirds
from dynmatch.estimator import (ContractedMember, ContractionFamily, Estimator,
                                EstimatorConfig, SizeEstimate, _mix,
                                bipartite_query, combine_amm_and_alpha,
                                general_query)
from dynmatch.harness import generate_workload
from dynmatch.streaming import (B_BIPARTITE, B_GENERAL, DELTA, Boundary,
                                SecondPassConfig, coin, coin_word,
                                disjoint_augmenting_paths,
                                second_pass_bipartite, second_pass_general)


def build(n, edges):
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    return g


def test_config_derived_constants():
    cfg = EstimatorConfig(mode="bipartite", eps=0.2)
    assert cfg.spc == SecondPassConfig.bipartite(0.2)
    assert B_BIPARTITE == pytest.approx(1 + math.sqrt(2))
    assert B_GENERAL == 9
    # tradeoff mode runs at its provider's alpha = 2, where c = 0
    assert estimator.ALPHA == 2.0
    assert estimator.B_STAR == 16
    assert estimator.GAIN == 9 / 2312
    assert estimator.BETA == 2 - 9 / 2312
    with pytest.raises(ValueError):
        EstimatorConfig(mode="nope", eps=0.1)
    for bad in (-0.1, 0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            EstimatorConfig(mode="bipartite", eps=bad)
    # seed and reps are integers: a float would fail only in an estimate,
    # and a bool is no count
    for bad in ({"reps": 2.5}, {"reps": 2.0}, {"reps": 0}, {"seed": 1.5},
                {"seed": "1"}, {"reps": True}, {"reps": False},
                {"seed": True}, {"seed": False}):
        with pytest.raises(ValueError):
            EstimatorConfig(mode="general", eps=0.2, **bad)


def test_contracted_member_self_pair_suppressed():
    mem = ContractedMember(scale=1, buckets=1, seed=0)
    mem.apply(UpdateEvent("i", 0, 1))
    assert mem.cg.m == 0 and mem.pre == {}


def test_contracted_member_preimage_multiplicity():
    mem = ContractedMember(scale=2, buckets=2, seed=0)
    # find two vertex pairs mapping to the same (distinct) bucket pair
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)
             if mem.bucket(u) != mem.bucket(v)]
    key = {}
    first = second = None
    for (u, v) in pairs:
        bk = tuple(sorted((mem.bucket(u), mem.bucket(v))))
        if bk in key and not set(key[bk]) & {u, v}:
            first, second = key[bk], (u, v)
            break
        key.setdefault(bk, (u, v))
    assert first is not None
    mem.apply(UpdateEvent("i", *first))
    mem.apply(UpdateEvent("i", *second))
    assert mem.cg.m == 1
    mem.apply(UpdateEvent("d", *first))
    assert mem.cg.m == 1  # multiplicity 2 -> 1 keeps the contracted edge
    mem.apply(UpdateEvent("d", *second))
    assert mem.cg.m == 0


def test_contraction_retains_matching_at_matching_scale():
    # hashing 400 vertices into k/eps_b buckets keeps nearly all of a
    # 200-edge planted matching, over most seeds
    n, k = 400, 200
    eps_b = 1 / 16
    buckets = math.ceil(k / eps_b)
    good = 0
    for seed in range(100):
        mem = ContractedMember(scale=k, buckets=buckets, seed=seed)
        for i in range(k):
            mem.apply(UpdateEvent("i", i, k + i))
        mu_c = oracles.max_matching_size(mem.cg)
        if mu_c >= (1 - 12 * eps_b) * k:
            good += 1
    assert good >= 95


def test_family_routing_and_audit():
    # at n = 200 the bucket counts of scales 1 and 2 stay below n, so their
    # members materialize and every update is routed to them
    n = 200
    g = DynamicGraph(n)
    fam = ContractionFamily(n, 0.2, seed=1)
    g.register(fam)
    assert sorted({mem.scale for mem in fam.members}) == [1, 2]
    rng = random.Random(0)
    live = set()
    for _ in range(300):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v:
            continue
        if e in live:
            live.discard(e)
            g.delete(*e)
        else:
            live.add(e)
            g.insert(*e)
    assert fam.audit(g)
    for mem in fam.members:
        assert mem.cg.m > 0
        assert validate(mem.cg, mem.matcher.m)["ok"]
    # one wrong preimage multiplicity fails the audit
    pre = fam.members[0].pre
    pre[next(iter(pre))] += 1
    assert not fam.audit(g)


def test_bipartite_query_examples():
    spc = SecondPassConfig.bipartite(0.2)
    b = B_BIPARTITE
    g = build(8, [(i, i + 4) for i in range(4)])
    m1 = Matching([(i, i + 4) for i in range(4)])
    nu, psi, _ = bipartite_query(g, m1, spc)
    assert psi == 0 and nu == pytest.approx((1 - 1 / b) * 4)
    path = build(4, [(0, 1), (1, 2), (2, 3)])
    nu, _, _ = bipartite_query(path, Matching([(1, 2)]), spc)
    assert nu == pytest.approx(1 + DELTA)
    # non-2-colorable input degrades to the matching size
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    nu, _, _ = bipartite_query(tri, Matching([(0, 1)]), spc)
    assert nu == 1.0


def test_general_query_examples():
    g = build(8, [(i, i + 4) for i in range(4)])
    m1 = Matching([(i, i + 4) for i in range(4)])
    for nu, kappa in general_query(g, m1, 9, [0], 5)[0]:
        assert kappa == 0 and nu == 4.0
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    draws, reads = general_query(tri, Matching([(0, 1)]), 9, [0], 8)
    assert len(draws) == 8 and all(nu == 1.0 for nu, _ in draws)
    # the 3 edges once, free vertex 2's coin per repetition, and the 2
    # boundary edges (0, 2) and (1, 2) once for each coin value that
    # repetitions 0-7 read from the top 8 bits of its word
    assert {coin_word(0, 2) >> (63 - r) & 1 for r in range(8)} == {0, 1}
    assert reads == 3 + 8 * 1 + 2 * 2
    c6 = build(6, [(i, (i + 1) % 6) for i in range(6)])
    m1 = Matching([(0, 1), (2, 3), (4, 5)])
    [(nu, _)], _ = general_query(c6, m1, 9, [0], 1)
    assert nu == 3.0


def test_general_query_lower_bound_certificate():
    rng = random.Random(3)
    for trial in range(25):
        n = 24
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.2:
                    g.insert(u, v)
        m1 = oracles.greedy_maximal_matching(g, oracles.RankFunction(trial))
        mu = oracles.max_matching_size(g)
        for nu, _ in general_query(g, m1, 9, [trial], 64)[0]:
            assert len(m1) <= nu <= mu + 1e-9


@pytest.mark.parametrize("mode,n,horizon", [
    pytest.param("general", 8192, 1500, id="8192-1500"),
    pytest.param("general", 2048, 3000, id="2048-3000"),
    pytest.param("tradeoff", 8192, 1500, id="tradeoff-8192-1500"),
    pytest.param("tradeoff", 2048, 3000, id="tradeoff-2048-3000"),
])
def test_general_value_certified_at_served_sizes(mode, n, horizon):
    """General and tradeoff mode's nu <= mu where the exact oracle's
    general route (64 touched vertices) cannot check it. The served M1 (in
    tradeoff mode, the AMM's matching combined with the provider's) has no
    3-augmenting path here, so at every `q` the query on it, at the
    estimate's seed, has kappa 0 and nu = |M1|, a matching of the live
    graph: general mode serves that |M1| with no query, and tradeoff mode
    serves the query. The second pass's lift is
    certified on a stream-greedy M1, which has such paths: repetition 0's
    pass is rebuilt and M1 is augmented along the vertex-disjoint
    3-augmenting paths that its pair-matched edges carry. The result is a
    matching of the live graph, so its size is at most mu, and it is at
    least the query's nu."""
    events = generate_workload("random-er", n, seed=14, horizon=horizon,
                               density=4.0 / (n - 1), query_every=100)
    est = Estimator(n, EstimatorConfig(mode=mode, eps=0.3, seed=1, reps=1))
    b = B_GENERAL if mode == "general" else estimator.B_STAR
    augmented_at = 0
    for ev in events:
        if ev.kind != "q":
            est.apply(ev)
            continue
        se = est.estimate()
        served = est._live_matching()
        assert validate(est.g, served)["ok"]
        seed = _mix(1, 0, est.g.ops)
        [(served_nu, served_kappa)], _ = general_query(est.g, served, b,
                                                        [seed], 1)
        assert served_kappa == 0 and se.components.get("kappa", 0) == 0
        assert se.nu == se.rep_values[0] == served_nu == len(served)
        m1 = first_pass_matching(est.g.edges())
        [(nu, query_kappa)], _ = general_query(est.g, m1, b, [seed], 1)
        boundary = Boundary(list(est.g.edges()), m1)
        mate, kappa = second_pass_general(
            boundary, [coin(seed, v) for v in boundary.free], b)
        m1_hat = [(u, v) for (u, v) in m1.edges() if u in mate and v in mate]
        assert len(m1_hat) == kappa == query_kappa
        paths = disjoint_augmenting_paths(m1_hat, mate)
        hosts = {(min(u, v), max(u, v)) for (_, u, v, _) in paths}
        augmented = Matching(e for e in m1.edges() if e not in hosts)
        for (up, u, v, vp) in paths:
            augmented.add(up, u)
            augmented.add(v, vp)
        assert validate(est.g, augmented)["ok"]
        assert len(augmented) == len(m1) + len(paths)
        assert nu <= len(augmented)
        augmented_at += bool(paths)
    assert augmented_at > 0


def _blossom_mu(g):
    """Exact mu of any graph: networkx's blossom on each component."""
    gx = nx.Graph(list(g.edges()))
    return sum(len(nx.max_weight_matching(gx.subgraph(c),
                                          maxcardinality=True))
               for c in nx.connected_components(gx))


@pytest.mark.parametrize("mode,workload,bound", [
    ("bipartite", "random-bipartite", 1 + 1 / math.sqrt(2) + 0.3),
    ("general", "random-er", 1.973 + 0.3),
    ("tradeoff", "random-er", estimator.BETA),
], ids=["bipartite", "general", "tradeoff"])
def test_sandwich_at_8192_under_churn(mode, workload, bound):
    """nu <= mu <= bound * nu at every estimate of a churn stream at
    n = 8192: about 1,000 live edges, then 2,000 updates half of them
    deletions, with mu exact from Hopcroft-Karp in bipartite mode and
    blossom per component otherwise."""
    n, live = 8192, 1000
    pairs = (n // 2) ** 2 if mode == "bipartite" else n * (n - 1) // 2
    events = generate_workload(workload, n, seed=20, horizon=3000,
                               density=(live + 0.5) / pairs,
                               query_every=100)
    assert sum(ev.kind == "d" for ev in events) >= 900
    est = Estimator(n, EstimatorConfig(mode=mode, eps=0.3, seed=20, reps=5))
    checked = 0
    for ev in events:
        if ev.kind != "q":
            est.apply(ev)
            continue
        nu = est.estimate().nu
        mu = (oracles.max_matching_size(est.g) if mode == "bipartite"
              else _blossom_mu(est.g))
        assert nu <= mu <= bound * nu, (est.g.ops, nu, mu)
        checked += 1
    assert checked == 30


@pytest.mark.parametrize("mode,workload", [
    ("bipartite", "random-bipartite"),
    ("general", "random-er"),
    ("tradeoff", "random-er"),
], ids=["bipartite", "general", "tradeoff"])
def test_m1_certifies_two_thirds_after_every_update_at_8192(mode, workload):
    """After every update of a churn stream at n = 8192 (about 2,000 live
    edges, then 2,000 updates, half of them deletions), the maintained M1
    is live, maximal and has no 3-augmenting path, so |M1| >= (2/3)mu.
    Every estimate serves at least |M1|. In general mode it serves |M1|,
    and the query it no longer runs, at b = 9 and the estimate's seed,
    gives every repetition kappa 0. Some inserts augment, so the repair
    runs."""
    n, live = 8192, 2000
    pairs = (n // 2) ** 2 if mode == "bipartite" else n * (n - 1) // 2
    events = generate_workload(workload, n, seed=27, horizon=4000,
                               density=(live + 0.5) / pairs,
                               query_every=100)
    assert sum(ev.kind == "d" for ev in events) >= 900
    est = Estimator(n, EstimatorConfig(mode=mode, eps=0.3, seed=27, reps=5))
    m1 = est.amm.matching()
    augmented = estimates = 0
    for ev in events:
        if ev.kind == "q":
            se = est.estimate()
            assert se.nu >= se.components["m1"] >= len(m1)
            if mode == "general":
                draws, _ = general_query(est.g, m1, B_GENERAL,
                                         [_mix(27, 0, est.g.ops)], 5)
                assert draws == [(float(len(m1)), 0)] * 5
                assert se.rep_values == [float(len(m1))] * 5
            estimates += 1
            continue
        size = len(m1)
        one_free = ev.kind == "i" and m1.is_matched(ev.u) != m1.is_matched(ev.v)
        est.apply(ev)
        check_two_thirds(est.g, m1)
        augmented += one_free and len(m1) > size
    assert estimates == 40 and augmented > 0


def _planted_middles_first(k):
    """A graph of k disjoint paths x-u-v-y, the middle edges inserted
    first, and its pendant edges in the order the toggles below use."""
    g = DynamicGraph(4 * k)
    for j in range(k):
        g.insert(4 * j + 1, 4 * j + 2)
    for j in range(k):
        g.insert(4 * j, 4 * j + 1)
        g.insert(4 * j + 2, 4 * j + 3)
    return g


def _toggle_pendants(k, apply):
    """3,000 pendant toggles in seeded order, calling `apply(edge)` per
    toggle; yields after every 100."""
    rng = random.Random(3)
    for step in range(1, 3001):
        j, side = rng.randrange(k), rng.randrange(2)
        apply((4 * j + 2 * side, 4 * j + 2 * side + 1))
        if step % 100 == 0:
            yield


@pytest.mark.parametrize("mode,bound", [
    ("bipartite", 1 + 1 / math.sqrt(2) + 0.2),
    ("general", 1.973 + 0.2),
    ("tradeoff", estimator.BETA),
], ids=["bipartite", "general", "tradeoff"])
def test_planted_three_paths_the_second_pass_decides(mode, bound):
    """k disjoint paths x-u-v-y with the middle edges inserted first, so
    the stream-greedy M1 is the k middles, |M1| = mu/2, and only the
    second pass can lift nu above |M1|. The mode's query (reps 5, at the
    estimator's seeds) runs on that M1 on the full instance and under
    3,000 pendant toggles, with a check every 100: nu <= mu <= bound * nu
    and nu > |M1| at every checkpoint. Every component is a path, so
    Hopcroft-Karp gives mu exactly in every mode."""
    k = 1000
    g = _planted_middles_first(k)
    cfg = EstimatorConfig(mode=mode, eps=0.2, seed=3, reps=5)
    b = B_GENERAL if mode == "general" else estimator.B_STAR

    def check():
        m1 = first_pass_matching(g.edges())
        assert len(m1) == k
        if mode == "bipartite":
            nu = bipartite_query(g, m1, cfg.spc)[0]
        else:
            draws, _ = general_query(g, m1, b, [_mix(3, 0, g.ops)], 5)
            nu = statistics.fmean(nu_r for nu_r, _ in draws)
        mu = oracles.max_matching_size(g)
        assert len(m1) < nu <= mu <= bound * nu, (g.ops, nu, mu)
        return nu, mu

    nu, mu = check()
    assert mu == 2 * k
    if mode == "bipartite":
        # each middle endpoint takes its full cap of M2 copies to its
        # pendant: nu = (1 + delta)|M1|, and mu/nu = 2/(1 + delta) = sqrt 2
        assert nu == pytest.approx((1 + DELTA) * k, rel=1e-9)
        assert mu / nu == pytest.approx(math.sqrt(2), rel=1e-9)

    def toggle(e):
        g.delete(*e) if g.edge_exists(*e) else g.insert(*e)

    for _ in _toggle_pendants(k, toggle):
        check()


@pytest.mark.parametrize("mode", ["bipartite", "general", "tradeoff"])
def test_planted_three_paths_m1_is_maximum(mode):
    """On the same instance and toggles, the maintained M1 has no
    3-augmenting path, so on these paths it is a maximum matching, and
    every mode serves nu = mu = |M1| exactly."""
    k = 1000
    est = Estimator(4 * k, EstimatorConfig(mode=mode, eps=0.2, seed=3,
                                           reps=5))
    for (u, v) in _planted_middles_first(k).edges():
        est.insert(u, v)

    def check():
        se = est.estimate()
        mu = oracles.max_matching_size(est.g)
        assert se.nu == mu == se.components["m1"], (est.g.ops, se.nu, mu)
        return mu

    assert check() == 2 * k

    def toggle(e):
        est.delete(*e) if est.g.edge_exists(*e) else est.insert(*e)

    for _ in _toggle_pendants(k, toggle):
        check()


def test_combiner_examples():
    m = Matching([(0, 1), (2, 3)])
    out = combine_amm_and_alpha(m, Matching([(0, 1), (2, 3)]))
    assert sorted(out.edges()) == sorted(m.edges())
    mp = Matching([(1, 2)])
    ms = Matching([(0, 1), (2, 3)])
    out = combine_amm_and_alpha(mp, ms)
    assert sorted(out.edges()) == [(0, 1), (2, 3)]
    assert out.is_matched(1) and out.is_matched(2)
    # two components, each favoring a different side
    mp = Matching([(1, 2), (10, 11)])
    ms = Matching([(0, 1), (2, 3), (10, 11)])
    out = combine_amm_and_alpha(mp, ms)
    assert (10, 11) in out and (0, 1) in out and (2, 3) in out


def test_combiner_properties_random():
    rng = random.Random(4)
    for trial in range(40):
        n = 20
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    g.insert(u, v)
        m1 = oracles.greedy_maximal_matching(g, oracles.RankFunction(trial))
        m2 = oracles.greedy_maximal_matching(g, oracles.RankFunction(trial + 999))
        out = combine_amm_and_alpha(m1, m2)
        assert validate(g, out)["ok"]
        assert len(out) >= len(m2)
        for v in m1.vertices():
            assert out.is_matched(v)


def test_size_estimate_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        SizeEstimate(-0.5, 0)
    with pytest.raises(ValueError):
        SizeEstimate(float("nan"), 0)


def test_estimator_empty_graph_and_simple_fill():
    est = Estimator(40, EstimatorConfig(mode="bipartite", eps=0.2, seed=1))
    assert est.estimate().nu == 0.0
    for i in range(20):
        est.insert(i, 20 + i)
    se = est.estimate()
    mu = 20
    assert se.nu <= mu and mu <= 1.907 * se.nu
    est.delete(0, 20)
    se = est.estimate()
    assert se.nu <= 19


@pytest.mark.parametrize("mode", ["bipartite", "general", "tradeoff"])
def test_estimator_reports_are_deterministic(mode):
    """Two runs of one stream give equal estimates: value, repetitions and
    components. Tradeoff mode is the one that still draws coins, and on this
    stream its repetitions disagree at some estimate, so the coins reach
    the values compared."""
    def run():
        est = Estimator(30, EstimatorConfig(mode=mode, eps=0.3, seed=5,
                                            reps=7))
        out = []
        for ev in generate_workload("random-er", 30, 0, horizon=400,
                                    query_every=1):
            if ev.kind == "q":
                out.append(est.estimate())
            else:
                est.apply(ev)
        return out

    first = run()
    assert first == run()
    split = [e for e in first if len(set(e.rep_values)) > 1]
    assert bool(split) == (mode == "tradeoff")


@pytest.mark.parametrize("mode", ["tradeoff", "general"])
def test_total_work_counts_every_maintained_matching(mode):
    """total_work() is the maintainer's, the provider's (tradeoff mode only)
    and the queries' work, after every update and estimate of a churn run."""
    est = Estimator(60, EstimatorConfig(mode=mode, eps=0.2, seed=1, reps=3))
    for ev in generate_workload("random-er", 60, 800, horizon=2000,
                                density=0.15, query_every=50):
        if ev.kind == "q":
            est.estimate()
        else:
            est.apply(ev)
        provider = est.alpha_source.work if mode == "tradeoff" else 0
        assert est.total_work() == est.amm.work + provider + est.query_work
    if mode == "tradeoff":
        # the provider's deletion repairs read neighbours
        assert est.alpha_source.work > 0
    else:
        assert est.alpha_source is None


# -- |M1| floor of the bipartite value -------------------------------------


def test_bipartite_value_floored_at_m1():
    """A perfect matching with no augmenting structure: the formula gives
    (1-1/b)*4 < 4, and the estimator serves the matching size."""
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1)
    est = Estimator(8, cfg)
    for i in range(4):
        est.insert(i, i + 4)
    mix, _, _ = bipartite_query(est.g, est.amm.matching(), cfg.spc)
    assert mix == pytest.approx((1 - 1 / B_BIPARTITE) * 4)
    se = est.estimate()
    assert se.nu == 4.0 and se.components["bound"] == "m1"


def test_bipartite_value_serves_mix_above_m1():
    """A path a-u-v-b inserted middle first: over the stream-greedy
    M1 = {uv}, the mix, 1 + delta, exceeds |M1|. The maintained M1
    augments a-u=v-b, and |M1| = mu = 2 is served."""
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1)
    est = Estimator(4, cfg)
    stream = [(1, 2), (0, 1), (2, 3)]
    for e in stream:
        est.insert(*e)
    m1 = first_pass_matching(stream)
    assert m1.edges() == [(1, 2)]
    assert bipartite_query(est.g, m1, cfg.spc)[0] == pytest.approx(1 + DELTA)
    assert sorted(est.amm.matching().edges()) == [(0, 1), (2, 3)]
    se = est.estimate()
    assert se.nu == 2.0 and se.components["bound"] == "m1"


@pytest.mark.parametrize("workload", ["random-bipartite", "random-er"])
def test_bipartite_check_serves_the_colour_first_value(workload):
    """Over the maintained M1, which has no 3-augmenting path, neither of
    the paper's second passes lifts the value, so serving |M1| with no
    query serves exactly what the passes would. At every `q`, on the same
    stream in both modes:
    - bipartite: the colour-first value, |M1| on a graph that is not
      2-colourable, else the larger of the mix and |M1|, is |M1|;
    - general: every repetition of the query at reps 25 and the
      estimate's seed has kappa 0, so its value is |M1|.

    Both equal the served nu."""
    lifts = Counter()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(4, 24), seed=st.integers(0, 10**6),
           eps=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           density=st.sampled_from([0.05, 0.2, 0.6]))
    def check(n, seed, eps, density):
        bip = Estimator(n, EstimatorConfig(mode="bipartite", eps=eps,
                                           seed=seed))
        gen = Estimator(n, EstimatorConfig(mode="general", eps=eps,
                                           seed=seed, reps=25))
        for ev in generate_workload(workload, n, seed, horizon=120,
                                    density=density, query_every=3):
            if ev.kind != "q":
                bip.apply(ev)
                gen.apply(ev)
                continue
            g, m1 = bip.g, bip.amm.matching()
            size = float(len(m1))
            assert sorted(gen.amm.matching().edges()) == sorted(m1.edges())
            edges = list(g.edges())
            if oracles.bipartition(g) is None:
                colour_first = size
            else:
                mix, _ = second_pass_bipartite(edges, m1, bip.cfg.spc)
                colour_first = max(mix, size)
                lifts["mix"] += bool(Boundary(edges, m1).edges)
            draws, _ = general_query(g, m1, B_GENERAL,
                                     [_mix(seed, 0, g.ops)], 25)
            assert draws == [(size, 0)] * 25
            assert colour_first == size == bip.estimate().nu
            assert gen.estimate().nu == size

    check()
    # the mix ran on a 2-colourable graph with an M1 edge next to a free
    # vertex, where a 3-augmenting path could have lifted it
    assert lifts["mix"] > 0


def test_bipartite_colouring_runs_only_when_the_mix_would_serve(monkeypatch):
    calls = []
    bipartition = oracles.bipartition
    monkeypatch.setattr(oracles, "bipartition",
                        lambda g: calls.append(g) or bipartition(g))
    spc = EstimatorConfig(mode="bipartite", eps=0.2, seed=1).spc
    # a triangle matched with an edge hanging off it, and free isolated
    # vertices that defeat the check: no M2 copy, so the mix stays below
    # |M1| and the odd cycle is never looked for
    g = build(10, [(0, 1), (1, 2), (0, 2), (2, 3)])
    mix, psi, reads = bipartite_query(g, Matching([(0, 1), (2, 3)]), spc)
    assert spc.mix(2, spc.free_cap * 6) > 2
    assert mix == spc.mix(2, 0) and psi == 0 and reads == g.m and not calls
    # the triangle with one free vertex: the mix would serve, the colouring
    # runs once, finds the odd cycle and serves |M1|
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    assert bipartite_query(tri, Matching([(0, 1)]), spc) == (
        1.0, 0.0, 2 * tri.m + tri.n)
    assert len(calls) == 1


def test_only_tradeoff_estimates_query(monkeypatch):
    """A tradeoff estimate runs `general_query` exactly once. Bipartite and
    general estimates serve |M1| at one unit of query work, with no second
    pass, no colouring and no coin hash: each of those raises if called,
    and some estimates are ones where free vertices would have defeated
    the old O(1) mix check."""
    events = generate_workload("random-er", 40, 5, horizon=300,
                               density=0.1, query_every=10)
    calls = []
    query = estimator.general_query
    monkeypatch.setattr(estimator, "general_query",
                        lambda *args: calls.append(args) or query(*args))
    est = Estimator(40, EstimatorConfig(mode="tradeoff", eps=0.2, seed=5,
                                        reps=25))
    for ev in events:
        if ev.kind != "q":
            est.apply(ev)
            continue
        before = len(calls)
        est.estimate()
        assert len(calls) == before + 1

    def refuse(*args):
        raise AssertionError("a query ran on the served path")

    for owner, name in ((estimator, "bipartite_query"),
                        (estimator, "general_query"),
                        (estimator, "second_pass_bipartite"),
                        (estimator, "second_pass_general"),
                        (estimator, "coin_word"),
                        (oracles, "bipartition")):
        monkeypatch.setattr(owner, name, refuse)
    for mode in ("bipartite", "general"):
        est = Estimator(40, EstimatorConfig(mode=mode, eps=0.2, seed=5,
                                            reps=25))
        spc, undecided = est.cfg.spc, 0
        for ev in events:
            if ev.kind != "q":
                est.apply(ev)
                continue
            work = est.query_work
            se = est.estimate()
            size = len(est.amm.matching())
            assert se.nu == size and se.rep_values == [float(size)] * 25
            assert se.components == {"m1": size, "bound": "m1"}
            assert est.query_work == work + 1
            undecided += spc.mix(size, spc.free_cap * (40 - 2 * size)) > size
        assert undecided > 0


# -- served values pinned by digest ----------------------------------------


def _planted_paths(n, seed):
    """Disjoint paths a-u-v-b, each inserted middle edge first, with a
    query after each path and after each random deletion: each path's
    last insert completes a-u=v-b, which the maintainer augments."""
    rng = random.Random(seed)
    events, live = [], []
    for a in range(0, n - 3, 4):
        for e in [(a + 1, a + 2), (a, a + 1), (a + 2, a + 3)]:
            events.append(UpdateEvent("i", *e))
            live.append(e)
        events.append(UpdateEvent("q"))
        if rng.random() < 0.3:
            e = live.pop(rng.randrange(len(live)))
            events += [UpdateEvent("d", *e), UpdateEvent("q")]
    return events


def _golden_streams():
    """(n, reps, seed, events) in each mode: reps 25 at n = 60 with an
    estimate after every update, then reps 5-7 at n = 300, 400 and 2048."""
    for mode in ("bipartite", "general", "tradeoff"):
        for workload, n, density, horizon, every, reps, seed in (
                ("random-er", 60, 0.15, 800, 1, 25, 1),
                ("random-bipartite", 300, 0.05, 1500, 10, 5, 2),
                ("random-er", 2048, 0.001, 1500, 25, 7, 3)):
            yield mode, n, reps, seed, generate_workload(
                workload, n, seed, horizon=horizon, density=density,
                query_every=every)
        yield mode, 400, 6, 4, _planted_paths(400, 4)


# SHA-256 of every estimate of `_golden_streams`, re-recorded when
# bipartite and general mode began to serve |M1| with no query: every nu,
# every rep_values and every tradeoff estimate stayed as it was, bipartite
# components lost `psi` and general ones trade `kappa` (always 0) for
# `bound`
GOLDEN_DIGEST = (
    "1814231868d8303ff6071e9371e09007bf98b65b63694047dfdb57043ae3afc3")


def served_values_digest():
    """SHA-256 over every estimate of the golden streams: its stamp, nu
    and rep_values by float.hex, and its sorted components."""
    h = hashlib.sha256()
    for mode, n, reps, seed, events in _golden_streams():
        est = Estimator(n, EstimatorConfig(mode=mode, eps=0.25, seed=seed,
                                           reps=reps))
        h.update(f"{mode} {n}\n".encode())
        for ev in events:
            if ev.kind != "q":
                est.apply(ev)
                continue
            se = est.estimate()
            h.update(" ".join(
                [str(se.timestamp), se.nu.hex()]
                + [v.hex() for v in se.rep_values]
                + [repr(sorted(se.components.items()))]).encode() + b"\n")
    return h.hexdigest()


def test_served_values_match_the_golden_digest():
    """Bipartite, general and tradeoff values, repetition by repetition,
    are those recorded: a change of speed that changes no value leaves
    the digest as it is."""
    assert served_values_digest() == GOLDEN_DIGEST
