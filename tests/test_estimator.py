import hashlib
import math
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dynmatch.graph import DynamicGraph, Matching, UpdateEvent, validate
from dynmatch import estimator, oracles
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
    general route (64 touched vertices) cannot check it: at every `q`,
    repetition 0's pass is rebuilt on the served M1 (in tradeoff mode, the
    AMM's matching combined with the provider's) and M1 is augmented along
    the vertex-disjoint 3-augmenting paths that its pair-matched edges
    carry. The result is a matching of the live graph, so its size is at
    most mu, and it is at least nu."""
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
        m1 = est.amm.matching()
        if mode == "tradeoff":
            m1 = combine_amm_and_alpha(m1, est.alpha_source.m)
        boundary = Boundary(list(est.g.edges()), m1)
        seed = _mix(1, 0, est.g.ops)
        mate, kappa = second_pass_general(
            boundary, [coin(seed, v) for v in boundary.free], b)
        m1_hat = [(u, v) for (u, v) in m1.edges() if u in mate and v in mate]
        assert len(m1_hat) == kappa == se.components["kappa"]
        paths = disjoint_augmenting_paths(m1_hat, mate)
        hosts = {(min(u, v), max(u, v)) for (_, u, v, _) in paths}
        augmented = Matching(e for e in m1.edges() if e not in hosts)
        for (up, u, v, vp) in paths:
            augmented.add(up, u)
            augmented.add(v, vp)
        assert validate(est.g, augmented)["ok"]
        assert len(augmented) == len(m1) + len(paths)
        assert se.nu <= len(augmented)
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


@pytest.mark.parametrize("mode,bound", [
    ("bipartite", 1 + 1 / math.sqrt(2) + 0.2),
    ("general", 1.973 + 0.2),
    ("tradeoff", estimator.BETA),
], ids=["bipartite", "general", "tradeoff"])
def test_planted_three_paths_the_second_pass_decides(mode, bound):
    """k disjoint paths x-u-v-y with the middle edges inserted first, so M1
    is the k middles, |M1| = mu/2, and only the second pass can lift nu
    above |M1|. Checked on the full instance and under 3,000 pendant
    toggles, with an estimate every 100: nu <= mu <= bound * nu and
    nu > |M1| at every checkpoint. Every component is a path, so
    Hopcroft-Karp gives mu exactly in every mode."""
    k = 1000
    est = Estimator(4 * k, EstimatorConfig(mode=mode, eps=0.2, seed=3,
                                           reps=5))
    for j in range(k):
        est.insert(4 * j + 1, 4 * j + 2)
    for j in range(k):
        est.insert(4 * j, 4 * j + 1)
        est.insert(4 * j + 2, 4 * j + 3)

    def check():
        se = est.estimate()
        mu = oracles.max_matching_size(est.g)
        assert se.nu <= mu <= bound * se.nu, (est.g.ops, se.nu, mu)
        assert se.nu > se.components["m1"], (est.g.ops, se.nu)
        return se, mu

    se, mu = check()
    assert se.components["m1"] == k and mu == 2 * k
    if mode == "bipartite":
        # each middle endpoint takes its full cap of M2 copies to its
        # pendant: nu = (1 + delta)|M1|, and mu/nu = 2/(1 + delta) = sqrt 2
        assert se.nu == pytest.approx((1 + DELTA) * k, rel=1e-9)
        assert mu / se.nu == pytest.approx(math.sqrt(2), rel=1e-9)
    rng = random.Random(3)
    for step in range(1, 3001):
        j, side = rng.randrange(k), rng.randrange(2)
        e = (4 * j + 2 * side, 4 * j + 2 * side + 1)
        if est.g.edge_exists(*e):
            est.delete(*e)
        else:
            est.insert(*e)
        if step % 100 == 0:
            assert check()[0].components["m1"] == k


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


def test_estimator_reports_are_deterministic():
    def run():
        est = Estimator(30, EstimatorConfig(mode="general", eps=0.3, seed=5,
                                            reps=7))
        rng = random.Random(1)
        out = []
        for _ in range(200):
            u, v = rng.randrange(30), rng.randrange(30)
            if u != v and not est.g.edge_exists(u, v):
                est.insert(u, v)
                out.append(est.estimate().nu)
        return out

    assert run() == run()


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
    """A path a-u-v-b with M1 = {uv}: the mix, 1 + delta, exceeds |M1| and
    is served."""
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1)
    est = Estimator(4, cfg)
    for e in [(1, 2), (0, 1), (2, 3)]:
        est.insert(*e)
    assert sorted(est.amm.matching().edges()) == [(1, 2)]
    se = est.estimate()
    assert se.nu == pytest.approx(1 + DELTA)
    assert se.components["bound"] == "mix"


@pytest.mark.parametrize("workload", ["random-bipartite", "random-er"])
def test_bipartite_check_serves_the_colour_first_value(workload):
    """At every `q`, the O(1) check and the pass-first query serve exactly
    the value and bound of colouring first: |M1| on a graph that is not
    2-colourable, else the larger of the mix and |M1|."""
    branches = Counter()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(4, 24), seed=st.integers(0, 10**6),
           eps=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           density=st.sampled_from([0.05, 0.2, 0.6]))
    def check(n, seed, eps, density):
        cfg = EstimatorConfig(mode="bipartite", eps=eps, seed=seed)
        est = Estimator(n, cfg)
        for ev in generate_workload(workload, n, seed, horizon=120,
                                    density=density, query_every=3):
            if ev.kind != "q":
                est.apply(ev)
                continue
            m1 = est.amm.matching()
            size = len(m1)
            if oracles.bipartition(est.g) is None:
                nu, bound = float(size), "m1"
            else:
                mix, _ = second_pass_bipartite(list(est.g.edges()), m1,
                                               cfg.spc)
                nu = max(mix, float(size))
                bound = "mix" if mix > size else "m1"
            se = est.estimate()
            assert se.nu == nu and se.components["bound"] == bound
            branches["query" if "psi" in se.components else "check"] += 1

    check()
    assert branches["check"] > 0 and branches["query"] > 0


def test_bipartite_colouring_runs_only_when_the_mix_would_serve(monkeypatch):
    calls = []
    bipartition = oracles.bipartition
    monkeypatch.setattr(oracles, "bipartition",
                        lambda g: calls.append(g) or bipartition(g))
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=1)
    spc = cfg.spc
    # a perfect matching leaves no free vertex: the check serves |M1|
    est = Estimator(8, cfg)
    for i in range(4):
        est.insert(i, i + 4)
    work = est.query_work
    se = est.estimate()
    assert se.nu == 4.0 and "psi" not in se.components
    assert est.query_work == work + 1 and not calls
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


# -- served values pinned by digest ----------------------------------------


def _planted_paths(n, seed):
    """Disjoint paths a-u-v-b, each inserted middle edge first, with a
    query after each path and after each random deletion: the bipartite
    mix serves on most of them."""
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


# SHA-256 of every estimate of `_golden_streams`, re-recorded when general
# repetition r began reading bit 63 - r % 64 of one word per free vertex:
# bipartite estimates and every general and tradeoff repetition 0 kept
# their values
GOLDEN_DIGEST = (
    "32d4ce54fc90ec8431667e05c2405c02cf9ed66af6acbf0e7cb161284f5584c7")


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
