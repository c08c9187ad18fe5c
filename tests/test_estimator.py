import math
import random

import pytest

from dynmatch.graph import DynamicGraph, Matching, UpdateEvent, validate
from dynmatch import oracles
from dynmatch.estimator import (AlphaOutOfRange, ContractedMember,
                                ContractionFamily, Estimator, EstimatorConfig,
                                SizeEstimate, bipartite_query,
                                combine_amm_and_alpha, general_query)
from dynmatch.harness import generate_workload
from dynmatch.streaming import SecondPassConfig


def build(n, edges):
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    return g


def test_config_derived_constants():
    cfg = EstimatorConfig(mode="bipartite", eps=0.2)
    assert cfg.spc.b == pytest.approx(1 + math.sqrt(2))
    cfg = EstimatorConfig(mode="general", eps=0.2)
    assert cfg.b_general == 9
    t = EstimatorConfig(mode="tradeoff", eps=0.05, alpha=2.0)
    assert t.b_star == 16
    assert t.gain == pytest.approx(9 / 2312)
    t = EstimatorConfig(mode="tradeoff", eps=0.05, alpha=1.8)
    assert t.b_star == 27
    for bad in (1.4, 2.1, 1.501):
        with pytest.raises(AlphaOutOfRange):
            EstimatorConfig(mode="tradeoff", eps=0.05, alpha=bad)
    with pytest.raises(ValueError):
        EstimatorConfig(mode="nope", eps=0.1)
    for bad in (-0.1, 0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            EstimatorConfig(mode="bipartite", eps=bad)


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
    g = DynamicGraph(50)
    fam = ContractionFamily(50, 0.2, seed=1)
    g.register(fam)
    rng = random.Random(0)
    live = set()
    for _ in range(300):
        u, v = rng.randrange(50), rng.randrange(50)
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
        assert validate(mem.cg, mem.matcher.m)["ok"]


def test_bipartite_query_examples():
    spc = SecondPassConfig.bipartite(0.2)
    b = spc.b
    g = build(8, [(i, i + 4) for i in range(4)])
    m1 = Matching([(i, i + 4) for i in range(4)])
    nu, psi = bipartite_query(g, m1, spc)
    assert psi == 0 and nu == pytest.approx((1 - 1 / b) * 4)
    path = build(4, [(0, 1), (1, 2), (2, 3)])
    nu, _ = bipartite_query(path, Matching([(1, 2)]), spc)
    assert nu == pytest.approx(1 + spc.delta)
    # non-2-colorable input degrades to the matching size
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    nu, _ = bipartite_query(tri, Matching([(0, 1)]), spc)
    assert nu == 1.0


def test_general_query_examples():
    g = build(8, [(i, i + 4) for i in range(4)])
    m1 = Matching([(i, i + 4) for i in range(4)])
    for seed in range(5):
        nu, kappa = general_query(g, m1, 9, seed)
        assert kappa == 0 and nu == 4.0
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    for seed in range(8):
        nu, _ = general_query(tri, Matching([(0, 1)]), 9, seed)
        assert nu == 1.0
    c6 = build(6, [(i, (i + 1) % 6) for i in range(6)])
    m1 = Matching([(0, 1), (2, 3), (4, 5)])
    nu, _ = general_query(c6, m1, 9, 0)
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
        for seed in range(4):
            nu, _ = general_query(g, m1, 9, seed)
            assert len(m1) <= nu <= mu + 1e-9


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


def test_refresh_on_read_timestamps():
    # n=300 at eps 0.2 has 9 members (scales 1-3); a 100-edge matching puts
    # them above threshold, and every served member is refreshed whether or
    # not the estimate queries it
    est = Estimator(300, EstimatorConfig(mode="bipartite", eps=0.2, seed=2))
    for i in range(100):
        est.insert(i, 150 + i)
    se = est.estimate()
    served = est.family.served_members()
    assert served
    for mem in served:
        assert mem.last_served_at == se.timestamp


# -- pruned member scan ----------------------------------------------------


@pytest.mark.parametrize("mode", ["bipartite", "general", "tradeoff"])
def test_value_bound_is_reached(mode):
    """`_value_bound` holds and is tight. Bipartite: a double star whose
    matched edge has k free leaves at each end fills both caps, worth
    (1+delta)|M1|. General and tradeoff: a path a-u-v-b with M1 = {uv}
    gets kappa = 1, worth (1+1/b)|M1|, on the draws whose coins split it."""
    cfg = EstimatorConfig(mode=mode, eps=0.2, seed=4)
    m1 = Matching([(0, 1)])
    if mode == "bipartite":
        k = cfg.spc.k
        g = build(2 + 2 * k, [(0, 1)] + [(i % 2, 2 + i) for i in range(2 * k)])
        top = 1.0 + cfg.spc.delta
    else:
        g = build(4, [(2, 0), (0, 1), (1, 3)])
        b = cfg.b_general if mode == "general" else cfg.b_star
        top = 1.0 + 1.0 / b
    est = Estimator(g.n, cfg)
    bound = est._value_bound(len(m1))
    values = [est._member_value(g, m1, stamp)[0] for stamp in range(40)]
    assert max(values) <= bound
    assert max(values) == pytest.approx(top, rel=1e-12)
    assert bound == pytest.approx(top, rel=1e-8)


def exhaustive_estimate(est):
    """The scan the pruned `Estimator.estimate` must equal: the identity
    first, then every served member in list order, replacing on strict >."""
    stamp = est.g.ops
    if est.g.m == 0:
        return SizeEstimate(0.0, stamp)
    best, best_reps, best_comp = 0.0, [], {}
    if 2 * len(est.amm.matching()) >= est.family.identity_threshold:
        nu, reps, comp = est._member_value(est.g, est._live_matching(), stamp)
        comp["scale"] = -1
        best, best_reps, best_comp = nu, reps, comp
    for mem in est.family.served_members():
        nu, reps, comp = est._member_value(mem.cg, mem.matcher.m, stamp)
        if nu > best:
            comp["scale"] = mem.scale
            best, best_reps, best_comp = nu, reps, comp
    if best == 0.0:
        nu, reps, comp = est._member_value(est.g, est._live_matching(), stamp)
        comp["scale"] = -1
        comp["hysteresis"] = 1
        best, best_reps, best_comp = nu, reps, comp
    return SizeEstimate(best, stamp, best_comp, best_reps)


def replay_against_exhaustive(est, events, every):
    """Compare the served estimate with `exhaustive_estimate` on the same
    state every `every` updates; return how many served a member and at how
    many the pruned scan did less query work."""
    member_wins = pruned = 0
    for t, ev in enumerate(events, 1):
        est.apply(ev)
        if t % every:
            continue
        w0 = est.query_work
        ref = exhaustive_estimate(est)
        w1 = est.query_work
        got = est.estimate()
        w2 = est.query_work
        assert (got.nu, got.components, got.rep_values) == \
            (ref.nu, ref.components, ref.rep_values), t
        member_wins += ref.components["scale"] != -1
        pruned += w2 - w1 < w1 - w0
    return member_wins, pruned


PRUNING_STREAMS = {
    "bipartite-300": (
        300, dict(mode="bipartite", eps=0.2, seed=1, reps=2),
        dict(workload="random-bipartite", seed=1, horizon=3000,
             density=0.1)),
    "general-2048": (
        2048, dict(mode="general", eps=0.3, seed=3, reps=3),
        dict(workload="random-er", seed=3, horizon=1000,
             density=4.0 / 2047)),
    "tradeoff-300": (
        300, dict(mode="tradeoff", eps=0.3, alpha=2.0, seed=5, reps=2),
        dict(workload="random-er", seed=5, horizon=1500, density=0.02)),
}


def pruning_run(name, cls, identity, every):
    """Replay stream `name` on a `cls` estimator against the exhaustive
    scan. Without the identity (its threshold set out of reach) members
    compete only with each other and win far more often."""
    n, cfg, stream = PRUNING_STREAMS[name]
    est = cls(n, EstimatorConfig(**cfg))
    if not identity:
        est.family.identity_threshold = math.inf
    return replay_against_exhaustive(
        est, generate_workload(n=n, **stream), every)


@pytest.mark.parametrize("identity", [True, False])
@pytest.mark.parametrize("name", sorted(PRUNING_STREAMS))
def test_pruned_scan_equals_exhaustive(name, identity):
    member_wins, pruned = pruning_run(name, Estimator, identity, every=10)
    assert pruned > 0 and (identity or member_wins > 0), (member_wins,
                                                           pruned)


class TieEstimator(Estimator):
    """A value rule that ties often and stays within `_value_bound`: a first
    matching of s edges is worth s. The components name the queried graph,
    so that ties between members of one scale are told apart."""

    def _member_value(self, graph, m1, stamp):
        self.query_work += 1
        nu = float(len(m1))
        return nu, [nu], {"m1": len(m1), "graph": id(graph)}


class SaturatedEstimator(Estimator):
    """With c the first matching size of the first served member in list
    order, a first matching of s edges is worth `_value_bound(min(s, c))`.
    Every member of size at least c ties at that value, larger members are
    visited first, and the first served member meets it with its own bound,
    so it wins only if the scan queries a member whose bound equals the
    best value and gives ties to the earlier member in list order."""

    def _member_value(self, graph, m1, stamp):
        self.query_work += 1
        served = self.family.served_members()
        c = len(served[0].matcher.m) if served else len(m1)
        nu = self._value_bound(min(len(m1), c))
        return nu, [nu], {"m1": len(m1), "graph": id(graph)}


@pytest.mark.parametrize("cls,identity", [(TieEstimator, True),
                                          (TieEstimator, False),
                                          (SaturatedEstimator, False)])
@pytest.mark.parametrize("name", sorted(PRUNING_STREAMS))
def test_pruned_scan_ties_follow_list_order(name, cls, identity):
    member_wins, pruned = pruning_run(name, cls, identity, every=5)
    assert pruned > 0 and (identity or member_wins > 0), (member_wins,
                                                           pruned)
