"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line, and
asserts it. Shared heavyweight artifacts (the ten dynamic bipartite runs, the
eight-vertex graph catalogue) are built once per session.
"""

import itertools
import math
import random

import pytest

from dynmatch.graph import DynamicGraph, Matching, UpdateEvent
from dynmatch import oracles
from dynmatch.amm import Kernel, high_degree_nodes, provider_degree_bound
from dynmatch.oracles import RankFunction
from dynmatch.sublinear import (AdjacencyOracle, ImplicitSupergraph,
                                QueryBudget, _GraphListHost,
                                estimate_pair_matched,
                                exact_pair_matched_count, gmm_vertex_status,
                                materialized_gmm, mm_size_estimate)
from dynmatch.streaming import (B_GENERAL, bipartite_two_pass,
                                bulk_maximal_b_matching, general_two_pass)
from dynmatch.estimator import Estimator, EstimatorConfig
from dynmatch.harness import generate_workload, run_stream, write_report

BIG = QueryBudget(max_probes=None)


def verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _random_graph(n: int, p: float, rng: random.Random) -> DynamicGraph:
    g = DynamicGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert(u, v)
    return g


def _random_bipartite(n: int, p: float, rng: random.Random) -> DynamicGraph:
    g = DynamicGraph(n)
    half = n // 2
    for u in range(half):
        for v in range(half, n):
            if rng.random() < p:
                g.insert(u, v)
    return g


# -- criterion 1: local greedy status equals global greedy ------------------


def test_criterion_01_local_greedy_exactness():
    rng = random.Random(101)
    mismatches = 0
    checked = 0
    for trial in range(500):
        n = rng.randrange(2, 51)
        g = _random_graph(n, rng.choice([0.05, 0.1, 0.2, 0.4]), rng)
        ranks = RankFunction(trial)
        gm = oracles.greedy_maximal_matching(g, ranks)
        host = _GraphListHost(g)
        for v in range(n):
            st = gmm_vertex_status(host, v, ranks, BIG)
            checked += 1
            if (st == "Matched") != gm.is_matched(v):
                mismatches += 1
    verdict(1, mismatches == 0,
            f"500 graphs, {checked} vertices, {mismatches} mismatches")


# -- criterion 2: implicit supergraph vs materialized adjacency -------------


def test_criterion_02_supergraph_fidelity():
    rng = random.Random(202)
    mismatches = 0
    size_errors = 0
    sizes = [rng.randrange(2, 15) for _ in range(48)] + [25, 40]
    for idx, n in enumerate(sizes):
        g = _random_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
        delta = 0.9
        h = ImplicitSupergraph(AdjacencyOracle(g), delta)
        verts, edges = h.materialize()
        if h.num_vertices != 2 * n + n * n + n * h.s or \
                len(verts) != h.num_vertices:
            size_errors += 1
        adj = {}
        for (a, b) in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        for x in verts:
            got = set()
            for j in range(1, h.degree(x) + 1):
                y = h.list_query(x, j)
                if y is not None:
                    got.add(y)
            if got != adj.get(x, set()):
                mismatches += 1
    verdict(2, mismatches == 0 and size_errors == 0,
            f"50 graphs, {mismatches} adjacency mismatches, "
            f"{size_errors} size errors")


# -- criterion 3: maximal b-matchings vs the lr/(l+r) floor -----------------


def test_criterion_03_b_matching_floor_exhaustive():
    nx = pytest.importorskip("networkx")
    violations = 0
    graphs = 0
    runs = 0
    rng = random.Random(303)
    for ag in nx.graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if n > 7 or ag.number_of_edges() == 0:
            continue
        if not nx.is_connected(ag) or not nx.is_bipartite(ag):
            continue
        g = DynamicGraph(n)
        base = [tuple(sorted(e)) for e in ag.edges()]
        for e in base:
            g.insert(*e)
        color = oracles.bipartition(g)
        mu = oracles.max_matching_size(g)
        graphs += 1
        m = len(base)
        if math.factorial(m) <= 10**4:
            orders = list(itertools.permutations(base))
        else:
            orders = []
            for _ in range(10**4):
                o = base[:]
                rng.shuffle(o)
                orders.append(tuple(o))
        for (l, r) in itertools.product((1, 2, 3), repeat=2):
            caps = {v: (l if color[v] == 0 else r) for v in range(n)}
            floor = mu * l * r / (l + r)
            for order in orders:
                runs += 1
                bm = bulk_maximal_b_matching(list(order), caps)
                if bm.size < floor - 1e-9:
                    violations += 1
    verdict(3, violations == 0,
            f"{graphs} graphs, {runs} runs, {violations} violations")


# -- criterion 4: disjoint 3-augmenting paths on all 8-vertex graphs --------


@pytest.fixture(scope="session")
def eight_vertex_classes():
    nx = pytest.importorskip("networkx")

    def invariant(g):
        deg = dict(g.degree())
        tri = nx.triangles(g)
        prof = sorted((deg[v], tri[v],
                       tuple(sorted(deg[u] for u in g[v]))) for v in g)
        return (g.number_of_edges(), tuple(prof))

    seven = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
    buckets = {}
    for g7 in seven:
        base = list(g7.edges())
        for mask in range(128):
            g = nx.Graph()
            g.add_nodes_from(range(8))
            g.add_edges_from(base)
            for i in range(7):
                if mask >> i & 1:
                    g.add_edge(i, 7)
            bucket = buckets.setdefault(invariant(g), [])
            for h in bucket:
                if nx.is_isomorphic(g, h):
                    break
            else:
                bucket.append(g)
    classes = [g for b in buckets.values() for g in b]
    assert len(classes) == 12346
    return [sorted(tuple(sorted(e)) for e in g.edges()) for g in classes]


def _maximal_matchings(edges):
    m = len(edges)
    masks = [(1 << u) | (1 << v) for (u, v) in edges]
    res = []

    def rec(i, used, cur):
        if i == m:
            for bm in masks:
                if not (bm & used):
                    return
            res.append(cur[:])
            return
        bm = masks[i]
        if not (bm & used):
            cur.append(edges[i])
            rec(i + 1, used | bm, cur)
            cur.pop()
        rec(i + 1, used, cur)

    rec(0, 0, [])
    return res


def test_criterion_04_three_aug_paths_exhaustive(eight_vertex_classes):
    violations = 0
    checked = 0
    for edges in eight_vertex_classes:
        if not edges:
            continue
        maximals = _maximal_matchings(edges)
        mu = max(len(mm) for mm in maximals)
        g = None
        for mm in maximals:
            checked += 1
            need = 2 * mu - 3 * len(mm)  # (1/2 - 3c) * mu with eps = 0
            if need <= 0:
                continue
            if g is None:
                g = DynamicGraph(8)
                for e in edges:
                    g.insert(*e)
            if oracles.count_disjoint_3aug(g, Matching(mm)) < need:
                violations += 1
    verdict(4, violations == 0,
            f"12346 classes, {checked} maximal matchings, "
            f"{violations} violations")


# -- criterion 5: two-pass bipartite sandwich -------------------------------


def test_criterion_05_streaming_bipartite_sandwich():
    rng = random.Random(505)
    bound = 1 + 1 / math.sqrt(2) + 0.15
    failures = 0
    for density in (0.05, 0.2, 0.5):
        for _ in range(100):
            edges = []
            for u in range(50):
                for v in range(50, 100):
                    if rng.random() < density:
                        edges.append((u, v))
            rng.shuffle(edges)
            nu, _, _ = bipartite_two_pass(edges, 0.15, n=100)
            g = DynamicGraph(100)
            for e in edges:
                g.insert(*e)
            mu = oracles.max_matching_size(g)
            if not (nu <= mu + 1e-9 and mu <= bound * nu + 1e-9):
                failures += 1
    verdict(5, failures == 0, f"300 runs, {failures} outside the sandwich")


# -- criterion 6: two-pass general expected retained size -------------------


def test_criterion_06_streaming_general_expectation():
    rng = random.Random(606)
    failures = 0
    for gi in range(20):
        p = (0.03, 0.06, 0.1)[gi % 3]
        edges = []
        for u in range(60):
            for v in range(u + 1, 60):
                if rng.random() < p:
                    edges.append((u, v))
        rng.shuffle(edges)
        g = DynamicGraph(60)
        for e in edges:
            g.insert(*e)
        mu = oracles.max_matching_size(g)
        if mu == 0:
            continue
        total = 0.0
        for seed in range(300):
            total += general_two_pass(edges, seed=seed, n=60).value
        mean = total / 300
        if mean < (0.5 + 1 / 144 - 0.2) * mu - 0.01 * mu - 1e-9:
            failures += 1
    verdict(6, failures == 0, f"20 graphs x 300 seeds, {failures} below floor")


# -- criteria 7 and 10 share ten instrumented dynamic bipartite runs --------


@pytest.fixture(scope="session")
def dyn_bipartite_runs():
    runs = []
    for r in range(10):
        events = generate_workload("random-bipartite", 300, seed=700 + r,
                                   horizon=10**4, density=0.1)
        est = Estimator(300, EstimatorConfig(mode="bipartite", eps=0.2,
                                             seed=r + 1, reps=25))
        checks = []
        rebuilds = []
        last_rc = est.amm.rebuild_count
        t = 0
        for ev in events:
            est.apply(ev)
            t += 1
            if est.amm.rebuild_count != last_rc:
                last_rc = est.amm.rebuild_count
                m = est.amm.matching()
                live_maximal = (
                    all(est.g.edge_exists(u, v) for (u, v) in m.edges())
                    and all(m.is_matched(u) or m.is_matched(v)
                            for (u, v) in est.g.edges()))
                rep = dict(est.amm.last_rebuild_report)
                # the library kernel's high-degree set over the live graph
                high_degree = 0
                if rep.get("branch") == "kernel":
                    high_degree = len(high_degree_nodes(Kernel(
                        list(est.g.edges()),
                        provider_degree_bound(est.g, 0.2), 0.2)))
                rebuilds.append((rep, high_degree,
                                 oracles.max_matching_size(est.g),
                                 live_maximal))
            if t % 100 == 0:
                nu = est.estimate().nu
                mu = oracles.max_matching_size(est.g)
                m = est.amm.matching()
                checks.append({
                    "nu": nu, "mu": mu, "msize": len(m),
                    "witness_ok": oracles.amm_witness_check(
                        est.g, m, 6 * 0.2, mu),
                })
        runs.append({"checks": checks, "rebuilds": rebuilds})
    return runs


def test_criterion_07_dynamic_bipartite_ratio(dyn_bipartite_runs):
    bound = 1.707 + 0.2
    ok = True
    worst = 0.0
    for run in dyn_bipartite_runs:
        good = 0
        for ck in run["checks"]:
            nu, mu = ck["nu"], ck["mu"]
            if mu > 0 and nu > 0:
                worst = max(worst, mu / nu)
            if nu <= mu + 1e-9 and mu <= bound * nu + 1e-9:
                good += 1
            elif mu == 0 and nu == 0:
                good += 1
        if good < 0.99 * len(run["checks"]):
            ok = False
    verdict(7, ok, f"10 runs x 100 checkpoints, worst ratio {worst:.4f}")


def test_criterion_10_amm_maintenance(dyn_bipartite_runs):
    eps = 0.2
    bad_checks = 0
    bad_rebuilds = 0
    n_rebuilds = 0
    n_kernel = 0
    for run in dyn_bipartite_runs:
        for ck in run["checks"]:
            if not ck["witness_ok"]:
                bad_checks += 1
            if ck["msize"] < (0.5 - eps / 2) * ck["mu"] - 1e-9:
                bad_checks += 1
        for (rep, high_degree, mu, live_maximal) in run["rebuilds"]:
            n_rebuilds += 1
            # the swapped-in matching: live edges only, maximal in the graph
            if not live_maximal:
                bad_rebuilds += 1
            if rep.get("branch") == "kernel":
                n_kernel += 1
                if high_degree > 4 * mu:
                    bad_rebuilds += 1
    verdict(10, bad_checks == 0 and bad_rebuilds == 0 and n_kernel > 0,
            f"{n_rebuilds} rebuilds audited ({n_kernel} kernel-branch), "
            f"{bad_checks} checkpoint and {bad_rebuilds} rebuild violations")


# -- criterion 8: dynamic general end-to-end --------------------------------


def test_criterion_08_dynamic_general_ratio():
    bound = 1.973 + 0.25
    ok = True
    worst = 0.0
    for r in range(10):
        events = generate_workload("random-er", 60, seed=800 + r,
                                   horizon=5000, density=0.15)
        est = Estimator(60, EstimatorConfig(mode="general", eps=0.25,
                                            seed=r + 1, reps=25))
        good = total = 0
        t = 0
        for ev in events:
            est.apply(ev)
            t += 1
            if t % 100 == 0:
                nu = est.estimate().nu
                mu = oracles.max_matching_size(est.g)
                total += 1
                if nu > mu + 1e-9:  # mean of repetitions must stay below mu
                    ok = False
                if mu > 0 and nu > 0:
                    worst = max(worst, mu / nu)
                if (mu == 0 and nu == 0) or \
                        (nu > 0 and mu <= bound * nu + 1e-9):
                    good += 1
        if good < 0.99 * total:
            ok = False
    verdict(8, ok, f"10 runs x 50 checkpoints, worst ratio {worst:.4f}")


# -- criterion 9: adaptive adversary keeps criterion-7 thresholds -----------


def test_criterion_09_adaptive_adversary():
    bound = 1.707 + 0.2
    ok = True
    worst = 0.0
    for r in range(3):
        cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=r + 1, reps=25)
        events = generate_workload("adaptive-adversary", 300, seed=900 + r,
                                   horizon=10**4, density=0.1,
                                   query_every=100, cfg=cfg)
        res = run_stream(events, 300, cfg, oracle_every=1)
        good = total = 0
        for row in res.rows:
            if "mu" not in row:
                continue
            nu, mu = row["nu"], row["mu"]
            total += 1
            if mu > 0 and nu > 0:
                worst = max(worst, mu / nu)
            if (mu == 0 and nu == 0) or \
                    (nu <= mu + 1e-9 and mu <= bound * nu + 1e-9):
                good += 1
        if total == 0 or good < 0.99 * total:
            ok = False
    verdict(9, ok, f"3 adversarial runs, worst ratio {worst:.4f}")


# -- criterion 11: sublinear estimator sandwich -----------------------------


def test_criterion_11_sublinear_sandwich():
    rng = random.Random(1111)
    n, eps = 200, 0.1
    good = 0
    for trial in range(200):
        g = _random_bipartite(n, rng.choice([0.01, 0.02, 0.05]), rng)
        nu = mm_size_estimate(g, eps, seed=trial)
        mu = oracles.max_matching_size(g)
        if mu / 2 - eps * n - 1e-9 <= nu <= mu + 1e-9:
            good += 1
    # exact-window reference at small n: the fully materialized construction
    exact_ok = 0
    trials2 = 40
    for trial in range(trials2):
        rng2 = random.Random(trial)
        n2 = (8, 12, 16)[trial % 3]
        eps2 = 0.4
        g = _random_graph(n2, 0.3, rng2)
        if g.m == 0:
            exact_ok += 1
            continue
        mu = oracles.max_matching_size(g)
        delta = eps2 / 4.0
        matched = materialized_gmm(g, delta, RankFunction(trial * 7 + 1))
        frac = sum(1 for i in range(n2) if ("v", i) in matched) / n2
        nu = max(0.0, (frac - eps2 / 4.0 - delta) * n2 / 2.0)
        if mu / 2 - eps2 * n2 - 1e-9 <= nu <= mu + 1e-9:
            exact_ok += 1
    verdict(11, good >= 0.99 * 200 and exact_ok == trials2,
            f"{good}/200 sampled trials, {exact_ok}/{trials2} exact-window")


# -- criterion 12: pair-matched count window --------------------------------


def test_criterion_12_pair_matched_window():
    n, k, eps = 8, 4, 0.5
    g = DynamicGraph(n)
    for i in range(k):
        g.insert(i, k + i)
    mstar = Matching([(i, k + i) for i in range(k)])
    good = 0
    for seed in range(200):
        exact = exact_pair_matched_count(g, mstar, eps, seed)
        kappa = estimate_pair_matched(g, mstar, eps, seed, sample_constant=4,
                                      budget=BIG, force_sampling=True)
        if exact - eps**2 * n - 1e-9 <= kappa <= exact + 1e-9:
            good += 1
    verdict(12, good >= 0.95 * 200, f"{good}/200 inside the window")


# -- criterion 13: below-2 tradeoff with the maximal-matching provider -----


def test_criterion_13_tradeoff_below_two():
    est = Estimator(300, EstimatorConfig(mode="tradeoff", eps=0.05,
                                         seed=13, reps=5))
    events = generate_workload("planted-matching", 300, seed=13)
    ratios = []
    t = 0
    for ev in events:
        est.apply(ev)
        t += 1
        if t % 10 == 0:
            nu = est.estimate().nu
            mu = oracles.max_matching_size(est.g)
            if nu > 0:
                ratios.append(mu / nu)
    avg = sum(ratios) / len(ratios)
    verdict(13, avg <= 2 - 0.003 + 1e-9,
            f"avg ratio {avg:.4f} over {len(ratios)} checkpoints")


# -- criterion 14: per-update cost scaling ----------------------------------


def test_criterion_14_scaling_report():
    costs = []
    for n in (2**10, 2**11, 2**12, 2**13):
        events = generate_workload("random-er", n, seed=14, horizon=1500,
                                   density=4.0 / (n - 1))
        est = Estimator(n, EstimatorConfig(mode="general", eps=0.3, seed=1,
                                           reps=1))
        t = 0
        for ev in events:
            est.apply(ev)
            t += 1
            if t % 300 == 0:
                est.estimate()
        costs.append(est.total_work() / max(1, len(events)))
    ratios = [costs[i + 1] / costs[i] for i in range(len(costs) - 1)]
    warn = [r for r in ratios if r > 2.0]
    detail = "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    if warn:
        detail += " (warn: above 2.0 soft gate)"
    verdict(14, all(r <= 2.5 for r in ratios), detail)


# -- criterion 15: byte-identical reports under a fixed seed ----------------


def test_criterion_15_determinism(tmp_path):
    events = generate_workload("random-bipartite", 100, seed=15,
                               horizon=2000, density=0.1, query_every=100)
    cfg = EstimatorConfig(mode="bipartite", eps=0.2, seed=15, reps=9)
    paths = []
    for name in ("a.json", "b.json"):
        res = run_stream(events, 100, cfg, oracle_every=1)
        p = str(tmp_path / name)
        write_report(p, res)
        paths.append(p)
    same_json = open(paths[0], "rb").read() == open(paths[1], "rb").read()
    same_csv = open(paths[0] + ".csv", "rb").read() == \
        open(paths[1] + ".csv", "rb").read()
    verdict(15, same_json and same_csv,
            "repeated run produced byte-identical JSON and CSV reports")
