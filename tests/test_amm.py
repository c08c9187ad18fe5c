import math
import random
import re

import pytest

from dynmatch.graph import (DynamicGraph, GraphError, Matching, NotMaximal,
                            first_pass_matching)
from dynmatch import oracles
from dynmatch.amm import (AMfM, AMMMaintainer, DynamicMaximalMatching, Kernel,
                          KernelValidationFailed, ShortAugmentingPath,
                          ValidationFailed, augment_short_paths,
                          check_two_thirds, edge_color_and_sparsify,
                          fractional_provider, high_degree_nodes, level_of,
                          required_degree_bound, static_amm_from_kernel,
                          validate_amfm, validate_kernel)
from dynmatch.harness import generate_workload


def build(n, edges):
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    return g


def test_provider_edgeless_and_single_edge():
    amfm = fractional_provider(build(3, []), 0.2)
    assert amfm.x == {}
    amfm = fractional_provider(build(2, [(0, 1)]), 0.2)
    validate_amfm(build(2, [(0, 1)]), amfm)
    assert amfm.x == {(0, 1): 1.0}


def test_provider_star_spreads_weight():
    g = build(6, [(0, i) for i in range(1, 6)])
    amfm = fractional_provider(g, 0.2)
    for e in g.edges():
        assert amfm.x[e] == pytest.approx(1.0 / 5)
    validate_amfm(g, amfm)


def test_provider_valid_on_random_graphs():
    rng = random.Random(1)
    for trial in range(25):
        n = rng.randrange(3, 30)
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    g.insert(u, v)
        amfm = fractional_provider(g, 0.2)
        validate_amfm(g, amfm)


def test_amfm_validator_rejects_bad_assignment():
    g = build(3, [(0, 1), (1, 2)])
    bad = AMfM(x={(0, 1): 0.01}, c=1.2, d=10)
    with pytest.raises(ValidationFailed, match="neither heavy nor blocked"):
        validate_amfm(g, bad)


def test_amfm_validator_checks_feasibility_first():
    # the path 0-1-2: every value is heavy, so only feasibility can fail
    g = build(3, [(0, 1), (1, 2)])
    for x, why in (({(0, 1): 0.9, (1, 2): 0.9, (2, 3): 0.9}, "at 1"),
                   ({(0, 1): 0.9, (2, 3): 0.9}, "(2,3)"),
                   ({(0, 1): 1.0, (0, 2): 0.5}, "(0,2)"),
                   ({(1, 0): 1.0}, "(1,0)"),
                   ({(0, 1): 1.0, (1, 2): -0.5}, "value -0.5"),
                   ({(0, 1): float("nan")}, "value nan")):
        with pytest.raises(ValidationFailed, match=re.escape(why)):
            validate_amfm(g, AMfM(x=x, c=1.2, d=2))
    validate_amfm(g, AMfM(x={(0, 1): 0.6, (1, 2): 0.4}, c=1.2, d=3))


def test_degree_bound_formula():
    c, eps = 1.4, 0.2
    assert required_degree_bound(100, c, eps) == \
        math.ceil(9 * c * 1.2**2 * math.log(100) / 0.04)


def test_level_assignment():
    assert level_of(1.0, 0.2) == 1
    assert level_of(0.9, 0.2) == 1
    x = 1.2**-3 * 0.999
    assert level_of(x, 0.2) == 4


def test_sparsify_takes_levels_wholesale_and_rejects_degree_above_d():
    # levels ascend, each in the AMfM's order: x = 0.5 is level 4 at eps
    # 0.2, x = 1.0 level 1
    g = build(6, [(0, 1), (2, 3), (4, 5)])
    x = {(0, 1): 0.5, (2, 3): 1.0, (4, 5): 0.5}
    kern = edge_color_and_sparsify(g, AMfM(x=x, c=1.4, d=2), 0.2)
    assert kern.edges == [(2, 3), (0, 1), (4, 5)]
    # a star's centre has kernel degree 5 > d = 2
    star = build(6, [(0, i) for i in range(1, 6)])
    x = dict.fromkeys(star.edges(), 0.2)
    with pytest.raises(KernelValidationFailed):
        edge_color_and_sparsify(star, AMfM(x=x, c=1.4, d=2), 0.2)


def test_sparsify_perfect_matching_support():
    g = build(8, [(i, i + 4) for i in range(4)])
    amfm = AMfM(x=dict.fromkeys(g.edges(), 0.8), c=1.4, d=10)
    kern = edge_color_and_sparsify(g, amfm, 0.2)
    assert sorted(kern.edges) == sorted(g.edges())
    assert max(kern.degrees.values()) == 1


def test_sparsify_empty_and_triangle():
    g = build(3, [])
    amfm = AMfM(x={}, c=1.4, d=5)
    kern = edge_color_and_sparsify(g, amfm, 0.2)
    assert kern.edges == []
    validate_kernel(g, kern)
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    amfm = fractional_provider(tri, 0.2)
    kern = edge_color_and_sparsify(tri, amfm, 0.2)
    validate_kernel(tri, kern)
    assert max(kern.degrees.values()) <= amfm.d


def test_kernel_validator_rejects_uncovered_exclusion():
    g = build(4, [(0, 1), (2, 3)])
    kern = Kernel(edges=[(0, 1)], d=3, eps=0.0)
    with pytest.raises(KernelValidationFailed, match=re.escape("(2,3)")):
        validate_kernel(g, kern)


def test_kernel_validator_rejects_edges_outside_g():
    g = build(4, [(0, 1), (2, 3)])
    validate_kernel(g, Kernel(edges=[(3, 2), (0, 1)], d=3, eps=0.0))
    for stray in ((1, 2), (3, 4), (-1, 0)):
        kern = Kernel(edges=[(0, 1), (2, 3), stray], d=3, eps=0.0)
        with pytest.raises(KernelValidationFailed, match="not in g"):
            validate_kernel(g, kern)


def test_static_extraction_examples():
    # bounded-degree kernel equal to a perfect matching: no high-degree nodes
    g = build(8, [(i, i + 4) for i in range(4)])
    kern = Kernel(edges=list(g.edges()), d=50, eps=0.0)
    state = static_amm_from_kernel(g, kern, 0.0)
    assert len(state.matching) == 4 and state.witness == set()
    # star with d equal to its degree: center is high-degree, still covered
    star = build(6, [(0, i) for i in range(1, 6)])
    kern = Kernel(edges=list(star.edges()), d=5, eps=0.0)
    state = static_amm_from_kernel(star, kern, 0.0)
    assert len(state.matching) == 1 and state.witness == set()
    # 3-edge path at d=2: both middle vertices are high-degree and matched
    path = build(4, [(0, 1), (1, 2), (2, 3)])
    kern = Kernel(edges=list(path.edges()), d=2, eps=0.0)
    assert sorted(high_degree_nodes(kern)) == [1, 2]
    state = static_amm_from_kernel(path, kern, 0.0)
    assert state.witness == set()
    for (u, v) in path.edges():
        assert state.matching.is_matched(u) or state.matching.is_matched(v)


def test_high_degree_set_small_and_kernel_edge_bound():
    rng = random.Random(9)
    for trial in range(15):
        n = 40
        g = DynamicGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    g.insert(u, v)
        eps = 0.2
        amfm = fractional_provider(g, eps)
        kern = edge_color_and_sparsify(g, amfm, eps)
        validate_kernel(g, kern)
        mu = oracles.max_matching_size(g)
        assert len(high_degree_nodes(kern)) <= 4 * mu
        kernel_mu = oracles.max_matching_size(build(n, kern.edges))
        assert len(kern.edges) <= 2 * kernel_mu * kern.d


def test_dynamic_maximal_matching_repair():
    g = DynamicGraph(6)
    dm = DynamicMaximalMatching(g)
    g.register(dm)
    g.insert(0, 1)
    g.insert(1, 2)  # blocked
    g.insert(2, 3)
    assert len(dm.m) == 2
    g.delete(0, 1)  # endpoint 1 rematches to 2? 2 is taken; stays free
    for (u, v) in g.edges():
        assert dm.m.is_matched(u) or dm.m.is_matched(v)
    g.delete(2, 3)
    assert (1, 2) in dm.m


def test_maintainer_insert_only_disjoint():
    g = DynamicGraph(400)
    mnt = AMMMaintainer(g, eps=0.2)
    g.register(mnt)
    for i in range(200):
        g.insert(i, 200 + i)
        m = mnt.matching()
        for (u, v) in g.edges():
            assert m.is_matched(u) or m.is_matched(v)
    assert len(mnt.matching()) == 200


def test_maintainer_survives_matched_edge_deletions():
    g = DynamicGraph(60)
    mnt = AMMMaintainer(g, eps=0.2)
    g.register(mnt)
    rng = random.Random(2)
    live = set()
    for _ in range(500):
        u, v = rng.randrange(60), rng.randrange(60)
        if u != v and (min(u, v), max(u, v)) not in live:
            live.add((min(u, v), max(u, v)))
            g.insert(u, v)
    for e in list(mnt.matching().edges())[:5]:
        live.discard(e)
        g.delete(*e)
        mu = oracles.max_matching_size(g)
        assert oracles.amm_witness_check(g, mnt.matching(), 6 * 0.2, mu)
        assert len(mnt.matching()) >= (0.5 - 0.1) * mu


def test_maintainer_work_counts_repair_reads():
    """Each update is charged 1 and every neighbour its repair reads, the
    augmenting searches included; deleting a matched edge and inserting
    next to a matched vertex read neighbours."""
    g = DynamicGraph(30)
    mnt = AMMMaintainer(g, eps=0.9)
    g.register(mnt)
    reads = 0
    neighbors = g.neighbors

    def counted(v):
        nonlocal reads
        for w in neighbors(v):
            reads += 1
            yield w

    g.neighbors = counted
    rng = random.Random(4)
    total = augmented = 0
    for _ in range(600):
        u, v = rng.randrange(30), rng.randrange(30)
        if u == v:
            continue
        work, size, reads = mnt.work, len(mnt.matching()), 0
        if g.edge_exists(u, v):
            g.delete(u, v)
        else:
            free = [x for x in (u, v) if not mnt.matching().is_matched(x)]
            g.insert(u, v)
            # an insert with one free end grows M1 only by augmenting
            augmented += len(free) == 1 and len(mnt.matching()) > size
        assert mnt.work - work == 1 + reads
        total += reads
    assert total > 0 and augmented > 0


def test_maintainer_small_size_branch():
    """No update rebuilds. A rebuild called on an edgeless graph reports
    `empty`; a one-edge matching, below 1/eps, is still rebuilt in level
    order."""
    g = DynamicGraph(10)
    mnt = AMMMaintainer(g, eps=0.4)
    g.register(mnt)
    g.insert(0, 1)
    g.insert(2, 3)
    g.delete(0, 1)
    g.delete(2, 3)
    assert mnt.last_rebuild_report == {}
    mnt.rebuild()
    assert mnt.last_rebuild_report == {"empty": True}
    g.insert(4, 5)
    mnt.rebuild()
    assert mnt.last_rebuild_report == {"branch": "kernel", "kernel_edges": 1}
    assert mnt.matching().edges() == [(4, 5)]


@pytest.mark.parametrize("eps", [0.2, 0.9])
def test_updates_never_rebuild(monkeypatch, eps):
    """Over a churn stream, at any eps, no update calls `rebuild`, and M1
    certifies 2/3 after each."""
    monkeypatch.setattr(AMMMaintainer, "rebuild",
                        lambda self: pytest.fail("an update rebuilt"))
    g = DynamicGraph(60)
    mnt = AMMMaintainer(g, eps=eps)
    g.register(mnt)
    for ev in generate_workload("random-er", 60, 3, horizon=3000,
                                density=0.2):
        g.apply(ev)
        check_two_thirds(g, mnt.matching())


def test_maintainer_rebuild_report():
    g = DynamicGraph(50)
    mnt = AMMMaintainer(g, eps=0.2)
    g.register(mnt)
    rng = random.Random(7)
    for _ in range(300):
        u, v = rng.randrange(50), rng.randrange(50)
        if u != v and not g.edge_exists(u, v):
            g.insert(u, v)
    assert mnt.last_rebuild_report == {}
    mnt.rebuild()
    rep = mnt.last_rebuild_report
    assert rep["branch"] == "kernel" and rep["kernel_edges"] == g.m
    # live, maximal and free of 3-augmenting paths
    check_two_thirds(g, mnt.matching())


# -- the 2/3 certificate ---------------------------------------------------


def test_check_two_thirds_examples():
    """A live maximal matching with no 3-augmenting path passes; each of
    the three faults raises its own exception."""
    path = build(4, [(0, 1), (1, 2), (2, 3)])
    check_two_thirds(path, Matching([(0, 1), (2, 3)]))
    with pytest.raises(ShortAugmentingPath, match="0-1=2-3"):
        check_two_thirds(path, Matching([(1, 2)]))
    with pytest.raises(NotMaximal):
        check_two_thirds(path, Matching([(0, 1)]))
    with pytest.raises(GraphError, match="not in g"):
        check_two_thirds(path, Matching([(0, 1), (2, 3), (4, 5)]))
    # both ends see only the same free vertex: no augmenting path
    tri = build(3, [(0, 1), (1, 2), (0, 2)])
    check_two_thirds(tri, Matching([(0, 1)]))
    # one end sees two free vertices, the other one of them
    g = build(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
    with pytest.raises(ShortAugmentingPath, match="3-0=1-2"):
        check_two_thirds(g, Matching([(0, 1)]))


def test_augment_short_paths_is_one_sweep():
    """On k middle-first paths x-u-v-y, the greedy matching is the k
    middles; one sweep augments every one, reading each end's neighbours."""
    k = 50
    edges = [(4 * j + 1, 4 * j + 2) for j in range(k)]
    edges += [e for j in range(k)
              for e in ((4 * j, 4 * j + 1), (4 * j + 2, 4 * j + 3))]
    g = build(4 * k, edges)
    m = first_pass_matching(edges)
    assert len(m) == k
    assert augment_short_paths(g, m) == 2 * 2 * k
    assert len(m) == 2 * k == oracles.max_matching_size(g)
    check_two_thirds(g, m)
    # a second sweep finds no free end: it reads x's one neighbour and v's
    # two per path, and changes nothing
    edges = m.edges()
    assert augment_short_paths(g, m) == 3 * k and m.edges() == edges


def test_repair_rules_by_trigger():
    """Each trigger of the repair on its smallest case: an insert next to
    a matched vertex, and a matched-edge delete that leaves an endpoint
    free."""
    g = DynamicGraph(8)
    mnt = AMMMaintainer(g, eps=0.2)
    g.register(mnt)
    m = mnt.matching()
    # middle first: the pendant 3 of the matched 2 completes 0-1=2-3
    for e in [(1, 2), (0, 1), (2, 3)]:
        g.insert(*e)
    assert sorted(m.edges()) == [(0, 1), (2, 3)]
    # deleting 0-1 leaves 1 free, with 2's partner 3 next to free 4
    g.insert(3, 4)
    g.delete(0, 1)
    assert sorted(mnt.matching().edges()) == [(1, 2), (3, 4)]
    check_two_thirds(g, mnt.matching())


def test_repair_rematches_both_ends_before_augmenting():
    """A stream where deleting 4-7 frees both ends: 7 rematches to 3, 4
    finds no free neighbour and then augments 4-2=1-5. Were 4 checked
    while 7 was still free, 4-2=1-7 would augment through a vertex with a
    free neighbour and leave 5-1=7-3; with both rematches first, the
    certificate holds after every update."""
    g = DynamicGraph(8)
    mnt = AMMMaintainer(g, eps=0.2)
    g.register(mnt)
    for kind, u, v in [("i", 3, 5), ("i", 2, 5), ("i", 4, 7), ("d", 2, 5),
                       ("i", 1, 2), ("i", 1, 7), ("i", 1, 5), ("i", 2, 4),
                       ("d", 3, 5), ("i", 3, 7), ("d", 4, 7)]:
        g.insert(u, v) if kind == "i" else g.delete(u, v)
        check_two_thirds(g, mnt.matching())
    assert sorted(mnt.matching().edges()) == [(1, 5), (2, 4), (3, 7)]


def test_rebuild_charge_is_independent_of_n():
    """A rebuild is charged the live edges it reads, not the vertex ids."""
    rng = random.Random(5)
    edges = list({(min(u, v), max(u, v))
                  for u, v in ((rng.randrange(40), rng.randrange(40))
                               for _ in range(200)) if u != v})
    rng.shuffle(edges)
    works = []
    for n in (40, 40_000):
        g = build(n, [])
        mnt = AMMMaintainer(g, eps=0.2)
        g.register(mnt)
        for e in edges:
            g.insert(*e)
        mnt.rebuild()
        assert mnt.last_rebuild_report["branch"] == "kernel"
        works.append(mnt.work)
    assert works[0] == works[1]


def equality_cases():
    """Seeded graphs: random graphs of several densities, complete graphs
    and stars (where the provider's d equals the maximum degree)."""
    rng = random.Random(11)
    for n in (2, 3, 10, 60, 300):
        if n <= 60:
            yield f"complete-{n}", n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)]
        yield f"star-{n}", n, [(0, v) for v in range(1, n)]
        for p in ((0.01, 0.03, 0.08) if n == 300 else (0.05, 0.3, 0.8)):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            rng.shuffle(edges)
            yield f"random-{n}-{p}", n, edges


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 0.99])
def test_rebuild_equals_library_pipeline(eps):
    """The maintainer's kernel branch must be one greedy pass over the kernel
    the library pipeline provider -> sparsifier produces, in its order,
    then one `augment_short_paths` sweep; where that kernel has no
    high-degree node, the library extraction must give the greedy matching
    with an empty witness."""
    kernel_rebuilds = 0
    no_high_degree = 0
    swept = 0
    for name, n, edges in equality_cases():
        g = build(n, edges)
        ref_kern = edge_color_and_sparsify(g, fractional_provider(g, eps), eps)
        mnt = AMMMaintainer(g, eps=eps)
        mnt.rebuild()
        rep = mnt.last_rebuild_report
        if not g.m:
            assert rep["empty"], name
            continue
        kernel_rebuilds += 1
        assert rep["branch"] == "kernel", name
        assert rep["kernel_edges"] == g.m, name
        greedy = first_pass_matching(ref_kern.edges)
        if not high_degree_nodes(ref_kern):
            no_high_degree += 1
            ref = static_amm_from_kernel(g, ref_kern, eps)
            assert greedy.edges() == ref.matching.edges(), name
            assert ref.witness == set(), name
        augment_short_paths(g, greedy)
        assert mnt.matching().edges() == greedy.edges(), name
        swept += greedy.edges() != first_pass_matching(ref_kern.edges).edges()
    assert kernel_rebuilds >= 20 and swept > 0
    if eps <= 0.5:
        assert no_high_degree > 0
