import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from dynmatch.graph import (BMatching, DynamicGraph, Matching, NotMaximal,
                            norm_edge)
from dynmatch import estimator, oracles, streaming
from dynmatch.streaming import (B_BIPARTITE, B_GENERAL, DELTA, Boundary,
                                NonBipartiteInput, SecondPassConfig,
                                bipartite_two_pass, bulk_maximal_b_matching,
                                coin, coin_word, disjoint_augmenting_paths,
                                first_pass_matching, general_two_pass,
                                random_bipartition, second_pass_general)


def build(n, edges):
    g = DynamicGraph(n)
    for e in edges:
        g.insert(*e)
    return g


DISJOINT4 = [(i, i + 4) for i in range(4)]
PATH4 = [(0, 1), (1, 2), (2, 3)]


def test_config_derivation():
    cfg = SecondPassConfig.bipartite(0.15)
    assert B_BIPARTITE == pytest.approx(1 + math.sqrt(2))
    assert DELTA == 1.0 / B_BIPARTITE
    # k >= 8 / (eps' * b) at eps' = eps / 16
    assert cfg.k == math.ceil(8.0 / ((0.15 / 16) * B_BIPARTITE)) == 354
    assert cfg.free_cap == int(cfg.k * B_BIPARTITE)


def test_first_pass_traces():
    assert len(first_pass_matching(DISJOINT4)) == 4
    assert first_pass_matching(PATH4).edges() == [(0, 1), (2, 3)]
    assert first_pass_matching([(1, 2), (0, 1), (2, 3)]).edges() == [(1, 2)]


def test_bulk_b_matching_saturates_and_is_maximal():
    caps = {0: 3, 1: 2, 2: 2}
    bm = bulk_maximal_b_matching([(0, 1), (0, 2)], caps)
    assert bm.mult[(0, 1)] == 2 and bm.mult[(0, 2)] == 1


def method_bulk_maximal_b_matching(edges, caps):
    """Reference: the saturating pass through `BMatching`'s own residual,
    add and maximality methods."""
    bm = BMatching(caps)
    for (u, v) in edges:
        t = min(bm.residual(u), bm.residual(v))
        if t > 0:
            bm.add(u, v, t)
    bm.check_maximal(edges)
    return bm


def _b_matching_outcome(fn, edges, caps):
    try:
        bm = fn(edges, caps)
    except Exception as exc:  # the reference's exception type is the spec
        return type(exc)
    return (list(bm.mult.items()), list(bm.load.items()),
            list(bm.caps.items()), bm.size)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_bulk_b_matching_equals_method_reference(data):
    n = data.draw(st.integers(2, 8))
    caps = {v: data.draw(st.integers(1, 4)) for v in range(n)}
    # at most one vertex without capacity: the pass must fail as the
    # reference does when an edge reaches it
    for v in data.draw(st.sets(st.integers(0, n - 1), max_size=1)):
        del caps[v]
    pair = st.tuples(st.integers(0, n - 1),
                     st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=24))
    if edges:
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=8))
        edges = data.draw(st.permutations(edges))
    got = _b_matching_outcome(bulk_maximal_b_matching, edges, caps)
    assert got == _b_matching_outcome(method_bulk_maximal_b_matching,
                                      edges, caps)
    if any(u not in caps or v not in caps for (u, v) in edges):
        assert got is KeyError
    else:
        assert isinstance(got, tuple)


def test_bulk_b_matching_rejects_nonpositive_caps():
    for fn in (bulk_maximal_b_matching, method_bulk_maximal_b_matching):
        with pytest.raises(ValueError):
            fn([(0, 1)], {0: 1, 1: 0})


class _Shifting:
    """Edges whose first iteration yields `first` and every later one
    `later`: an input that changes between a pass and its re-check."""

    def __init__(self, first, later):
        self.first, self.later, self.iterations = first, later, 0

    def __iter__(self):
        self.iterations += 1
        return iter(self.first if self.iterations == 1 else self.later)


def test_bulk_b_matching_rechecks_maximality():
    """The re-check reads the edges again: an edge between two unsaturated
    vertices that only the second iteration yields raises NotMaximal."""
    edges = _Shifting([(0, 1)], [(0, 1), (2, 3)])
    with pytest.raises(NotMaximal, match=r"at \(2,3\)"):
        bulk_maximal_b_matching(edges, dict.fromkeys(range(4), 1))
    assert edges.iterations == 2


def test_bipartite_two_pass_empty_and_disjoint():
    nu, _, _ = bipartite_two_pass([], 0.15, n=4)
    assert nu == 0.0
    nu, m1, m2 = bipartite_two_pass(DISJOINT4, 0.15, n=8)
    b = 1 + math.sqrt(2)
    assert len(m1) == 4 and m2.size == 0
    assert nu == pytest.approx((1 - 1 / b) * 4)
    # tightness witness: mu / nu equals 1 + 1/sqrt(2) exactly
    assert 4 / nu == pytest.approx(1 + 1 / math.sqrt(2))


def test_bipartite_two_pass_path_middle_first():
    nu, m1, m2 = bipartite_two_pass([(1, 2), (0, 1), (2, 3)], 0.15, n=4)
    cfg = SecondPassConfig.bipartite(0.15)
    assert m1.edges() == [(1, 2)]
    assert m2.size == 2 * cfg.k
    assert nu == pytest.approx(1 + DELTA)
    assert 2 / nu < 1 + 1 / math.sqrt(2) + 0.15


def test_bipartite_two_pass_rejects_odd_cycle():
    with pytest.raises(NonBipartiteInput):
        bipartite_two_pass([(0, 1), (1, 2), (0, 2)], 0.15, n=3)


def test_bipartite_two_pass_rejects_eps_outside_unit_interval():
    # one check, in SecondPassConfig.bipartite, shared with EstimatorConfig
    for eps in (0.0, -0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="eps"):
            SecondPassConfig.bipartite(eps)
        with pytest.raises(ValueError, match="eps"):
            bipartite_two_pass([(0, 1)], eps, 2)


def test_bipartite_bounds_hold_on_random_streams():
    rng = random.Random(2)
    for trial in range(40):
        n = 30
        edges = []
        seen = set()
        for _ in range(120):
            e = (rng.randrange(15), 15 + rng.randrange(15))
            if e not in seen:
                seen.add(e)
                edges.append(e)
        eps = 0.15
        nu, m1, m2 = bipartite_two_pass(edges, eps, n=n)
        mu = oracles.max_matching_size(build(n, edges))
        assert nu <= mu + 1e-9
        assert mu <= (1 + 1 / math.sqrt(2) + eps) * nu + 1e-9
        # the mixed value is achievable inside the retained subgraph
        union = DynamicGraph(n)
        for e in m1.edges():
            union.insert(*e)
        for e in m2.mult:
            if not union.edge_exists(*e):
                union.insert(*e)
        assert oracles.max_matching_size(union) >= nu - 1e-9


def test_random_bipartition_rules():
    m1 = Matching([(0, 1)])
    part = random_bipartition(m1, 4, seed=9)
    assert part.side_of(0) == "l" and part.side_of(1) == "r"
    again = random_bipartition(m1, 4, seed=9)
    assert ([part.side_of(v) for v in range(4)]
            == [again.side_of(v) for v in range(4)])
    with pytest.raises(KeyError):
        part.side_of(4)


def test_random_bipartition_balance():
    m1 = Matching()
    part = random_bipartition(m1, 1000, seed=4)
    left = sum(1 for v in range(1000) if part.side_of(v) == "l")
    assert abs(left - 500) <= 3 * math.sqrt(1000)


def test_general_two_pass_triangle_and_disjoint():
    for seed in range(8):
        res = general_two_pass([(0, 1), (1, 2), (0, 2)], seed=seed, n=3)
        assert res.value == 1
    res = general_two_pass(DISJOINT4, seed=0, n=8)
    assert res.value == 4 and res.M2 == {}


def test_general_two_pass_path_flip_cases():
    # middle edge arrives first, so the two free endpoints get coin flips;
    # output is 2 exactly when both extreme edges cross the bipartition
    outcomes = set()
    for seed in range(32):
        res = general_two_pass([(1, 2), (0, 1), (2, 3)], seed=seed, n=4)
        side = res.part.side_of
        crosses = (side(0) != side(1), side(2) != side(3))
        expected = 2 if all(crosses) else 1
        assert res.value == expected
        outcomes.add(crosses)
    assert (True, True) in outcomes and (False, False) in outcomes


def test_general_two_pass_rejects_a_seed_that_is_not_an_int():
    # a float would fail only in the first coin, and a bool is no seed
    for seed in (1.5, 1.0, "1", True, False, None):
        with pytest.raises(ValueError, match="seed"):
            general_two_pass(PATH4, 4, seed=seed)
    assert general_two_pass(PATH4, 4, seed=-(2**70)).value == 2


def test_general_value_never_exceeds_mu_and_lower_bound_edges():
    rng = random.Random(6)
    for trial in range(25):
        n = 20
        edges = []
        seen = set()
        for _ in range(60):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                edges.append((u, v))
        res = general_two_pass(edges, seed=trial, n=n)
        mu = oracles.max_matching_size(build(n, [tuple(sorted(e)) for e in edges]))
        assert len(res.M1) <= res.value <= mu
        # the pair-matched edges certify extra matching size
        assert mu >= len(res.M1) + len(res.M1_hat) / B_GENERAL - 1e-9


def test_disjoint_paths_size_and_disjointness():
    rng = random.Random(8)
    for trial in range(25):
        n = 24
        edges = []
        seen = set()
        for _ in range(80):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                edges.append((u, v))
        res = general_two_pass(edges, seed=trial, n=n)
        m1 = res.M1
        paths = disjoint_augmenting_paths(res.M1_hat, res.M2)
        assert len(paths) >= len(res.M1_hat) / B_GENERAL - 1e-9
        used = set()
        g = build(n, [tuple(sorted(e)) for e in edges])
        for (up, u, v, vp) in paths:
            assert (min(u, v), max(u, v)) in m1
            assert not m1.is_matched(up) and not m1.is_matched(vp)
            assert g.edge_exists(up, u) and g.edge_exists(v, vp)
            for x in (up, u, v, vp):
                assert x not in used
                used.add(x)


# -- bit identity with the dense per-vertex definitions ----------------------


def dense_sides(m1, n, seed, bit=63):
    """Reference: one word of sequential SplitMix64 per vertex id, in id
    order; a free vertex is "r" iff bit `bit` of its word is 1, and a
    matched vertex ignores its word and takes its side from its M1 edge."""
    side = {}
    words = splitmix64(seed & MASK64)
    for v in range(n):
        word = next(words)
        if m1.is_matched(v):
            side[v] = "l" if v < m1.partner[v] else "r"
        else:
            side[v] = "r" if word >> bit & 1 else "l"
    return side


def dense_second_pass_general(edges, m1, side, b, n):
    """Reference: caps over all of range(n), then the saturating pass."""
    caps = {v: (1 if m1.is_matched(v) else b) for v in range(n)}
    e2 = [e for e in edges if m1.is_matched(e[0]) != m1.is_matched(e[1])
          and side[e[0]] != side[e[1]]]
    bm = BMatching(caps)
    for (u, v) in e2:
        t = min(bm.residual(u), bm.residual(v))
        if t > 0:
            bm.add(u, v, t)
    m1_hat = [e for e in m1.edges()
              if bm.load[e[0]] >= 1 and bm.load[e[1]] >= 1]
    return bm, m1_hat


def dense_general_query(g, m1, b, seed, bit=63):
    side = dense_sides(m1, g.n, seed, bit)
    _, m1_hat = dense_second_pass_general(list(g.edges()), m1, side, b,
                                          g.n)
    kappa = min(len(m1_hat), len(m1))
    return len(m1) + kappa / b, kappa


def _random_edges(rng, n, count, allowed=None):
    seen = set()
    out = []
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v or e in seen or (allowed and not allowed(*e)):
            continue
        seen.add(e)
        out.append((u, v))
    return out


def _identity_cases():
    """(n, edges, M1) over four shapes: a greedy M1 on a random prefix of
    the stream, an empty M1, a perfect (or, for odd n, near-perfect) M1, and
    an M1 that leaves no edge between matched and free vertices."""
    rng = random.Random(20)
    for n in (1, 5, 60, 2000):
        for trial in range(60):
            shape = trial % 4
            if n == 1:
                yield n, [], Matching()
                continue
            edges = _random_edges(rng, n, rng.randrange(3 * n))
            if shape == 0:
                m1 = first_pass_matching(edges[:rng.randrange(len(edges) + 1)])
            elif shape == 1:
                m1 = Matching()
            elif shape == 2:
                perm = list(range(n))
                rng.shuffle(perm)
                m1 = Matching(zip(perm[0:n - 1:2], perm[1::2]))
            else:
                inside = set(rng.sample(range(n), 2 * rng.randrange(n // 2)))
                order = sorted(inside)
                rng.shuffle(order)
                m1 = Matching(zip(order[0::2], order[1::2]))
                edges = _random_edges(
                    rng, n, 3 * n,
                    lambda u, v: (u in inside) == (v in inside))
            present = {(min(e), max(e)) for e in edges}
            edges += [e for e in m1.edges() if e not in present]
            yield n, edges, m1


def test_sparse_passes_bit_identical_to_dense_reference():
    rng = random.Random(21)
    cases = 0
    for n, edges, m1 in _identity_cases():
        first = rng.randrange(2**63)
        more = random.Random(first)
        g = build(n, [(min(e), max(e)) for e in edges])
        boundary = Boundary(edges, m1)
        for seed in (first, more.randrange(2**63), more.randrange(2**63)):
            side = dense_sides(m1, n, seed)
            part = random_bipartition(m1, n, seed)
            assert {v: part.side_of(v) for v in range(n)} == side
            coins = [coin(seed, v) for v in boundary.free]
            for b in (1, B_GENERAL):
                mate, kappa = second_pass_general(boundary, coins, b)
                ref_m2, ref_hat = dense_second_pass_general(edges, m1, side,
                                                            b, n)
                # cap 1 on the matched side: one copy per M2 edge, and the
                # mate map is all of M2, in the order the copies were taken
                assert list(ref_m2.mult.items()) == [
                    (norm_edge(*e), 1) for e in mate.items()]
                assert kappa == len(ref_hat)
                assert estimator.general_query(g, m1, b, [seed], 1)[0] == [
                    (len(m1) + kappa / b, kappa)]
            assert (estimator.general_query(g, m1, B_GENERAL, [seed], 1)[0]
                    == [dense_general_query(g, m1, B_GENERAL, seed)])
        cases += 1
    assert cases >= 200


@pytest.mark.parametrize("b", [0, -1])
def test_general_pass_rejects_nonpositive_b_on_a_boundary(b):
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    m1 = Matching([(1, 2)])
    boundary = Boundary(list(g.edges()), m1)
    # each entry names its free endpoint by its index in `free`
    assert boundary.edges == [(1, 0, 0), (2, 1, 1)]
    assert boundary.free == [0, 3]
    # an edgeless graph has an empty boundary, and b is still checked
    empty = build(4, [])
    for seed in range(4):
        with pytest.raises(ValueError):
            estimator.general_query(g, m1, b, [seed], 1)
        with pytest.raises(ValueError):
            second_pass_general(boundary,
                                [coin(seed, v) for v in boundary.free], b)
        with pytest.raises(ValueError):
            estimator.general_query(empty, Matching(), b, [seed], 1)
        with pytest.raises(ValueError):
            general_two_pass([], 4, b=b, seed=seed)


class _Flipping:
    """Coins read as given for the first `reads` reads and flipped after:
    coins whose values change between a pass and its re-check."""

    def __init__(self, coins, reads):
        self.coins, self.reads = coins, reads

    def __getitem__(self, i):
        self.reads -= 1
        return self.coins[i] ^ (self.reads < 0)


def test_general_pass_rechecks_maximality():
    """The re-check reads the coins again: the one boundary edge 1-2, whose
    matched end 1 is "r", does not cross while free 2 reads "r" in the
    pass, and crosses with 2 unmatched in the re-check."""
    boundary = Boundary([(0, 1), (1, 2)], Matching([(0, 1)]))
    assert boundary.edges == [(1, 0, 1)] and boundary.free == [2]
    assert second_pass_general(boundary, [1], 1) == ({}, 0)
    assert second_pass_general(boundary, [0], 1) == ({1: 2}, 0)
    with pytest.raises(NotMaximal, match=r"at \(1,2\)"):
        second_pass_general(boundary, _Flipping([1], reads=1), 1)


def test_lazy_coins_match_dense_reference_in_any_access_order():
    rng = random.Random(22)
    n = 2000
    for trial in range(20):
        edges = _random_edges(rng, n, 800)
        m1 = first_pass_matching(edges)
        seed = rng.randrange(2**63)
        side = dense_sides(m1, n, seed)
        free = [v for v in range(n) if not m1.is_matched(v)]
        # ascending free ids
        part = random_bipartition(m1, n, seed)
        for v in free[:50]:
            assert part.side_of(v) == side[v]
        # a high id first, then lower and higher ones
        part = random_bipartition(m1, n, seed)
        assert part.side_of(free[len(free) // 2]) == side[free[len(free) // 2]]
        order = list(range(n))
        rng.shuffle(order)
        for v in order:
            assert part.side_of(v) == side[v]


MASK64 = (1 << 64) - 1


def splitmix64(state):
    """Reference: SplitMix64 as a sequential generator, each output after
    one step of its state."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def test_coin_is_the_top_bit_of_sequential_splitmix64():
    """`coin_word` is SplitMix64's (v+1)-th output, and `coin` its top
    bit."""
    for seed in (0, -1, 2**64 + 5, estimator._mix(7, 3, 12345)):
        outputs = splitmix64(seed & MASK64)
        for v in range(1000):
            word = coin_word(seed, v)
            assert word == next(outputs) and coin(seed, v) == word >> 63


def _within_3_sigma(hits, trials):
    return abs(hits - trials / 2) <= 3 * math.sqrt(trials) / 2


def test_coins_are_balanced_and_adjacent_ones_independent():
    trials = 20_000
    seed = estimator._mix(1, 0, 0)
    by_id = [coin(seed, v) for v in range(trials + 1)]
    assert _within_3_sigma(sum(by_id[:trials]), trials)
    assert _within_3_sigma(
        sum(a == b for a, b in zip(by_id, by_id[1:])), trials)
    # one id over the seeds of consecutive stamps, which differ by 1
    by_stamp = [coin(estimator._mix(1, 0, t), 5) for t in range(trials + 1)]
    assert _within_3_sigma(sum(by_stamp[:trials]), trials)
    assert _within_3_sigma(
        sum(a == b for a, b in zip(by_stamp, by_stamp[1:])), trials)


def test_bits_of_one_word_are_balanced_and_adjacent_ones_independent():
    """Each repetition of an estimate reads its own bit of one word, so
    the bits of a word must behave as independent fair coins: over 20,000
    ids, repetition 0's and 63's bits are balanced, so are all 64 bits
    together, and adjacent bits agree about half the time, for
    repetitions 0 and 1 and over all 63 adjacent pairs."""
    trials = 20_000
    words = [coin_word(estimator._mix(1, 0, 0), v) for v in range(trials)]
    for bit in (63, 0):
        assert _within_3_sigma(sum(w >> bit & 1 for w in words), trials)
    assert _within_3_sigma(sum(bin(w).count("1") for w in words),
                           64 * trials)
    assert _within_3_sigma(sum((w >> 63) == (w >> 62 & 1) for w in words),
                           trials)
    # bit i of w ^ (w >> 1) is 1 iff bits i and i + 1 of w differ
    assert _within_3_sigma(
        sum(bin((w ^ (w >> 1)) & ((1 << 63) - 1)).count("1")
            for w in words), 63 * trials)


def test_a_draw_computes_one_coin_per_free_boundary_vertex(monkeypatch):
    """A query computes one word per free boundary vertex per block of 64
    repetitions, and none for an id that is not a free boundary vertex,
    so its cost has no term in n or in the highest free id. A draw reads
    the coins it is given and hashes nothing."""
    calls, hashed = [], []

    def counted(seed, v):
        calls.append(v)
        return coin_word(seed, v)

    monkeypatch.setattr(estimator, "coin_word", counted)
    monkeypatch.setattr(streaming, "coin_word",
                        lambda seed, v: hashed.append(v))
    n = 2**20
    top = n - 1
    m1 = Matching([(0, 1), (2, 3)])
    # four boundary edges, all to `top`, and one edge between free ids
    edges = [(0, 1), (2, 3), (1, top), (0, top), (top, 2), (3, top),
             (10, 11)]
    boundary = Boundary(edges, m1)
    assert boundary.free == [top] and len(boundary.edges) == 4
    for coins in ([0], [1]):
        second_pass_general(boundary, coins, B_GENERAL)
    g = build(n, edges)
    for reps, blocks in ((1, 1), (25, 1), (64, 1), (65, 2), (129, 3)):
        del calls[:]
        draws, _ = estimator.general_query(g, m1, B_GENERAL,
                                           list(range(blocks)), reps)
        assert calls == boundary.free * blocks and len(draws) == reps
    assert hashed == []


def test_a_query_needs_one_seed_per_block_of_64_repetitions():
    g = build(4, PATH4)
    m1 = Matching([(1, 2)])
    for seeds, reps in (([], 1), ([1], 0), ([1], 65), ([1, 2], 64),
                        ([1, 2], 129)):
        with pytest.raises(ValueError, match="repetitions"):
            estimator.general_query(g, m1, B_GENERAL, seeds, reps)


def _bit(seed, v, r):
    return coin_word(seed, v) >> (63 - r % 64) & 1


def test_repetitions_with_equal_coins_share_one_draw(monkeypatch):
    """A draw reads nothing of the seed but the coins of the free boundary
    vertices: with two free vertices, a query of 25 repetitions computes
    one draw per distinct pair of their coins, each repetition still gets
    its own pair's value, and `reads` charges the draws that ran."""
    # M1 edge (0, 1), with free 5 at 0 and free 2 at 1: both cross, and
    # kappa is 1, iff 5 is "r" and 2 is "l"
    m1 = Matching([(0, 1)])
    edges = [(0, 1), (0, 5), (1, 2)]
    g = build(6, edges)
    boundary = Boundary(edges, m1)
    assert boundary.free == [5, 2]
    assert second_pass_general(boundary, (1, 0), 1) == ({0: 5, 1: 2}, 1)
    assert second_pass_general(boundary, (0, 1), 1) == ({}, 0)
    drawn = []

    def counted(bd, coins, b):
        drawn.append(coins)
        return second_pass_general(bd, coins, b)

    monkeypatch.setattr(estimator, "second_pass_general", counted)
    seed = estimator._mix(7, 0, 40)
    pairs = [(_bit(seed, 5, r), _bit(seed, 2, r)) for r in range(25)]
    assert (1, 0) in pairs and len(set(pairs)) < 25
    out, reads = estimator.general_query(g, m1, B_GENERAL, [seed], 25)
    assert sorted(drawn) == sorted(set(pairs)) and drawn[0] == pairs[0]
    assert out == [(1 + (p == (1, 0)) / B_GENERAL, int(p == (1, 0)))
                   for p in pairs]
    assert reads == 3 + 25 * 2 + len(drawn) * 2


def test_repetition_r_reads_bit_63_minus_r_mod_64_of_block_r_div_64():
    """Repetition r of a query takes its coins from bit 63 - r % 64 of
    the words of block r // 64, so 65 repetitions read a second block. The
    query on an estimate's M1 takes block q's seed `_mix(seed, q, stamp)`,
    in general mode (b = 9, the pass it no longer serves) and in tradeoff
    mode (b = 16, the pass it serves); its repetitions are a prefix of
    those of any larger `reps`, and `reps = 1` gives the value of
    repetition 0, whose coins are `coin`'s."""
    m1 = Matching([(0, 1)])
    g = build(6, [(0, 1), (0, 5), (1, 2)])
    seeds = [estimator._mix(3, q, 17) for q in range(2)]
    out, _ = estimator.general_query(g, m1, B_GENERAL, seeds, 65)
    kappas = [int(_bit(seeds[r // 64], 5, r) == 1
                  and _bit(seeds[r // 64], 2, r) == 0) for r in range(65)]
    assert [kappa for _, kappa in out] == kappas
    assert _bit(seeds[1], 5, 64) == coin(seeds[1], 5)
    rng = random.Random(26)
    n = 40
    events = [(rng.randrange(n), rng.randrange(n)) for _ in range(120)]
    for mode in ("general", "tradeoff"):
        ests = {reps: estimator.Estimator(n, estimator.EstimatorConfig(
            mode=mode, eps=0.25, seed=5, reps=reps)) for reps in (1, 25, 65)}
        for step, (u, v) in enumerate(events):
            for est in ests.values():
                if u != v and not est.g.edge_exists(u, v):
                    est.insert(u, v)
            if step % 30 == 29:
                values = {reps: _estimate_matches_dense_reference(est)[1]
                          for reps, est in ests.items()}
                assert values[65][:25] == values[25]
                assert values[25][:1] == values[1]


def _estimate_matches_dense_reference(est):
    """Compare the query on an estimate's M1, at the estimate's seeds,
    with the dense per-draw reference on the same per-repetition coins,
    and the estimate with that query: a tradeoff estimate serves it, and a
    general estimate serves |M1|, which every repetition equals, since the
    maintained M1 has no 3-augmenting path. Return that M1's boundary and
    the query's repetition values."""
    cfg, g = est.cfg, est.g
    b = B_GENERAL if cfg.mode == "general" else estimator.B_STAR
    m1 = est._live_matching()
    seeds = [estimator._mix(cfg.seed, q, g.ops)
             for q in range(-(-cfg.reps // 64))]
    draws, _ = estimator.general_query(g, m1, b, seeds, cfg.reps)
    # repetition r reads bit 63 - r % 64 of the words of block r // 64
    ref = [dense_general_query(g, m1, b, seeds[r // 64], 63 - r % 64)
           for r in range(cfg.reps)]
    assert draws == ref
    values = [nu for nu, _ in ref]
    se = est.estimate()
    assert se.rep_values == values
    assert se.nu == statistics.fmean(values)
    if cfg.mode == "general":
        assert values == [float(len(m1))] * cfg.reps
        assert se.components == {"m1": len(m1), "bound": "m1"}
    else:
        assert se.components == {"m1": len(m1), "kappa": ref[-1][1]}
    return Boundary(list(g.edges()), m1), values


@pytest.mark.parametrize("mode", ["general", "tradeoff"])
def test_shared_query_estimate_matches_dense_reference(mode):
    def fresh(n, edges=()):
        est = estimator.Estimator(n, estimator.EstimatorConfig(
            mode=mode, eps=0.25, seed=5, reps=25))
        for e in edges:
            est.insert(*e)
        return est

    # edgeless graph, empty M1: no coin is computed
    bd, _ = _estimate_matches_dense_reference(fresh(7))
    assert bd.free == [] and bd.partner == {}
    # edges, but M1 is perfect, so the boundary is empty
    bd, _ = _estimate_matches_dense_reference(
        fresh(4, [(0, 1), (2, 3), (1, 2)]))
    assert bd.edges == [] and len(bd.partner) == 4
    # the only boundary edge reads one coin, that of free id 9
    est = fresh(10, [(0, 1), (1, 9)])
    bd, _ = _estimate_matches_dense_reference(est)
    assert bd.edges == [(1, 0, 1)] and bd.free == [9]
    # an update that changes only the boundary of M1 = {01}: a query on
    # that M1 follows the new boundary
    b = B_GENERAL if mode == "general" else estimator.B_STAR
    m1 = Matching([(0, 1)])

    def query():
        seeds = [estimator._mix(5, 0, est.g.ops)]
        return estimator.general_query(est.g, m1, b, seeds, 25)[0]

    before = query()
    est.insert(0, 8)
    assert query() != before
    # the maintained M1 instead augments 8-0=1-9, which leaves no boundary
    bd, _ = _estimate_matches_dense_reference(est)
    assert bd.partner == {0: 8, 8: 0, 1: 9, 9: 1} and bd.edges == []
    est.delete(1, 9)
    bd, _ = _estimate_matches_dense_reference(est)
    assert bd.partner == {0: 8, 8: 0} and len(bd.edges) == 1
    # random ER streams with churn
    rng = random.Random(24)
    for n in (12, 60, 300):
        est = fresh(n)
        live = set()
        for step in range(4 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in live:
                live.discard(e)
                est.delete(*e)
            else:
                live.add(e)
                est.insert(*e)
            if step % n == n - 1:
                _estimate_matches_dense_reference(est)
