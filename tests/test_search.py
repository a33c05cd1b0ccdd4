import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.families import (
    DomainError,
    Family,
    GroundSet,
    distinct_intersections,
    elements_of,
    is_cross_intersecting,
    is_cross_sperner,
    nth_bit,
    wedge,
)
from crossfam import search
from crossfam.acceptance import SEED
from crossfam.constructions import four_star_pair, triangle_family
from crossfam.formulas import eval_formula
from crossfam.search import (
    SearchProblem,
    _antichains,
    _closed_sets,
    _maximal_cliques,
    _subset_context,
    all_saturated_pairs,
    are_isomorphic,
    brute_count,
    canonical_family_key,
    maximal_t_intersecting_families,
    maximize,
    randomized_check,
    realized_corank1_layer,
    remap_mask,
    sample_saturated_pair_bits,
    sample_saturated_t_family,
    _trial_rng,
)
from crossfam.transversals import layer_context

import oracle_utils as oracle


def fam(sets, n, k=None):
    return Family.from_sets(sets, GroundSet(n), k)


def test_brute_count_kinds():
    s1 = fam([(1, 2), (1, 3), (1, 4)], 4, k=2)
    assert brute_count("wedge", s1, s1) == 4
    assert brute_count("I_self", fam([(1, 2)], 4)) == 0
    a1, a2 = four_star_pair(7, 3)
    assert brute_count("I_pair", a1, a2) == 24
    with pytest.raises(DomainError):
        brute_count("I_pair", s1)
    with pytest.raises(DomainError):
        brute_count("wedge", s1, fam([(1, 2)], 5))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.lists(st.integers(0, 127), max_size=8),
       st.lists(st.integers(0, 127), max_size=8))
def test_brute_count_agrees_with_family_ops(n, ms1, ms2):
    mask = (1 << n) - 1
    f = Family.from_masks((m & mask for m in ms1), GroundSet(n))
    g = Family.from_masks((m & mask for m in ms2), GroundSet(n))
    assert brute_count("wedge", f, g) == len(wedge(f, g))
    assert brute_count("I_pair", f, g) == len(distinct_intersections(f, g))


def test_max_I_cross_small():
    for n in (4, 5, 6):
        res = maximize(SearchProblem("max_I_cross", n=n, k=2))
        assert res.exhaustive
        assert res.value == eval_formula("I_A1A2_15", n=n, k=2) == 4
        f, g = res.witness
        assert is_cross_intersecting(f, g)
        assert brute_count("I_pair", f, g) == res.value
    # the degenerate four-star pair attains the maximum as well
    a1, a2 = four_star_pair(5, 2)
    assert brute_count("I_pair", a1, a2) == 4
    # k = 0: the empty set meets nothing, so no pair is scored
    for objective in ("max_I_cross", "max_wedge_cross"):
        res = maximize(SearchProblem(objective, n=3, k=0))
        assert (res.value, res.nodes_explored, res.exhaustive) == (0, 1, True)
        assert [w.members for w in res.witness] == [(), ()]


def test_max_I_cross_rejects_large_layer():
    # a budget caps nodes, not the layer size
    with pytest.raises(DomainError, match=r"^C\(10,3\) = 120 exceeds the layer cap "
                       r"C\(n,k\) <= 24 of max_I_cross$"):
        maximize(SearchProblem("max_I_cross", n=10, k=3, budget=1000))


def test_max_wedge_cross_small():
    # far below the star-optimality threshold the triangle wins: its wedge
    # keeps all three edges plus the three singletons
    res = maximize(SearchProblem("max_wedge_cross", n=4, k=2))
    assert res.exhaustive
    assert res.value == 6
    assert are_isomorphic(res.witness[0], triangle_family(4, 2))
    assert res.value > eval_formula("wedge_star_13", n=4, k=2)
    f, g = res.witness
    assert brute_count("wedge", f, g) == res.value


def test_max_I_t_intersecting():
    res = maximize(SearchProblem("max_I_t_intersecting", n=6, k=2, t=1))
    assert res.exhaustive and res.value == 3
    assert are_isomorphic(res.witness, triangle_family(6, 2))


@pytest.mark.parametrize("n,k,t", [(5, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2), (7, 3, 1),
                                   (7, 4, 2)])
def test_t_intersecting_search_matches_clique_scan(n, k, t):
    # every maximal family scored with the oracle; smallest member tuple wins ties
    fams, nodes = maximal_t_intersecting_families(n, k, t)
    best = min(fams, key=lambda f: (-brute_count("I_self", f), f.members))
    res = maximize(SearchProblem("max_I_t_intersecting", n=n, k=k, t=t))
    assert (res.value, res.witness, res.nodes_explored) == (
        brute_count("I_self", best), best, nodes)


@pytest.mark.parametrize("n,k,t", [(6, 2, 1), (8, 3, 1), (8, 3, 2), (10, 4, 2), (9, 3, 3),
                                   (10, 3, 1)])
def test_t_family_sampler_matches_pool_sampler(n, k, t):
    # equal families and an equal next draw: the rng saw the same calls
    for i in range(60):
        new, old = random.Random(f"tsample:{i}"), random.Random(f"tsample:{i}")
        got = sample_saturated_t_family(n, k, t, new)
        want = oracle.saturate_t_sweep(oracle.sample_t_draws(n, k, t, old), n, k, t)
        assert list(got.members) == want
        assert new.random() == old.random()


@pytest.mark.parametrize("n,k", [(8, 2), (10, 3)])
def test_pair_sampler_matches_pool_sampler(n, k):
    # equal pairs and an equal next draw: the rng saw the same calls
    ctx = layer_context(n, k)
    for i in range(60):
        new, old = random.Random(f"psample:{i}"), random.Random(f"psample:{i}")
        got = sample_saturated_pair_bits(ctx, new)
        want = oracle.saturate_loop(*oracle.sample_pair_draws(n, k, old), n, k)
        assert got == tuple(ctx.bits_of(side) for side in want)
        assert new.random() == old.random()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1 << 300))
def test_nth_bit_matches_indices(bits):
    assert [nth_bit(bits, j) for j in range(bits.bit_count())] == [
        e - 1 for e in elements_of(bits)]


def test_maximal_clique_counts():
    fams, _ = maximal_t_intersecting_families(6, 2, 1)
    # stars and triangles only
    assert len(fams) == 6 + 20
    sizes = sorted({len(f) for f in fams})
    assert sizes == [3, 5]


def test_clique_layer_over_the_table_cap_is_refused():
    # C(30, 5)^2 bits: refused before the layer is listed
    with pytest.raises(DomainError, match=f"table of {comb(30, 5) ** 2} bits"):
        maximal_t_intersecting_families(30, 5, 1)


def test_maximal_cliques_of_large_k_layers():
    # 24-sets of [26] share >= 23 elements iff their complement pairs meet:
    # 26 stars of 25 complements and C(26, 3) triangles
    fams, _ = maximal_t_intersecting_families(26, 24, 23)
    assert sorted(len(f) for f in fams) == [3] * comb(26, 3) + [25] * 26
    # any two 18-sets of [20] share >= 16 elements: the layer is one clique
    fams, _ = maximal_t_intersecting_families(20, 18, 16)
    assert [len(f) for f in fams] == [comb(20, 2)]


@pytest.mark.parametrize("n,k,t", [(6, 2, 1), (7, 3, 1), (8, 3, 1), (8, 3, 2), (7, 4, 2)])
def test_maximal_cliques_match_recursive_oracle(n, k, t):
    # the explicit stack visits the nodes of the recursion, in its order;
    # the oracle's vertex bitsets become the ascending mask tuples emitted
    ctx = layer_context(n, k)
    cliques, calls, _ = oracle.recursive_cliques(n, k, t)
    assert _maximal_cliques(ctx, t, None) == ([ctx.masks_of(rb) for rb in cliques], calls, True)


def test_maximal_cliques_budget_cuts_the_unbudgeted_walk():
    # the pivot's early stop and the dead-end skip leave every node a node:
    # b nodes give the cliques the recursion finds in its first b calls
    ctx = layer_context(7, 3)
    full, total, complete = _maximal_cliques(ctx, 1, None)
    _, calls, found_at = oracle.recursive_cliques(7, 3, 1)
    assert complete and total == calls > 2
    for b in (1, total // 2, total - 1):
        want = full[:sum(at <= b for at in found_at)]
        assert _maximal_cliques(ctx, 1, b) == (want, b, False)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_antichain_walk_matches_recursion(n):
    assert list(_antichains(n)) == oracle.recursive_antichains(n)


def test_max_I_antichain():
    res4 = maximize(SearchProblem("max_I_antichain", n=4))
    assert res4.exhaustive and res4.nodes_explored == 168
    assert res4.value == 6
    res5 = maximize(SearchProblem("max_I_antichain", n=5))
    assert res5.exhaustive and res5.nodes_explored == 7581
    assert res5.value == 15
    with pytest.raises(DomainError):
        maximize(SearchProblem("max_I_antichain", n=6))
    # a budget of 100 takes the first 100 antichains
    res = maximize(SearchProblem("max_I_antichain", n=5, budget=100))
    assert (res.nodes_explored, res.exhaustive) == (100, False)
    first = oracle.recursive_antichains(5)[:100]
    assert res.value == max(len(oracle.distinct_sets(a, a)) for a in first)


def test_max_I_cross_sperner_values():
    for n, want in ((2, 1), (3, 3), (4, 9)):
        res = maximize(SearchProblem("max_I_cross_sperner", n=n))
        assert res.exhaustive
        assert res.value == want
        a, b = res.witness
        assert is_cross_sperner(a, b)
        assert brute_count("I_pair", a, b) == want
    assert maximize(SearchProblem("max_I_cross_sperner", n=2)).value == \
        eval_formula("m_even_55", n=2)
    assert maximize(SearchProblem("max_I_cross_sperner", n=4)).value == \
        eval_formula("m_even_55", n=4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_sperner_search_matches_scan_oracle(n):
    # the oracle scores every nonempty family A; the search only the closed ones
    res = maximize(SearchProblem("max_I_cross_sperner", n=n))
    a, b = res.witness
    assert (res.value, (a.members, b.members)) == oracle.cross_sperner_scan_oracle(n)
    assert (res.nodes_explored, res.exhaustive) == ((1, 3, 19, 199)[n - 1], True)


def _incomparable_to_all(xs, n):
    return [u for u in range(1 << n) if all(s & u not in (s, u) for s in xs)]


@pytest.mark.parametrize("n", range(1, 8))
def test_subset_context_matches_pairwise_definition(n):
    ctx = _subset_context(n)
    assert ctx.masks == tuple(range(1 << n))
    assert ctx.adj == tuple(sum(1 << u for u in _incomparable_to_all([s], n))
                            for s in range(1 << n))


# one k-layer with a "meets" table, one above _ADJ_CAP without, and 2^[4]
@pytest.mark.parametrize("context, has_table", [
    (lambda: layer_context(8, 3), True),
    (lambda: layer_context(14, 5), False),
    (lambda: _subset_context(4), True),
], ids=["layer_8_3", "layer_14_5", "subsets_4"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_masks_of_inverts_bits_of(context, has_table, data):
    ctx = context()
    assert (ctx.adj is not None) == has_table
    ms = data.draw(st.sets(st.sampled_from(ctx.masks), max_size=40))
    bits = ctx.bits_of(ms)
    assert ctx.masks_of(bits) == tuple(sorted(ms))
    assert ctx.family_of(bits).members == ctx.masks_of(bits)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 20), (4, 200)])
def test_incomparability_closed_sets(n, count):
    closed = list(_closed_sets(_subset_context(n)))
    assert len(closed) == count
    if n <= 3:
        def t_map(bits):
            members = [s for s in range(1 << n) if bits >> s & 1]
            return sum(1 << u for u in _incomparable_to_all(members, n))
        assert closed == [x for x in range(1 << (1 << n)) if t_map(t_map(x)) == x]


def test_cross_sperner_budgeted_n5():
    res = maximize(SearchProblem("max_I_cross_sperner", n=5, budget=3000, seed=5))
    assert not res.exhaustive
    a, b = res.witness
    assert is_cross_sperner(a, b)
    # the even-n style construction gives 2^5 - 2^2 - 2^3 + 1 = 21; a short
    # random run should find something positive but need not reach it
    assert res.value >= 1


def test_search_determinism():
    p = SearchProblem("max_I_cross_sperner", n=5, budget=500, seed=123)
    r1, r2 = maximize(p), maximize(p)
    assert r1.value == r2.value
    assert r1.witness == r2.witness
    assert r1.nodes_explored == r2.nodes_explored


@pytest.mark.parametrize("problem", [
    SearchProblem("max_wedge_cross", n=5, k=2),
    SearchProblem("max_I_cross", n=6, k=2),
    SearchProblem("max_I_t_intersecting", n=6, k=3, t=1),
    SearchProblem("max_I_antichain", n=4),
    SearchProblem("max_I_cross_sperner", n=4),
], ids=lambda p: p.objective)
def test_one_budget_rule(problem):
    # at most `budget` nodes are taken; a run is exhaustive exactly when none was left
    full = maximize(problem)
    total = full.nodes_explored
    assert full.exhaustive and total > 2
    for budget in (1, total // 2, total - 1):
        res = maximize(replace(problem, budget=budget))
        assert (res.nodes_explored, res.exhaustive) == (budget, False)
        assert res.value <= full.value
    for budget in (total, total + 1):
        res = maximize(replace(problem, budget=budget))
        assert (res.value, res.witness, res.nodes_explored, res.exhaustive) == (
            full.value, full.witness, total, True)


def test_cross_sperner_sampler_is_never_exhaustive():
    # the draws never end: any budget, the default 10^5 included, is used up;
    # a run scores the first `budget` draws of one seeded stream
    p = SearchProblem("max_I_cross_sperner", n=5, seed=3)
    runs = [maximize(replace(p, budget=b)) for b in (1, 300, 2000)] + [maximize(p)]
    assert [(r.nodes_explored, r.exhaustive) for r in runs] == [
        (1, False), (300, False), (2000, False), (10 ** 5, False)]
    assert runs[0].value <= runs[1].value <= runs[2].value <= runs[3].value


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 16) for k in range(1, n + 1)
                                 if comb(n, k) <= 15])
def test_cross_search_matches_scan_oracle(n, k):
    # covers n < 2k, n = 2k and n > 2k; the oracle scans all 2^C(n,k) families
    for objective, distinct in (("max_I_cross", True), ("max_wedge_cross", False)):
        res = maximize(SearchProblem(objective, n=n, k=k))
        f, g = res.witness
        assert (res.value, (f.members, g.members)) == oracle.cross_scan_oracle(n, k, distinct)


def test_exhaustive_value_is_permutation_invariant():
    # relabeling the winning pair leaves the objective unchanged
    res = maximize(SearchProblem("max_I_cross", n=5, k=2))
    f, g = res.witness
    perm = (0, 3, 1, 4, 2, 5)  # image of 1..5
    fp = Family.from_masks((remap_mask(m, perm) for m in f.members), f.ground, 2)
    gp = Family.from_masks((remap_mask(m, perm) for m in g.members), g.ground, 2)
    assert brute_count("I_pair", fp, gp) == res.value


def test_canonical_key_basics():
    tri1 = fam([(1, 2), (1, 3), (2, 3)], 5)
    tri2 = fam([(2, 4), (2, 5), (4, 5)], 5)
    assert canonical_family_key(tri1.members, 5) == canonical_family_key(
        tri2.members, 5)
    assert are_isomorphic(tri1, tri2)
    assert not are_isomorphic(tri1, fam([(1, 2), (1, 3), (1, 4)], 5))
    # no silent fallback to the unlabelled key beyond n = 8
    with pytest.raises(DomainError):
        canonical_family_key(fam([(1, 2)], 9).members, 9)
    with pytest.raises(DomainError):
        are_isomorphic(fam([(1, 2)], 9), fam([(8, 9)], 9))


def test_witness_monotone_partner():
    # for fixed F, the computed partner dominates every cross partner
    rng = random.Random(99)
    ctx = layer_context(6, 2)
    for _ in range(20):
        fb, gb = sample_saturated_pair_bits_for_test(ctx, rng)
        f, g = ctx.family_of(fb), ctx.family_of(gb)
        gstar = ctx.family_of(ctx.meet_all(fb))
        assert set(g.members) <= set(gstar.members)
        assert len(distinct_intersections(f, g)) <= len(
            distinct_intersections(f, gstar))


def sample_saturated_pair_bits_for_test(ctx, rng):
    from crossfam.search import sample_saturated_pair_bits

    return sample_saturated_pair_bits(ctx, rng)


def test_randomized_checks_pass():
    assert randomized_check("prop21_nu_le4", {"n": 8, "k": 2}, 300, 1).passed
    assert randomized_check("prop21_nu_le4", {"n": 10, "k": 3}, 300, 1).passed
    assert randomized_check("pyber", {"n": 8, "k": 2}, 200, 2).passed
    assert randomized_check("emc", {"n": 10, "k": 3}, 100, 3).passed
    hm = randomized_check("hm", {"n": 10, "k": 3}, 50, 4)
    assert hm.passed and hm.trials == 50
    p53 = randomized_check("prop53_antichain", {"n": 4}, 1, 5)
    assert p53.passed and p53.exhaustive and p53.trials == 168
    p53b = randomized_check("prop53_antichain", {"n": 6}, 100, 6)
    assert p53b.passed and not p53b.exhaustive


def test_prop21_lists_every_pair_at_k2_and_checks_each_draw_once(monkeypatch):
    # at k = 2, n <= 10 every saturated pair is checked, whatever `trials` says
    for n in (6, 8):
        rep = randomized_check("prop21_nu_le4", {"n": n, "k": 2}, 1, 7)
        assert rep.passed and rep.exhaustive
        assert rep.trials == len(all_saturated_pairs(n, 2)[1])
    # beyond that the pairs are drawn, and a pair drawn twice is checked once
    checked = []
    realized = search.realized_corank1_layer
    monkeypatch.setattr(search, "realized_corank1_layer",
                        lambda ctx, fb, gb: checked.append((fb, gb)) or realized(ctx, fb, gb))
    rep = randomized_check("prop21_nu_le4", {"n": 7, "k": 3}, 300, 7)
    assert rep.passed and not rep.exhaustive and rep.trials == 300
    ctx = layer_context(7, 3)
    draws = [sample_saturated_pair_bits(ctx, _trial_rng(7, i)) for i in range(300)]
    assert sorted(checked) == sorted(set(draws)) and len(checked) < 300


def test_gate_samples_at_3_10_never_grow_the_g_side():
    # c05's draws: |G| <= 3 = k <= n - k = 7, so each pair is (T(G), G)
    ctx = layer_context(10, 3)
    for i in range(300):
        fb, gb = sample_saturated_pair_bits(ctx, _trial_rng(SEED, i))
        assert gb.bit_count() <= 3
        assert fb == ctx.meet_all(gb) and ctx.meet_all(fb) == gb


def test_randomized_check_determinism():
    a = randomized_check("prop21_nu_le4", {"n": 8, "k": 2}, 100, 42)
    b = randomized_check("prop21_nu_le4", {"n": 8, "k": 2}, 100, 42)
    assert a == b


def test_all_saturated_pairs_small():
    ctx, pairs = all_saturated_pairs(5, 2)
    # pairs come back as fixed points of the closure in both coordinates
    for fb, gb in pairs:
        assert ctx.meet_all(gb) == fb
        assert ctx.meet_all(fb) == gb
    star_bits = ctx.bits_of(fam([(1, 2), (1, 3), (1, 4), (1, 5)], 5).members)
    assert (star_bits, star_bits) in pairs


def test_search_result_json():
    res = maximize(SearchProblem("max_I_t_intersecting", n=6, k=2, t=1))
    data = res.to_json_dict()
    assert data["value"] == "3"
    assert data["exhaustive"] is True
    assert data["witness"] == [[1, 2], [1, 3], [2, 3]]


@pytest.mark.parametrize("k,n", [(2, 8), (3, 10), (4, 9)])
def test_realized_corank1_layer_matches_definition(k, n):
    ctx = layer_context(n, k)
    for i in range(60):
        rng = random.Random(f"corank1:{n}:{k}:{i}")
        fb, gb = sample_saturated_pair_bits(ctx, rng)
        f = [m for j, m in enumerate(ctx.masks) if fb >> j & 1]
        g = [m for j, m in enumerate(ctx.masks) if gb >> j & 1]
        want = {a & b for a in f for b in g
                if a != b and (a & b).bit_count() == k - 1}
        got = realized_corank1_layer(ctx, fb, gb)
        assert len(got) == len(want)
        assert set(got) == want
