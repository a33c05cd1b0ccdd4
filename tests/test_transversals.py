import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam import transversals
from crossfam.families import (
    DomainError,
    Family,
    GroundSet,
    VerificationError,
    distinct_intersections,
    full_layer,
    is_antichain,
    is_cross_intersecting,
    is_t_intersecting,
)
from crossfam.constructions import four_core_pair, four_star_pair, star, triangle_family, window_family
from crossfam.transversals import (
    basis_pair,
    basis_t,
    covering_number,
    has_matching_of_size,
    matching_number,
    layer_context,
    max_edges_without_matching,
    minimal_sets,
    partition_by_basis,
    saturate_pair,
    saturate_t,
    sets_above,
    transversal_family,
    upward_closure,
    _ADJ_CAP,
)

import oracle_utils as oracle


def fam(sets, n, k=None):
    return Family.from_sets(sets, GroundSet(n), k)


def test_transversal_family_star_example():
    s1 = star(5, 2, [1])
    got = transversal_family(s1, 1, 2)
    want = oracle.transversals_upto(oracle.star_sets(5, 2, [1]), 1, 2, 5)
    assert {frozenset(s) for s in got.sets()} == set(want)
    assert got.sets() == ((1,), (1, 2), (1, 3), (1, 4), (1, 5))


def test_transversal_family_basics():
    f = fam([(1, 2)], 4)
    assert transversal_family(f, 1, 1).sets() == ((1,), (2,))
    with pytest.raises(DomainError):
        transversal_family(Family.empty(GroundSet(4)), 1, 2)
    # a t-intersecting family sits inside its own t-transversal family
    a3 = triangle_family(6, 2)
    assert set(a3.members) <= set(transversal_family(a3, 1, 2).members)
    w = window_family(9, 4, 2)
    assert set(w.members) <= set(transversal_family(w, 2, 4).members)


def test_covering_number_examples():
    assert covering_number(star(6, 2, [1])) == 1
    a3 = triangle_family(6, 3)
    assert covering_number(a3) == 2
    assert covering_number(a3) == oracle.min_cover_size(
        [frozenset(s) for s in a3.sets()])
    a = window_family(10, 4, 2)
    assert covering_number(a, 2) == 3
    with pytest.raises(DomainError):
        covering_number(Family.empty(GroundSet(4)))
    with pytest.raises(DomainError):
        covering_number(fam([(1,)], 4), 2)


def test_covering_number_matches_oracle():
    # t = 2, after choosing 1: {1,2} lacks one, {1,2,3} one, {2,6,7} two; the
    # last two free parts meet the first's, so the packing skips the worst
    # member and the prune must still count its deficit
    skip = [(1, 2), (1, 2, 3), (2, 6, 7)]
    assert covering_number(fam(skip, 7), 2) == oracle.min_cover_size(
        [frozenset(s) for s in skip], 2) == 3
    for i in range(500):
        rng = random.Random(f"cover:{i}")
        n, t = rng.randint(3, 9), rng.randint(1, 3)
        sets = sorted({frozenset(rng.sample(range(1, n + 1), rng.randint(t, n)))
                       for _ in range(rng.randint(1, 8))}, key=sorted)
        assert covering_number(fam(sets, n), t) == oracle.min_cover_size(sets, t), (n, t, sets)


def test_matching_number_examples():
    four = fam([(1,), (2,), (3,), (4,)], 4)
    assert matching_number(four) == 4
    assert matching_number(star(6, 2, [1])) == 1
    assert matching_number(Family.empty(GroundSet(4))) == 0
    f, g = four_core_pair(4, 2)
    layer = distinct_intersections(f, g).layer(1)
    assert matching_number(layer) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.lists(st.integers(0, 127), min_size=1, max_size=8))
def test_matching_number_agrees_with_oracle(n, masks):
    f = Family.from_masks((m & ((1 << n) - 1) for m in masks), GroundSet(n))
    if not f.members or 0 in f.members:
        return
    want = oracle.max_matching([frozenset(s) for s in f.sets()])
    assert matching_number(f) == want


def test_saturate_pair_star_fixed_point():
    s1 = star(6, 2, [1])
    assert saturate_pair(s1, s1) == (s1, s1)


def test_saturate_pair_matching_grows_to_cycle():
    # direct computation: {1,4} and {2,3} meet both members of the partner,
    # so the matching pair is not saturated; the fixed point is the 4-cycle
    f0 = fam([(1, 2), (3, 4)], 6, k=2)
    g0 = fam([(1, 3), (2, 4)], 6, k=2)
    fs, gs = saturate_pair(f0, g0)
    assert fs.sets() == ((1, 2), (2, 3), (1, 4), (3, 4))
    assert gs == g0
    assert set(f0.members) <= set(fs.members)
    assert set(g0.members) <= set(gs.members)
    assert is_cross_intersecting(fs, gs)
    # saturation cannot shrink the distinct-intersection count
    assert len(distinct_intersections(fs, gs)) >= len(distinct_intersections(f0, g0))


@pytest.mark.parametrize("n,k,pairs", [(6, 2, 60), (8, 2, 60), (10, 3, 40), (12, 4, 20),
                                       (14, 5, 8)])
def test_saturate_is_one_round(n, k, pairs):
    # any pair, cross-intersecting or not, empty sides included; (14, 5) has no adj table.
    # The oracle alternates from (f, g); the closure reads g alone
    ctx = layer_context(n, k)
    assert (ctx.adj is None) == (comb(n, k) > _ADJ_CAP)
    for i in range(pairs):
        rng = random.Random(f"saturate:{n}:{k}:{i}")
        f = rng.sample(ctx.masks, rng.randint(0, 3))
        g = rng.sample(ctx.masks, rng.randint(0, 3))
        want_f, want_g = oracle.saturate_loop(f, g, n, k)
        assert ctx.closure(ctx.bits_of(g)) == (
            ctx.bits_of(want_f), ctx.bits_of(want_g))


def test_saturate_pair_rejects_non_cross():
    with pytest.raises(DomainError):
        saturate_pair(fam([(1, 2)], 6, k=2), fam([(3, 4)], 6, k=2))


def test_saturate_t_examples():
    a = window_family(8, 3, 1)
    assert saturate_t(a, 1) == a
    single = fam([(1, 2)], 6, k=2)
    closure = saturate_t(single, 1)
    assert closure.sets() == ((1, 2), (1, 3), (2, 3))
    assert is_t_intersecting(closure, 1)
    assert set(single.members) <= set(closure.members)
    with pytest.raises(DomainError):
        saturate_t(fam([(1, 2), (3, 4)], 6, k=2), 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_saturate_t_output_is_maximal(seed):
    import random

    rng = random.Random(seed)
    n, k, t = 7, 3, rng.choice((1, 2))
    layer = full_layer(GroundSet(n), k).members
    first = rng.choice(layer)
    fam0 = Family.from_masks([first], GroundSet(n), k)
    closure = saturate_t(fam0, t)
    assert is_t_intersecting(closure, t)
    members = set(closure.members)
    for h in layer:
        if h not in members:
            assert any((h & m).bit_count() < t for m in closure.members)


@pytest.mark.parametrize("n,k,j", [(6, 2, 1), (8, 3, 2), (9, 3, 3), (7, 4, 0), (6, 3, 4),
                                   (8, 4, 2)])
def test_sets_above_matches_definition(n, k, j):
    masks = full_layer(GroundSet(n), k).members
    up = sets_above(n, k, j)
    assert list(up) == [d for d in full_layer(GroundSet(n), j).members
                        if any(m & d == d for m in masks)]
    for d, bits in up.items():
        assert bits == sum(1 << i for i, m in enumerate(masks) if m & d == d)


@pytest.mark.parametrize("n,k,t", [(26, 24, 12), (20, 18, 16), (6, 2, 0), (6, 2, -1)])
def test_t_rows_of_a_complete_graph_need_no_table(monkeypatch, n, k, t):
    # any two k-sets share >= 2k - n elements; C(24, 12) subsets a row would be slow.
    # The context's own "meets" table reads sets_above, so it is built first
    ctx = layer_context(n, k)
    monkeypatch.setattr(transversals, "sets_above", None)
    row = transversals.t_rows(n, k, t)
    assert all(row(m) == ctx.full_bits for m in ctx.masks)


def _t_families(n, k, t, count):
    """Seeded t-intersecting families of up to 4 k-sets, drawn by the oracle sampler."""
    return [oracle.sample_t_draws(n, k, t, random.Random(f"sat:{n}:{k}:{t}:{i}"), 4)
            for i in range(count)]


@pytest.mark.parametrize("n,k,t", [(6, 2, 1), (8, 3, 1), (8, 3, 2), (10, 4, 2), (9, 3, 3),
                                   (26, 24, 23), (12, 9, 7)])
def test_saturate_t_matches_sweep(n, k, t):
    for members in _t_families(n, k, t, 40):
        got = saturate_t(Family.from_masks(members, GroundSet(n), k), t)
        assert list(got.members) == oracle.saturate_t_sweep(members, n, k, t)


@pytest.mark.parametrize("n,k,t", [(6, 2, 1), (7, 3, 1), (7, 3, 2), (6, 3, 3)])
def test_saturate_t_single_members_match_sweep(n, k, t):
    for m in full_layer(GroundSet(n), k).members:
        got = saturate_t(Family.from_masks([m], GroundSet(n), k), t)
        assert list(got.members) == oracle.saturate_t_sweep([m], n, k, t)


def test_saturate_t_matches_sweep_above_adjacency_cap():
    assert comb(14, 5) > _ADJ_CAP
    for members in _t_families(14, 5, 2, 2):
        got = saturate_t(Family.from_masks(members, GroundSet(14), 5), 2)
        assert list(got.members) == oracle.saturate_t_sweep(members, 14, 5, 2)


@pytest.mark.parametrize("n,k", [(5, 0), (1, 0), (4, 4), (1, 1), (6, 3), (8, 4), (9, 3),
                                 (12, 4)])
def test_layer_adjacency_matches_pairwise_definition(n, k):
    # k = 0: the empty set meets nothing; k = n: one set meeting itself;
    # n = 2k: complements are the only non-neighbours; n > 2k: the general case
    ctx = layer_context(n, k)
    assert ctx.adj == tuple(sum(1 << j for j, b in enumerate(ctx.masks) if a & b)
                            for a in ctx.masks)


def test_meet_all_above_adjacency_cap_matches_scan():
    ctx = layer_context(14, 5)
    assert ctx.adj is None
    rng = random.Random("meet_all:14:5")
    for _ in range(5):
        picked = rng.sample(range(len(ctx.masks)), rng.randint(1, 4))
        want = sum(1 << i for i, m in enumerate(ctx.masks)
                   if all(m & ctx.masks[j] for j in picked))
        assert ctx.meet_all(sum(1 << j for j in picked)) == want
    assert ctx.meet_all(0) == ctx.full_bits


def test_saturate_t_certificate_catches_a_dropped_row_bit(monkeypatch):
    # {12, 13, 14} saturates to the star at 1; the first row asked for (that
    # of 12) loses 15, so the greedy misses it and the fresh rows expose it
    start = fam([(1, 2), (1, 3), (1, 4)], 6, k=2)
    assert saturate_t(start, 1) == star(6, 2, [1])
    dropped = ~(1 << list(full_layer(GroundSet(6), 2).members).index(0b10001))
    real, calls = transversals.t_rows, []

    def drops_once(n, k, t):
        row = real(n, k, t)

        def dropping_row(m):
            calls.append(m)
            return row(m) & (dropped if len(calls) == 1 else -1)
        return dropping_row

    monkeypatch.setattr(transversals, "t_rows", drops_once)
    with pytest.raises(VerificationError, match="fixed point"):
        saturate_t(start, 1)


def test_basis_pair_star():
    s1 = star(6, 2, [1])
    b_f, b_g = basis_pair(s1, s1)
    assert b_f.sets() == ((1,),)
    assert b_g.sets() == ((1,),)


def test_basis_pair_four_star():
    a1, a2 = four_star_pair(8, 3)
    b1, b2 = basis_pair(a1, a2)
    assert {frozenset(s) for s in b1.sets()} == {
        frozenset({1, 2}), frozenset({3, 4}),
        frozenset({1, 4, 5}), frozenset({2, 3, 6})}
    assert {frozenset({1, 3}), frozenset({2, 4})} <= {
        frozenset(s) for s in b2.sets()}
    assert is_antichain(b1) and is_antichain(b2)
    assert is_cross_intersecting(b1, b2)
    assert upward_closure(b1, 3) == a1
    assert upward_closure(b2, 3) == a2
    # min basis size of one side equals the covering number of the other
    assert min(m.bit_count() for m in b2.members) == covering_number(a1)
    assert min(m.bit_count() for m in b1.members) == covering_number(a2)


def test_basis_pair_rejects_unsaturated():
    f0 = fam([(1, 2), (3, 4)], 6, k=2)
    g0 = fam([(1, 3), (2, 4)], 6, k=2)
    with pytest.raises(DomainError):
        basis_pair(f0, g0)


def test_basis_t_examples():
    a3 = window_family(8, 3, 1)
    b = basis_t(a3, 1)
    assert b.sets() == ((1, 2), (1, 3), (2, 3))
    assert is_antichain(b) and is_t_intersecting(b, 1)
    star_t = saturate_t(fam([(1, 2, 3)], 8, k=3), 3)
    assert basis_t(star_t, 3).sets() == ((1, 2, 3),)
    assert covering_number(a3, 1) == min(m.bit_count() for m in b.members)
    with pytest.raises(DomainError):
        basis_t(fam([(1, 2, 3)], 8, k=3), 1)


def test_basis_t_of_fixed_core_star():
    # the 3-sets through {1,2} are saturated 2-intersecting with basis {1,2}
    core_star = star(6, 3, [1, 2])
    assert saturate_t(core_star, 2) == core_star
    assert basis_t(core_star, 2).sets() == ((1, 2),)


def test_minimal_sets():
    f = fam([(1,), (1, 2), (2, 3), (3,)], 4)
    assert minimal_sets(f).sets() == ((1,), (3,))
    g = fam([(1, 2), (2, 3), (1, 2, 3)], 4)
    assert minimal_sets(g).sets() == ((1, 2), (2, 3))


def test_partition_by_basis_star():
    s1 = star(6, 2, [1])
    part = partition_by_basis(s1, fam([(1,)], 6))
    assert part.s == part.r == 1
    assert part.family_levels[1] == s1


def test_partition_by_basis_window():
    a = window_family(8, 4, 1)
    b = basis_t(a, 1)
    part = partition_by_basis(a, b)
    assert part.s == part.r == 2
    assert part.family_levels[2] == a
    levels = part.family_levels.values()
    assert sum(len(f) for f in levels) == len(a)


def test_partition_by_basis_two_levels():
    a1, a2 = four_star_pair(8, 3)
    b1, _ = basis_pair(a1, a2)
    part = partition_by_basis(a1, b1)
    assert (part.s, part.r) == (2, 3)
    # levels are disjoint and cover the family
    seen = set()
    for level_fam in part.family_levels.values():
        assert not (seen & set(level_fam.members))
        seen |= set(level_fam.members)
    assert seen == set(a1.members)
    # members at level 3 contain a 3-element basis set but no 2-element one
    for m in part.family_levels[3].members:
        assert not any(m & b == b for b in b1.layer(2).members)


def test_partition_errors():
    s1 = star(6, 2, [1])
    with pytest.raises(DomainError):
        partition_by_basis(s1, fam([(2,)], 6))
    with pytest.raises(DomainError):
        partition_by_basis(s1, Family.empty(GroundSet(6)))


def test_basis_partition_json_shape():
    s1 = star(5, 2, [1])
    part = partition_by_basis(s1, fam([(1,)], 5))
    data = json.loads(part.to_json())
    assert set(data) == {"s", "r", "levels"}
    assert data["s"] == 1 and data["r"] == 1
    assert data["levels"] == [{
        "size": 1,
        "basis": ["1"],
        "members": ["1,2", "1,3", "1,4", "1,5"],
    }]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_saturated_pair_basis_recomposition(seed):
    import random

    from crossfam.search import sample_saturated_pair

    rng = random.Random(seed)
    n, k = rng.choice(((6, 2), (7, 2), (7, 3)))
    f, g = sample_saturated_pair(n, k, rng)
    try:
        b_f, b_g = basis_pair(f, g)
    except DomainError:
        return  # degenerate (empty side); nothing to recompose
    assert upward_closure(b_f, k) == f
    assert upward_closure(b_g, k) == g
    assert is_cross_intersecting(b_f, b_g)
    assert min(m.bit_count() for m in b_g.members) == covering_number(f)


def _brute_has_matching(masks, size):
    return any(all(not a & b for a, b in combinations(combo, 2))
               for combo in combinations(masks, size))


def test_has_matching_of_size_agrees_with_brute_force():
    # seeded inputs with empty members, duplicates and size 0 all occur
    rng = random.Random(20_000)
    for _ in range(3000):
        n = rng.randint(1, 9)
        width = rng.randint(0, n)
        masks = [sum(1 << e for e in rng.sample(range(n), rng.randint(0, width)))
                 for _ in range(rng.randint(0, 9))]
        if masks and rng.random() < 0.3:
            masks.append(rng.choice(masks))
        size = rng.randint(0, 5)
        assert has_matching_of_size(masks, size) == _brute_has_matching(masks, size), (
            masks, size)


def test_has_matching_of_size_counting_prune_cases():
    layer = full_layer(GroundSet(10), 3).members
    assert has_matching_of_size(layer, 3)
    assert not has_matching_of_size(layer, 4)  # 4 * 3 > 10
    assert has_matching_of_size([0, 0, 0], 3)  # the empty set is disjoint from itself
    assert has_matching_of_size([], 0)
    assert not has_matching_of_size([0b11, 0b11], 2)


@pytest.mark.parametrize("s", [2, 3])
def test_max_edges_without_matching_erdos_gallai(s):
    for n in range(2 * s - 1, 8):
        want = max(comb(2 * s - 1, 2), comb(s - 1, 2) + (s - 1) * (n - s + 1))
        assert max_edges_without_matching(n, s) == want


def test_max_edges_without_matching_brute_force():
    for n in range(2, 6):
        edges = full_layer(GroundSet(n), 2).members
        for s in (1, 2, 3):
            want = max(bin(bits).count("1")
                       for bits in range(1 << len(edges))
                       if not _brute_has_matching(
                           [e for i, e in enumerate(edges) if bits >> i & 1], s))
            assert max_edges_without_matching(n, s) == want
