import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.families import (
    DomainError,
    Family,
    GroundSet,
    _intersections,
    common_members,
    distinct_intersections,
    families_from_text,
    family_from_text,
    family_to_text,
    full_layer,
    is_antichain,
    is_cross_intersecting,
    is_cross_sperner,
    is_t_intersecting,
    link_and_delete,
    mask_of,
    shade,
    wedge,
)
from crossfam.constructions import four_star_pair, star, triangle_family

import oracle_utils as oracle


def fam(sets, n, k=None):
    return Family.from_sets(sets, GroundSet(n), k)


def as_frozensets(f):
    return {frozenset(s) for s in f.sets()}


@st.composite
def random_family(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return Family.from_masks(masks, GroundSet(n))


@st.composite
def random_uniform_family(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, min(4, n)))
    layer = full_layer(GroundSet(n), k).members
    picks = draw(st.lists(st.integers(0, len(layer) - 1), min_size=1, max_size=10))
    return Family.from_masks((layer[i] for i in picks), GroundSet(n), k)


def test_ground_set_bounds():
    GroundSet(1)
    GroundSet(64)
    with pytest.raises(DomainError):
        GroundSet(0)
    with pytest.raises(DomainError):
        GroundSet(65)


def test_family_canonical_order_and_dedup():
    f = fam([(3, 1), (1, 3), (2,)], 4)
    assert f.sets() == ((2,), (1, 3))
    with pytest.raises(DomainError):
        Family((3, 3), GroundSet(4))
    with pytest.raises(DomainError):
        fam([(1, 2), (3,)], 4, k=2)


def test_wedge_star_example():
    s1 = star(4, 2, [1])
    assert s1.sets() == ((1, 2), (1, 3), (1, 4))
    w = wedge(s1, s1)
    expected = oracle.wedge_sets(oracle.star_sets(4, 2, [1]),
                                 oracle.star_sets(4, 2, [1]))
    assert as_frozensets(w) == expected
    assert len(w) == 4
    assert w.sets() == ((1,), (1, 2), (1, 3), (1, 4))


def test_wedge_identity_and_disjoint():
    a = fam([(1, 2)], 4)
    assert wedge(a, a).sets() == ((1, 2),)
    assert wedge(fam([(1, 2)], 4), fam([(3, 4)], 4)).sets() == ((),)


def test_wedge_ground_mismatch():
    with pytest.raises(DomainError):
        wedge(fam([(1,)], 4), fam([(1,)], 5))


def test_distinct_intersections_examples():
    a1, a2 = four_star_pair(4, 2)
    got = distinct_intersections(a1, a2)
    assert as_frozensets(got) == oracle.distinct_sets(
        [frozenset({1, 2}), frozenset({3, 4})],
        [frozenset({1, 3}), frozenset({2, 4})])
    assert len(got) == 4

    single = fam([(1, 2)], 4)
    assert len(distinct_intersections(single, single)) == 0

    tri = triangle_family(3, 2)
    got = distinct_intersections(tri, tri)
    assert got.sets() == ((1,), (2,), (3,))


def test_cross_intersecting_examples():
    a1, a2 = four_star_pair(8, 3)
    assert is_cross_intersecting(a1, a2)
    assert not is_cross_intersecting(fam([(1, 2)], 4), fam([(3, 4)], 4))
    assert is_cross_intersecting(Family.empty(GroundSet(4)), fam([(1, 2)], 4))


def test_t_intersecting_examples():
    tri = fam([(1, 2), (1, 3), (2, 3)], 4)
    assert is_t_intersecting(tri, 1)
    assert not is_t_intersecting(tri, 2)
    assert is_t_intersecting(fam([(1, 2, 3)], 4), 3)
    with pytest.raises(DomainError):
        is_t_intersecting(tri, 0)


def test_antichain_examples():
    assert is_antichain(full_layer(GroundSet(4), 2))
    assert not is_antichain(fam([(1,), (1, 2)], 4))
    assert is_antichain(Family.empty(GroundSet(4)))


def test_cross_sperner_predicate():
    a = fam([(1, 2)], 4)
    b = fam([(2, 3)], 4)
    assert is_cross_sperner(a, b)
    assert not is_cross_sperner(a, fam([(1, 2)], 4))
    assert not is_cross_sperner(a, fam([(1, 2, 3)], 4))


@st.composite
def family_pair(draw):
    """Two families on one [n], n <= 8, either possibly empty; g may reuse members of f."""
    n = draw(st.integers(1, 8))
    mask = st.integers(0, (1 << n) - 1)
    f = draw(st.lists(mask, max_size=8))
    g = draw(st.lists(st.sampled_from(f) | mask if f else mask, max_size=8))
    return Family.from_masks(f, GroundSet(n)), Family.from_masks(g, GroundSet(n))


@settings(max_examples=300, deadline=None)
@given(family_pair(), st.integers(1, 4))
def test_pair_predicates_match_the_oracle(pair, t):
    f, g = pair
    fs, gs = as_frozensets(f), as_frozensets(g)
    assert is_cross_intersecting(f, g) == oracle.cross_intersecting(fs, gs)
    assert is_t_intersecting(f, t) == oracle.pair_t_intersecting(fs, t)
    assert is_antichain(f) == oracle.antichain(fs)
    assert is_cross_sperner(f, g) == oracle.cross_sperner(fs, gs)


def test_shade_examples():
    f = fam([(1,)], 3, k=1)
    assert shade(f).sets() == ((1, 2), (1, 3))
    layer = full_layer(GroundSet(5), 2)
    assert shade(layer) == full_layer(GroundSet(5), 3)
    with pytest.raises(DomainError):
        shade(fam([(1,), (1, 2)], 4))


def test_shade_sperner_exhaustive_small():
    # every a-uniform family below the middle layer grows (n <= 5)
    for n in range(2, 6):
        for a in range((n + 1) // 2):
            layer = full_layer(GroundSet(n), a).members
            for bits in range(1 << len(layer)):
                f = Family.from_masks(
                    (layer[i] for i in range(len(layer)) if bits >> i & 1),
                    GroundSet(n), a)
                assert len(shade(f)) >= len(f)


def test_link_and_delete():
    s1 = star(4, 2, [1])
    link, rest = link_and_delete(s1, 1)
    assert link.sets() == ((2,), (3,), (4,))
    assert rest.sets() == ()
    f = fam([(2, 3), (3, 4)], 5)
    link, rest = link_and_delete(f, 1)
    assert len(link) == 0 and rest == f
    with pytest.raises(DomainError):
        link_and_delete(f, 6)


@settings(max_examples=100, deadline=None)
@given(random_family(), st.integers(1, 8))
def test_link_delete_counts(f, i):
    if i > f.ground.n:
        i = 1 + (i % f.ground.n)
    link, rest = link_and_delete(f, i)
    assert len(link) + len(rest) == len(f)


def test_link_delete_counts_bulk():
    # the size identity on 1000 seeded random families
    import random

    rng = random.Random("link-delete")
    for _ in range(1000):
        n = rng.randint(2, 10)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
        f = Family.from_masks(masks, GroundSet(n))
        i = rng.randint(1, n)
        link, rest = link_and_delete(f, i)
        assert len(link) + len(rest) == len(f)


@settings(max_examples=100, deadline=None)
@given(random_family(max_n=12), random_family(max_n=12))
def test_wedge_decomposition_and_symmetry(f, g):
    if f.ground != g.ground:
        g = Family.from_masks(
            (m & f.ground.full_mask for m in g.members), f.ground)
    w = wedge(f, g)
    d = distinct_intersections(f, g)
    assert set(w.members) == set(common_members(f, g).members) | set(d.members)
    assert set(d.members) <= set(w.members)
    assert wedge(g, f) == w
    assert distinct_intersections(g, f) == d


@settings(max_examples=100, deadline=None)
@given(random_family(max_n=10), random_family(max_n=10), st.booleans())
def test_intersection_kernel_matches_oracle(f, g, distinct):
    # one sequence passed twice walks unordered pairs; two sequences walk all pairs
    xs, ys = f.members, g.members
    want = oracle.distinct_sets if distinct else oracle.wedge_sets
    assert _intersections(xs, ys, distinct) == want(xs, ys)
    assert _intersections(xs, xs, distinct) == want(xs, xs) == _intersections(
        xs, list(xs), distinct)


@settings(max_examples=100, deadline=None)
@given(random_uniform_family())
def test_intersecting_wedge_avoids_empty_set(f):
    if is_cross_intersecting(f, f):
        assert 0 not in wedge(f, f).members


@settings(max_examples=60, deadline=None)
@given(random_family(), random_family(), st.integers(0, 255))
def test_wedge_monotone_under_members(f, g, extra):
    if f.ground != g.ground:
        g = Family.from_masks(
            (m & f.ground.full_mask for m in g.members), f.ground)
    bigger = Family.from_masks(
        list(g.members) + [extra & f.ground.full_mask], f.ground)
    assert set(wedge(f, g).members) <= set(wedge(f, bigger).members)
    assert set(distinct_intersections(f, g).members) <= set(
        distinct_intersections(f, bigger).members)


def test_text_format_roundtrip_basic():
    f = fam([(1, 2), (), (2, 4)], 5)
    text = family_to_text(f)
    assert text.splitlines()[0] == "n=5 k=*"
    assert family_from_text(text) == f
    g = family_from_text("n=4 k=2\nhex:3\n2,3\n")
    assert g.sets() == ((1, 2), (2, 3))
    assert g.uniformity == 2


def test_text_format_multiple_blocks():
    a = fam([(1, 2)], 4, k=2)
    b = fam([(2, 3), (1, 4)], 4, k=2)
    text = family_to_text(a) + family_to_text(b)
    got = families_from_text(text)
    assert got == [a, b]


def test_text_format_errors():
    with pytest.raises(DomainError):
        family_from_text("1,2\n")
    with pytest.raises(DomainError):
        family_from_text("n=4 k=2\n1,5\n")
    with pytest.raises(DomainError):
        family_from_text("n=4 k=*\n1,2\nn=4 k=*\n1\n")


@pytest.mark.parametrize("header", ["n=" + "9" * 5000 + " k=2", "n=6 k=" + "9" * 5000],
                         ids=["n", "k"])
def test_text_format_rejects_a_header_integer_of_5000_digits(header):
    # over int()'s 4,300-digit limit, or out of range on an interpreter without one
    with pytest.raises(DomainError):
        families_from_text(header + "\n1,2\n")


@pytest.mark.parametrize("line,reason", [
    ("1,x", "neither"), ("hex:zz", "neither"), ("1,,2", "neither"),
    ("0,1", "outside"), ("-1,2", "outside"), ("2,5", "outside"), ("hex:10", "outside"),
    ("1,99999999999999999999", "outside"), ("1,3000000000", "outside"),
])
def test_text_format_rejects_malformed_member_lines(line, reason):
    # non-integer tokens and elements outside 1..n are domain errors, not
    # raw ValueErrors or negative shifts
    with pytest.raises(DomainError, match=reason):
        families_from_text(f"n=4 k=*\n{line}\n")


@settings(max_examples=100, deadline=None)
@given(random_family())
def test_text_roundtrip_random(f):
    assert family_from_text(family_to_text(f)) == f


def test_mask_helpers():
    assert mask_of([1, 3]) == 0b101
    assert Family.from_masks([0b101], GroundSet(3)).sets() == ((1, 3),)


def test_link_delete_zero_uniform():
    f = Family.from_masks([0], GroundSet(3), 0)
    link, rest = link_and_delete(f, 1)
    assert len(link) == 0 and rest == f
