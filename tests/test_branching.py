import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfam.families import (DomainError, Family, GroundSet, NodeLimitExceeded,
                               VerificationError, elements_of, is_antichain,
                               is_cross_intersecting, is_t_intersecting)
from crossfam import branching
from crossfam.branching import (
    _finish_report,
    _grow,
    _holders,
    _verified,
    run_branching_cross,
    run_branching_t,
    smallest_branching_level,
    splice_parts,
    verify_window_closure,
)
from crossfam.constructions import four_star_pair
from crossfam.search import sample_saturated_pair, sample_saturated_t_family
from crossfam.transversals import basis_pair, basis_t
import oracle_utils as oracle


def fam(sets, n):
    return Family.from_sets(sets, GroundSet(n))


TRIANGLE6 = fam([(1, 2), (1, 3), (2, 3)], 6)
CYCLE = fam([(1, 3), (2, 4), (1, 4), (2, 3)], 6)
MATCHING = fam([(1, 2), (3, 4)], 6)


def test_cross_cycle_vs_matching():
    rep = run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    assert rep.total_weight == 1
    assert rep.coverage_ok and rep.weight_bound_ok
    assert rep.inequality_lhs == Fraction(1, 2)
    covered = {tuple(sorted(s.elements)) for s in rep.survivors}
    assert {(1, 2), (3, 4)} <= covered


def test_cross_triangle_self_pair():
    rep = run_branching_cross(TRIANGLE6, TRIANGLE6, k=3, r=2)
    assert rep.total_weight == 1
    assert rep.inequality_lhs == Fraction(3, 4)
    assert rep.coverage_ok
    # every survivor at level >= r respects the level weight floor
    for s in rep.survivors:
        l = len(s.elements)
        if l >= 2:
            assert s.weight >= Fraction(1, l * l * 3 ** (l - 2))


def test_cross_hypothesis_errors():
    with pytest.raises(DomainError, match="s\\(B1\\) >= 2"):
        run_branching_cross(fam([(1,), (2, 3)], 6), TRIANGLE6, k=3, r=2)
    # a family with two disjoint members can never be self-cross-intersecting
    with pytest.raises(DomainError, match="cross-intersecting"):
        run_branching_cross(CYCLE, CYCLE, k=3, r=2)
    with pytest.raises(DomainError, match="tau"):
        run_branching_cross(fam([(1, 2), (1, 3)], 6), fam([(1, 4)], 6), k=3, r=2)
    with pytest.raises(DomainError, match="antichain"):
        run_branching_cross(fam([(1, 2), (1, 2, 3)], 6), TRIANGLE6, k=3, r=3)


def test_cross_four_star_basis():
    a1, a2 = four_star_pair(8, 3)
    b1, b2 = basis_pair(a1, a2)
    r = smallest_branching_level(b1)
    assert r == 2
    rep = run_branching_cross(b1, b2, k=3, r=r)
    assert rep.total_weight == 1
    assert rep.coverage_ok
    assert rep.inequality_lhs == Fraction(2, 4) + Fraction(2, 27)
    assert rep.level_counts[2] == 2


def test_t_triangle_basis():
    rep = run_branching_t(TRIANGLE6, t=1, k=3, r=2)
    assert rep.total_weight == 1
    assert rep.coverage_ok
    assert rep.inequality_lhs == Fraction(3, 4)
    covered = {tuple(sorted(s.elements)) for s in rep.survivors}
    assert {(1, 2), (1, 3), (2, 3)} <= covered


def test_t_hypothesis_errors():
    with pytest.raises(DomainError, match="s\\(B\\) >= t\\+1"):
        run_branching_t(fam([(1,), (2, 3)], 6), t=1, k=3, r=2)
    with pytest.raises(DomainError, match="t-intersecting"):
        run_branching_t(fam([(1, 2), (3, 4)], 6), t=1, k=3, r=2)
    with pytest.raises(DomainError, match="tau"):
        run_branching_t(fam([(1, 2), (1, 3)], 6), t=1, k=3, r=2)


def _pair_loop_cross_refusal(b1, b2, k, r):
    """The refusal run_branching_cross owes (b1, b2), decided by the families pair
    loops in the runner's order, or None when every hypothesis holds."""
    if not b1.members or not b2.members:
        return "branching needs nonempty bases"
    if any(m.bit_count() > k for m in b1.members + b2.members):
        return "a basis set exceeds size k"
    if not (is_antichain(b1) and is_antichain(b2)):
        return "bases must be antichains"
    s = min(m.bit_count() for m in b1.members)
    if s < 2:
        return f"hypothesis s(B1) >= 2 violated (s = {s})"
    try:
        crossing = is_cross_intersecting(b1, b2)
    except DomainError as err:  # mismatched ground sets
        return str(err)
    if not crossing:
        return "bases must be cross-intersecting"
    low = [frozenset(elements_of(m)) for m in b1.members if m.bit_count() <= r]
    if not low or oracle.min_cover_size(low) < 2:
        return f"hypothesis tau(B1 restricted to sizes <= {r}) >= 2 violated"
    return None


def _pair_loop_t_refusal(b, t, k, r):
    """The refusal run_branching_t owes b, as ``_pair_loop_cross_refusal``."""
    if t < 1:
        return f"t must be >= 1, got {t}"
    if not b.members:
        return "branching needs a nonempty basis"
    if any(m.bit_count() > k for m in b.members):
        return "a basis set exceeds size k"
    if not is_antichain(b):
        return "basis must be an antichain"
    s = min(m.bit_count() for m in b.members)
    if s < t + 1:
        return f"hypothesis s(B) >= t+1 violated (s = {s})"
    if not is_t_intersecting(b, t):
        return "basis must be t-intersecting"
    low = [frozenset(elements_of(m)) for m in b.members if m.bit_count() <= r]
    if not low or oracle.min_cover_size(low, t) < t + 1:
        return f"hypothesis tau_t(B restricted to sizes <= {r}) >= t+1 violated"
    return None


def _refusal(run):
    """The DomainError message run() raises, or None if it gets past the hypotheses."""
    try:
        run()
    except DomainError as err:
        return str(err)
    except (NodeLimitExceeded, VerificationError):
        pass
    return None


@st.composite
def _basis(draw, n):
    """A family of 1..5 sets on [n], mostly of size 2..4, now and then a smaller one."""
    size = st.sampled_from((2,) * 6 + (3,) * 5 + (4,) * 2 + (0, 1))
    sized = size.flatmap(lambda c: st.sets(st.integers(1, n), min_size=min(c, n),
                                           max_size=min(c, n)))
    return fam(draw(st.lists(sized, min_size=1, max_size=5)), n)


def _window_plus(n, t):
    """The (t+1)-subsets of a (t+2)-subset of [n], a t-intersecting antichain with
    tau_t = t+1, plus up to two sets of ``_basis(n)``."""
    window = st.sets(st.integers(1, n), min_size=min(t + 2, n), max_size=min(t + 2, n)).map(
        lambda w: list(combinations(sorted(w), t + 1)))
    return st.tuples(window, _basis(n)).map(
        lambda parts: fam(parts[0] + list(parts[1].sets()[:2]), n))


def _minimal(sets):
    return [s for s in sets if not any(o < s for o in sets)]


@st.composite
def _cross_input(draw):
    """(b1, b2, k, r) with b2 on [n] or, now and then, another ground set.

    b2 is random, b1 itself, or the minimal sets among some that each take
    one element of every set of b1 plus extras, some beyond b1's largest
    element: a cross-intersecting pair unless b1 holds the empty set.
    """
    n = draw(st.integers(3, 7))
    n2 = draw(st.sampled_from((n, n, n, n, n + 1, n - 1)))
    b1 = draw(_basis(n) | _window_plus(n, 1))
    hitting = st.builds(lambda picks, extra: frozenset(picks) | extra,
                        st.tuples(*(st.sampled_from(elements_of(m)) for m in b1.members if m)),
                        st.frozensets(st.integers(1, n2), max_size=1))
    b2 = draw(_basis(n2) | st.just(b1) | st.lists(hitting, min_size=1, max_size=4).map(
        lambda sets: fam(_minimal([s for s in sets if max(s, default=0) <= n2]), n2)))
    # k at or near the largest set size: a set above k is refused first
    k = max(0, max(m.bit_count() for m in b1.members + b2.members) + draw(st.integers(-1, 2)))
    return b1, b2, k, k + 1 - draw(st.integers(0, k))


@settings(max_examples=250, deadline=None)
@given(_cross_input())
@example((TRIANGLE6, TRIANGLE6, 3, 2))  # every hypothesis holds
# B2's elements beyond B1's largest one index B1's holder table
@example((TRIANGLE6, fam([(1, 2, 6), (2, 3, 5), (1, 3, 4)], 6), 3, 2))
@example((TRIANGLE6, fam([(1, 2), (1, 3), (2, 3)], 7), 3, 2))  # mismatched grounds
@example((TRIANGLE6, fam([(3, 4)], 6), 3, 2))  # misses only B1's first member, {1, 2}
@example((TRIANGLE6, fam([()], 6), 3, 2))  # an empty-set member meets nothing
@example((fam([()], 6), TRIANGLE6, 3, 2))
@example((fam([(1, 2), (1, 2, 3)], 6), TRIANGLE6, 3, 3))  # not an antichain
@example((TRIANGLE6, fam([(1, 2), (1, 2, 3)], 6), 3, 3))
def test_cross_runner_refuses_as_the_pair_loops(case):
    b1, b2, k, r = case
    want = _pair_loop_cross_refusal(b1, b2, k, r)
    got = _refusal(lambda: run_branching_cross(b1, b2, k=k, r=r, max_nodes=2000))
    assert got == want, (b1.sets(), b2.sets(), k, r)


@st.composite
def _t_input(draw):
    n = draw(st.integers(3, 6))
    t = draw(st.sampled_from((0, 1, 1, 1, 2, 2, 3)))
    b = draw(_basis(n) | _window_plus(n, max(t, 1)))
    k = max(0, max(m.bit_count() for m in b.members) + draw(st.integers(-1, 2)))
    return b, t, k, k + 1 - draw(st.integers(0, k))


@settings(max_examples=250, deadline=None)
@given(_t_input())
@example((TRIANGLE6, 1, 3, 2))  # every hypothesis holds
@example((fam([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 8), 2, 3, 3))
@example((fam([(1, 2, 3), (1, 2, 4), (3, 4, 5)], 6), 2, 3, 3))  # not 2-intersecting
@example((fam([()], 6), 1, 3, 2))
@example((fam([(1, 2), (1, 2, 3)], 6), 1, 3, 3))  # not an antichain
def test_t_runner_refuses_as_the_pair_loops(case):
    b, t, k, r = case
    want = _pair_loop_t_refusal(b, t, k, r)
    got = _refusal(lambda: run_branching_t(b, t=t, k=k, r=r, max_nodes=2000))
    assert got == want, (b.sets(), t, k, r)


def test_t2_simplex_basis():
    b = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 8)
    r = smallest_branching_level(b, 2)
    assert r == 3
    rep = run_branching_t(b, t=2, k=3, r=r)
    assert rep.total_weight == 1
    assert rep.coverage_ok
    assert rep.inequality_lhs == Fraction(4, 9)


def test_selection_rule_independence():
    # the assertions hold under arbitrary legal selection rules
    a1, a2 = four_star_pair(8, 3)
    b1, b2 = basis_pair(a1, a2)
    for i in range(100):
        rng = random.Random(f"rules:{i}")
        rep = run_branching_cross(b1, b2, k=3, r=2, rng=rng)
        assert rep.total_weight == 1
        assert rep.coverage_ok
        assert rep.inequality_lhs <= 1
    for i in range(100):
        rng = random.Random(f"rules-t:{i}")
        rep = run_branching_t(TRIANGLE6, t=1, k=3, r=2, rng=rng)
        assert rep.total_weight == 1
        assert rep.coverage_ok


def test_termination_bound():
    rep = run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    assert all(len(s.elements) <= 6 for s in rep.survivors)


def test_report_json_rationals():
    rep = run_branching_t(TRIANGLE6, t=1, k=3, r=2)
    data = json.loads(rep.to_json())
    assert data["total_weight"] == "1/1"
    assert data["lambda"]["2"] == "3/4"
    assert all("/" in s["weight"] for s in data["survivors"])


def _sampled_cross_bases(count=10):
    """(b1, b2, r) for the first admissible seeded saturated pairs at (7, 2)."""
    out = []
    i = 0
    while len(out) < count and i < 400:
        rng = random.Random(f"gen:{i}")
        i += 1
        f, g = sample_saturated_pair(7, 2, rng)
        try:
            b1, b2 = basis_pair(f, g)
        except DomainError:
            continue
        if min(m.bit_count() for m in b1.members) < 2:
            continue
        r = smallest_branching_level(b1)
        if r is not None:
            out.append((b1, b2, r))
    return out


def _sampled_t_bases(count=10):
    """(b, r) for the first admissible seeded saturated t = 1 bases at (8, 3)."""
    out = []
    i = 0
    while len(out) < count and i < 400:
        rng = random.Random(f"gen-t:{i}")
        i += 1
        famly = sample_saturated_t_family(8, 3, 1, rng)
        b = basis_t(famly, 1)
        if min(m.bit_count() for m in b.members) < 2:
            continue
        r = smallest_branching_level(b, 1)
        if r is not None:
            out.append((b, r))
    return out


def test_random_generated_bases_conserve_weight():
    bases = _sampled_cross_bases()
    assert len(bases) == 10
    for b1, b2, r in bases:
        rep = run_branching_cross(b1, b2, k=2, r=r)
        assert rep.total_weight == 1 and rep.coverage_ok


def test_random_generated_t_bases_conserve_weight():
    bases = _sampled_t_bases()
    assert len(bases) == 10
    for b, r in bases:
        rep = run_branching_t(b, t=1, k=3, r=r)
        assert rep.total_weight == 1 and rep.coverage_ok


def _sets(f):
    return [frozenset(elements_of(m)) for m in f.members]


def _layer(n, k):
    return fam(list(combinations(range(1, n + 1), k)), n)


def _differential_cases():
    """(name, kind, driver, cover, t, k, r): sampled bases and full layers."""
    cases = [(f"cross{i}", "cross", b1, b2, 1, 2, r)
             for i, (b1, b2, r) in enumerate(_sampled_cross_bases())]
    cases += [(f"t{i}", "t", b, b, 1, 3, r) for i, (b, r) in enumerate(_sampled_t_bases())]
    a1, a2 = four_star_pair(8, 3)
    b1, b2 = basis_pair(a1, a2)
    simplex = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 8)
    cases += [
        ("four_star", "cross", b1, b2, 1, 3, 2),
        ("cycle", "cross", CYCLE, MATCHING, 1, 3, 2),
        ("simplex", "t", simplex, simplex, 2, 3, 3),
        ("layer_cross_7_4", "cross", _layer(7, 4), _layer(7, 4), 1, 4, 4),
        ("layer_t_6_4_2", "t", _layer(6, 4), _layer(6, 4), 2, 4, 4),
        ("layer_t_7_4_1", "t", _layer(7, 4), _layer(7, 4), 1, 4, 4),
    ]
    return cases


@pytest.mark.parametrize("rule", ["det", "random"])
def test_frontier_matches_oracle(rule):
    # inherited pools and grouped sums against pools recomputed every round
    for name, kind, driver, cover, t, k, r in _differential_cases():
        rng = random.Random(f"oracle:{name}") if rule == "random" else None
        oracle_rng = random.Random(f"oracle:{name}") if rule == "random" else None
        if kind == "cross":
            rep = run_branching_cross(driver, cover, k=k, r=r, rng=rng)
        else:
            rep = run_branching_t(driver, t=t, k=k, r=r, rng=rng)
        want = oracle.branching_oracle(_sets(driver), _sets(cover), t, k, r, oracle_rng,
                                       cross=kind == "cross")
        assert rep.to_json() == json.dumps(want, sort_keys=True), name


def _survivor_dicts(rep):
    """rep.survivors in the oracle's JSON form."""
    return [{"elements": list(s.elements),
             "weight": f"{s.weight.numerator}/{s.weight.denominator}",
             "chosen_sets": [list(elements_of(m)) for m in s.chosen_sets]}
            for s in rep.survivors]


def _mixed_parents(rep, t):
    """The sequences with one child that survives and another that branches on."""
    leaf = {s.elements[:-1] for s in rep.survivors}
    live = {s.elements[:l] for s in rep.survivors for l in range(t, len(s.elements) - 1)}
    return leaf & live


def _run_with_oracle(name, kind, driver, cover, t, k, r, rule):
    rng = random.Random(f"new-paths:{name}") if rule == "random" else None
    oracle_rng = random.Random(f"new-paths:{name}") if rule == "random" else None
    if kind == "cross":
        rep = run_branching_cross(driver, cover, k=k, r=r, rng=rng)
    else:
        rep = run_branching_t(driver, t=t, k=k, r=r, rng=rng)
    want = oracle.branching_oracle(_sets(driver), _sets(cover), t, k, r, oracle_rng,
                                   cross=kind == "cross")
    return rep, want


@pytest.mark.parametrize("rule", ["det", "random"])
def test_survivors_and_chunks_match_oracle(rule):
    # the materialised survivors and the streamed text, both read from sibling
    # groups, among them groups of parents whose other children branch on
    mixed = 0
    for case in _differential_cases():
        rep, want = _run_with_oracle(*case, rule)
        assert _survivor_dicts(rep) == want["survivors"], case[0]
        chunks = list(rep.json_chunks())
        assert len(chunks) > 2 and "".join(chunks) == rep.to_json(), case[0]
        assert rep.to_json() == json.dumps(want, sort_keys=True), case[0]
        mixed += bool(_mixed_parents(rep, case[4]))
    assert mixed >= 5


def test_cycle_parent_with_leaf_and_live_children():
    # seed {1,3}: from (1,) the set {2,3} is chosen; (1, 2) meets every member,
    # (1, 3) still misses {2, 4}
    rep = run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    assert (1,) in _mixed_parents(rep, 1)
    elements = [s.elements for s in rep.survivors]
    assert (1, 2) in elements and any(e[:2] == (1, 3) and len(e) > 2 for e in elements)


@pytest.mark.parametrize("rule", ["det", "random"])
def test_seed_surviving_round_zero_matches_oracle(rule):
    # the size-3 members both hold {1, 2}, so the seed pair (1, 2) has an empty
    # first pool and survives in round 0.  The runners reject such a basis: a
    # seed t-set inside every member of size <= r puts t elements in all of
    # them, against tau_t >= t+1.  _grow is driven directly.
    b = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4, 5)], 8)
    with pytest.raises(DomainError, match="tau"):
        run_branching_t(b, t=2, k=4, r=3)
    rng = random.Random("seed-survivor") if rule == "random" else None
    oracle_rng = random.Random("seed-survivor") if rule == "random" else None
    rep = _finish_report(*_grow(b.members, _holders(b), 3, 2, rng, 10 ** 6), b, 2, 4, 3)
    want = oracle.branching_oracle(_sets(b), _sets(b), 2, 4, 3, oracle_rng)
    assert rep.survivors[0].elements == (1, 2)
    assert rep.survivors[0].weight == Fraction(1, 3)
    assert len(rep.survivors) > 1
    assert _survivor_dicts(rep) == want["survivors"]
    assert rep.to_json() == json.dumps(want, sort_keys=True)


# the basis of a saturated 2-intersecting family on [8]: some child S + y is met
# in fewer than 2 elements only by members that hold y and miss S, so whether
# it is a leaf depends on plane 1 as well as plane 2
T2_BASIS = fam([(1, 2, 3, 4), (1, 2, 4, 5), (1, 3, 4, 5), (1, 2, 3, 6), (1, 2, 4, 6),
                (1, 3, 4, 6), (2, 3, 4, 6), (1, 2, 5, 6), (1, 3, 5, 6), (1, 2, 3, 8),
                (1, 4, 6, 8)], 8)


@pytest.mark.parametrize("rule", ["det", "random"])
def test_t2_leaf_test_reads_both_planes(rule):
    rep, want = _run_with_oracle("t2_basis", "t", T2_BASIS, T2_BASIS, 2, 4, 4, rule)
    assert len(rep.survivors) > 50
    assert _survivor_dicts(rep) == want["survivors"]
    assert rep.to_json() == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("rule", ["det", "random"])
def test_coverage_of_each_set_matches_oracle(rule):
    # coverage read from the groups, one cover set of size r..k at a time: the
    # sets of sequences that were live and branched on are not survivors' sets
    seen = {True: 0, False: 0}
    for name, kind, driver, _, t, k, r in _differential_cases():
        n = driver.ground.n
        rng = random.Random(f"cover:{name}") if rule == "random" else None
        oracle_rng = random.Random(f"cover:{name}") if rule == "random" else None
        grown = _grow(driver.members, _holders(driver), r, t, rng, 10 ** 6)
        want = oracle.branching_oracle(_sets(driver), _sets(driver), t, k, r, oracle_rng,
                                       cross=kind == "cross")
        survivor_sets = {frozenset(s["elements"]) for s in want["survivors"]}
        for l in range(r, k + 1):
            for c in combinations(range(1, n + 1), l):
                rep = _finish_report(*grown, fam([c], n), t, k, r)
                assert rep.coverage_ok == (frozenset(c) in survivor_sets), (name, c)
                seen[rep.coverage_ok] += 1
    assert all(seen.values()), seen


def test_coverage_reads_every_group_of_a_prefix_set():
    # two groups whose prefixes are one set in two orders: {1, 2, 3} is a
    # survivor's set only through the second group's y = 3
    groups = [((1, 2), 4, (), [4]), ((2, 1), 4, (), [3])]
    for cover, covered in (([(1, 2, 3)], True), ([(1, 2, 4)], True), ([(1, 3, 4)], False)):
        rep = _finish_report(groups, Fraction(1, 2), fam(cover, 4), 1, 3, 3)
        assert rep.coverage_ok == covered, cover


@pytest.mark.parametrize("field, value, message", [
    ("coverage_ok", False, "a basis set at level >= r was not covered by a survivor"),
    ("weight_bound_ok", False, "a survivor weight fell below its level floor"),
    ("inequality_lhs", Fraction(3, 2), "sum of level weights 3/2 exceeds 1"),
])
def test_runners_raise_for_each_failed_report_check(monkeypatch, field, value, message):
    good = run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    assert _verified(good) is good
    bad = replace(good, **{field: value})
    with pytest.raises(VerificationError, match=message):
        _verified(bad)
    # both runners send what _finish_report builds through _verified
    monkeypatch.setattr(branching, "_finish_report", lambda *args: bad)
    with pytest.raises(VerificationError, match=message):
        run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    with pytest.raises(VerificationError, match=message):
        run_branching_t(TRIANGLE6, t=1, k=3, r=2)


@pytest.mark.parametrize("rule", ["det", "random"])
@pytest.mark.parametrize("name", ["cycle", "simplex", "layer_cross_7_4", "layer_t_6_4_2"])
def test_node_limit_counts_every_extension(name, rule):
    # every sequence made by an extension is a survivor's prefix longer than t;
    # a limit of exactly that many passes, one fewer raises
    _, kind, driver, cover, t, k, r = next(c for c in _differential_cases() if c[0] == name)

    def run(max_nodes):
        rng = random.Random(f"limit:{name}") if rule == "random" else None
        if kind == "cross":
            return run_branching_cross(driver, cover, k=k, r=r, rng=rng, max_nodes=max_nodes)
        return run_branching_t(driver, t=t, k=k, r=r, rng=rng, max_nodes=max_nodes)

    rep = run(10 ** 6)
    nodes = len({s.elements[:l] for s in rep.survivors
                 for l in range(t + 1, len(s.elements) + 1)})
    assert run(nodes).to_json() == rep.to_json()
    with pytest.raises(NodeLimitExceeded, match=f"exceeded {nodes - 1} nodes"):
        run(nodes - 1)


def test_conservation_is_checked_every_round(monkeypatch):
    # an error of 2^-60 in any one weight sum, however late, is a VerificationError
    calls = []
    exact = branching._weight_sum

    def counting(groups):
        calls.append(1)
        return exact(groups)

    monkeypatch.setattr(branching, "_weight_sum", counting)
    rep = run_branching_cross(CYCLE, MATCHING, k=3, r=2)
    rounds = max(len(s.elements) for s in rep.survivors)  # seeds, then one per extension
    assert rounds == 3 and len(calls) >= rounds
    for bad in range(len(calls)):
        seen = []

        def corrupt(groups):
            seen.append(1)
            return exact(groups) + (Fraction(1, 2 ** 60) if len(seen) == bad + 1 else 0)

        monkeypatch.setattr(branching, "_weight_sum", corrupt)
        with pytest.raises(VerificationError, match="mid-run"):
            run_branching_cross(CYCLE, MATCHING, k=3, r=2)


_SPLICE_CASES = {
    "head_and_tail": ({"a": 1, "z": [2, 3]}, "m", {"x": [1, 2]}),
    "empty_head": ({"b": True, "c": None}, "a", [1, "2"]),
    "empty_tail": ({"a": "1/2", "b": {"y": 1, "x": 2}}, "c", "3/4"),
    "empty_obj": ({}, "survivors", []),
    "replaces_key": ({"a": 1, "m": "old", "z": 2}, "m", "new"),
    "escaped_keys_and_values": ({'q"uote': "tab\there", "\u00e9": "\u00ff\n",
                                 "back\\slash": ["\u2603"]}, 'k"ey\n', {"\u00fc": '"'}),
}


@pytest.mark.parametrize("obj, key, value", _SPLICE_CASES.values(), ids=_SPLICE_CASES)
def test_splice_json_matches_json_dumps(obj, key, value):
    head, tail = splice_parts(obj, key)
    encoded = json.dumps(value, sort_keys=True)
    assert head + encoded + tail == json.dumps(obj | {key: value}, sort_keys=True)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=5), st.text(max_size=4),
       _JSON_VALUES)
def test_splice_json_property(obj, key, value):
    head, tail = splice_parts(obj, key)
    encoded = json.dumps(value, sort_keys=True)
    assert head + encoded + tail == json.dumps(obj | {key: value}, sort_keys=True)


@pytest.mark.parametrize("run", [
    lambda: run_branching_cross(_layer(7, 4), _layer(7, 4), k=4, r=4, max_nodes=5),
    lambda: run_branching_t(_layer(6, 4), t=2, k=4, r=4, max_nodes=5),
])
def test_node_limit_raises_typed_error(run):
    with pytest.raises(NodeLimitExceeded, match="exceeded 5 nodes"):
        run()
    assert issubclass(NodeLimitExceeded, RuntimeError)


def test_verify_window_closure_true_cases():
    tri = fam([(1, 2), (1, 3), (2, 3)], 7)
    assert verify_window_closure(tri, 1, 7, 3)
    relabeled = fam([(2, 5), (2, 7), (5, 7)], 7)
    assert verify_window_closure(relabeled, 1, 7, 3)
    simplex = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 8)
    assert verify_window_closure(simplex, 2, 8, 4)


def test_verify_window_closure_errors_and_false():
    with pytest.raises(DomainError):
        verify_window_closure(fam([(1, 2), (1, 3)], 7), 1, 7, 3)
    with pytest.raises(DomainError):
        verify_window_closure(fam([(1, 2, 3)], 7), 1, 7, 3)
    # three of the four triples of [4]: 2-intersecting, tau_2 = 3, but the
    # closure misses the 4-sets above {2,3,4}, so it is not the window family
    partial = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4)], 8)
    assert verify_window_closure(partial, 2, 8, 4) is False


@st.composite
def _window_inputs(draw):
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 2, 9))
    k = draw(st.integers(t + 1, n))
    support = draw(st.permutations(range(1, n + 1)))[:draw(st.sampled_from((t + 2, t + 3)))]
    pool = [frozenset(c) for c in combinations(sorted(support), t + 1)]
    members = draw(st.lists(st.sampled_from(pool), min_size=3, unique=True))
    return members, t, n, k


@settings(max_examples=150, deadline=None)
@given(_window_inputs())
def test_verify_window_closure_matches_all_relabelings(case):
    # supports anywhere in [n], of t+2 or t+3 elements, full or partial
    members, t, n, k = case
    basis = fam(members, n)
    if not oracle.pair_t_intersecting(members, t) or oracle.min_cover_size(members, t) <= t:
        with pytest.raises(DomainError):
            verify_window_closure(basis, t, n, k)
    else:
        assert verify_window_closure(basis, t, n, k) is oracle.window_relabeling_oracle(
            members, t, n, k)


def test_smallest_branching_level():
    a1, a2 = four_star_pair(8, 3)
    b1, _ = basis_pair(a1, a2)
    assert smallest_branching_level(b1) == 2
    assert smallest_branching_level(fam([(1, 2), (1, 3)], 6)) is None
    b = fam([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 8)
    assert smallest_branching_level(b, 2) == 3


def test_hypothesis_check_matches_cover_oracle():
    # tau_t >= t+1 iff fewer than t elements lie in every member; checked
    # through the smallest level at which it holds
    seen = {"empty core": 0, "core >= t": 0, "level found": 0, "none": 0}
    for i in range(300):
        rng = random.Random(f"core:{i}")
        t = rng.choice((1, 2, 3))
        n = 7
        core = set(rng.sample(range(1, n + 1), rng.choice((0, t - 1, t, t + 1))))
        sets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(max(t, len(core)), min(n, t + 3))
            rest = rng.sample(sorted(set(range(1, n + 1)) - core), size - len(core))
            sets.append(frozenset(core | set(rest)))
        common = frozenset.intersection(*sets)
        seen["empty core"] += not common
        seen["core >= t"] += len(common) >= t
        want = next((a for a in sorted({len(x) for x in sets})
                     if oracle.min_cover_size([x for x in sets if len(x) <= a], t) >= t + 1), None)
        seen["level found" if want is not None else "none"] += 1
        assert smallest_branching_level(fam(sets, n), t) == want, (sets, t)
    assert all(seen.values()), seen


def test_smallest_branching_level_small_member_raises():
    with pytest.raises(DomainError, match="fewer than t=2"):
        smallest_branching_level(fam([(1,), (2, 3)], 6), 2)
    with pytest.raises(DomainError, match="t must be >= 1"):
        smallest_branching_level(fam([(1, 2)], 6), 0)
