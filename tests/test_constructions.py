import re

import pytest

from crossfam import constructions
from crossfam.families import (
    DomainError,
    Family,
    GroundSet,
    distinct_intersections,
    is_antichain,
    is_cross_intersecting,
    is_cross_sperner,
    is_t_intersecting,
)
from crossfam.constructions import (
    construct,
    four_core_pair,
    four_star_pair,
    split_cross_sperner_pair,
    star,
    top_layer_antichain,
    triangle_family,
    verify_construction,
    window_family,
)
from crossfam.formulas import eval_formula
from crossfam.search import brute_count
from crossfam.transversals import matching_number

import oracle_utils as oracle


def test_star_examples():
    s = star(4, 2, [1])
    assert s.sets() == ((1, 2), (1, 3), (1, 4))
    assert star(5, 2, [1, 2, 3]).sets() == ()  # center larger than k
    with pytest.raises(DomainError):
        star(4, 2, [5])


_WINDOW_REFUSAL = "need t >= 1, k > t, n >= max(k, t+2); got n={n} k={k} t={t}"


def _expected_star(n, k, center):
    if max(center, default=0) > n:
        return f"center {tuple(center)} not inside [{n}]"
    if k < 0:
        return f"uniformity {k} out of range for n={n}"
    if k > n:
        return f"k={k} out of range for n={n}"
    return oracle.star_sets(n, k, center)


def _expected_four_star(n, k, centers):
    if k < 2:
        return f"need k >= 2, got k={k}"
    low = max(6 if k >= 3 else 4, k)
    if n < low:
        return f"need n >= {low} at k={k}, got n={n}"
    return oracle.union_families(*(oracle.star_sets(n, k, c) for c in centers))


def _expected_window(n, k, t):
    if t < 1 or k < t + 1 or n < max(k, t + 2):
        return _WINDOW_REFUSAL.format(n=n, k=k, t=t)
    return oracle.window_sets(n, k, t)


def _builder_cases():
    a1 = ((1, 2), (3, 4), (1, 4, 5), (2, 3, 6))
    a2 = ((1, 3), (2, 4), (1, 4, 6), (2, 3, 5))
    for n in range(1, 11):
        for k in range(-1, n + 2):
            for center in ([], [1], [1, 1], [2, 3], [1, 2, 3], [3, 1, 4, 2], [n]):
                yield n, k, (lambda: star(n, k, center)), _expected_star(n, k, center)
            yield n, k, (lambda: four_star_pair(n, k)[0]), _expected_four_star(n, k, a1)
            yield n, k, (lambda: four_star_pair(n, k)[1]), _expected_four_star(n, k, a2)
            yield n, k, (lambda: triangle_family(n, k)), _expected_window(n, k, 1)
            for t in range(0, 4):
                yield n, k, (lambda: window_family(n, k, t)), _expected_window(n, k, t)


def test_builders_match_the_oracle_on_the_grid():
    # every n <= 10, k in -1..n+1, t <= 3: the oracle's family, or the refusal
    for n, k, build, want in _builder_cases():
        if isinstance(want, str):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == want
        else:
            got = build()
            assert (got.ground.n, got.uniformity) == (n, k)
            assert sorted(map(frozenset, got.sets()), key=sorted) == sorted(want, key=sorted)


@pytest.mark.parametrize("build, want", [
    (lambda: star(3, 2, [1, 1]).sets(), ((1, 2), (1, 3))),
    (lambda: star(1, 1, [1, 1]).sets(), ((1,),)),
    (lambda: star(4, 0, []).sets(), ((),)),
    (lambda: star(4, -1, [1]), "uniformity -1 out of range for n=4"),
    (lambda: star(4, -1, []), "uniformity -1 out of range for n=4"),
    (lambda: star(4, 5, [1]), "k=5 out of range for n=4"),
    (lambda: four_star_pair(8, -1), "need k >= 2, got k=-1"),
    (lambda: window_family(8, -1, 1), _WINDOW_REFUSAL.format(n=8, k=-1, t=1)),
    (lambda: triangle_family(8, -1), _WINDOW_REFUSAL.format(n=8, k=-1, t=1)),
])
def test_builder_edge_cases(build, want):
    if isinstance(want, str):
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            build()
    else:
        assert build() == want


def test_four_star_pair_k2():
    for n in (4, 5, 6, 9):
        a1, a2 = four_star_pair(n, 2)
        assert a1.sets() == ((1, 2), (3, 4))
        assert a2.sets() == ((1, 3), (2, 4))
    with pytest.raises(DomainError):
        four_star_pair(3, 2)
    with pytest.raises(DomainError):
        four_star_pair(5, 3)


def test_four_star_pair_cross_intersecting():
    for n, k in ((6, 3), (8, 3), (10, 4)):
        a1, a2 = four_star_pair(n, k)
        assert a1.uniformity == k and a2.uniformity == k
        assert is_cross_intersecting(a1, a2)


def test_four_star_pair_matches_oracle():
    a1, a2 = four_star_pair(7, 3)
    o1 = oracle.union_families(oracle.star_sets(7, 3, [1, 2]),
                               oracle.star_sets(7, 3, [3, 4]),
                               oracle.star_sets(7, 3, [1, 4, 5]),
                               oracle.star_sets(7, 3, [2, 3, 6]))
    assert {frozenset(s) for s in a1.sets()} == set(o1)
    assert len(a2) == len(a1)


def test_central_formula_cross_check():
    # the module's defining property: enumeration equals the closed form, at
    # every n the closed form accepts
    for k in (2, 3, 4):
        for n in range(max(2 * k - 1, 4 if k == 2 else 6), 12):
            a1, a2 = four_star_pair(n, k)
            assert brute_count("I_pair", a1, a2) == eval_formula(
                "I_A1A2_15", n=n, k=k)
    for t in (1, 2):
        for k in range(t + 1, 5):
            for n in range(2 * k - t, 11):
                fam = window_family(n, k, t)
                assert brute_count("I_self", fam) == eval_formula(
                    "I_Ankt_17", n=n, k=k, t=t)
    for k in (2, 3, 4):
        for n in range(2 * k - 1, 11):
            assert brute_count("I_self", triangle_family(n, k)) == eval_formula(
                "I_A3_case31", n=n, k=k)


# formula id -> (the count it is the closed form of, its lowest n, the (k, t) cells)
_EDGES = {
    "I_A1A2_15": (lambda n, k: brute_count("I_pair", *four_star_pair(n, k)),
                  lambda k: max(2 * k - 1, 4 if k == 2 else 6),
                  [{"k": k} for k in range(2, 7)]),
    "wedge_star_13": (lambda n, k: brute_count("wedge", star(n, k, [1]), star(n, k, [1])),
                      lambda k: 2 * k - 1,
                      [{"k": k} for k in range(1, 7)]),
    "I_A3_case31": (lambda n, k: brute_count("I_self", triangle_family(n, k)),
                    lambda k: 2 * k - 1,
                    [{"k": k} for k in range(2, 7)]),
    "I_Ankt_17": (lambda n, k, t: brute_count("I_self", window_family(n, k, t)),
                  lambda k, t: 2 * k - t,
                  [{"k": k, "t": t} for t in (1, 2, 3) for k in range(t + 1, 7)]),
    "I_star_t": (lambda n, k, t: brute_count("I_self", star(n, k, range(1, t + 1))),
                 lambda k, t: 2 * k - t,
                 [{"k": k, "t": t} for t in (1, 2, 3) for k in range(t, 7)]),
}


@pytest.mark.parametrize("fid", sorted(_EDGES))
def test_closed_forms_start_where_they_count(capsys, fid):
    # at its lowest n the closed form equals the count; one below, where it
    # overcounts, `crossfam eval` refuses the cell with exit 2
    from crossfam.cli import main

    count, edge, cells = _EDGES[fid]
    for kw in cells:
        n = edge(**kw)
        assert eval_formula(fid, n=n, **kw) == count(n, **kw), (fid, n, kw)
        argv = ["eval", "--id", fid, "--n", str(n - 1)]
        for name, v in kw.items():
            argv += [f"--{name}", str(v)]
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_window_family_membership():
    fam = window_family(5, 2, 1)
    assert fam.sets() == ((1, 2), (1, 3), (2, 3))
    fam = window_family(8, 3, 1)
    want = set(oracle.window_sets(8, 3, 1))
    assert {frozenset(s) for s in fam.sets()} == want
    assert is_t_intersecting(window_family(10, 4, 2), 2)
    with pytest.raises(DomainError):
        window_family(3, 2, 2)


def test_four_core_pair_k2_concrete():
    f, g = four_core_pair(4, 2)
    assert f.sets() == ((1, 3), (2, 3), (1, 4))  # F2 = F3 = {2,3} collapse
    assert g.sets() == ((1, 2), (1, 3), (3, 4))
    assert is_cross_intersecting(f, g)
    ones = distinct_intersections(f, g).layer(1)
    assert ones.sets() == ((1,), (2,), (3,), (4,))


def test_four_core_pair_tightness():
    for k in (2, 3, 4, 5):
        n = max(4 * (k - 1), 4)
        f, g = four_core_pair(n, k)
        assert is_cross_intersecting(f, g)
        layer = distinct_intersections(f, g).layer(k - 1)
        assert matching_number(layer) == 4
    with pytest.raises(DomainError):
        four_core_pair(7, 3)


def test_top_layer_antichain():
    fam = top_layer_antichain(6)
    assert fam.uniformity == 4
    assert is_antichain(fam)
    assert len(fam) == 15
    assert brute_count("I_self", fam) == eval_formula("example52", n=6)


def test_split_cross_sperner_pair():
    a, b = split_cross_sperner_pair(4, [1, 2])
    assert is_cross_sperner(a, b)
    assert brute_count("I_pair", a, b) == 2 ** 4 - 2 ** 2 - 2 ** 2 + 1 == 9
    with pytest.raises(DomainError):
        split_cross_sperner_pair(4, [1, 2, 3, 4])


def test_construct_dispatcher_and_spec():
    fam = construct("Ankt", {"n": 5, "k": 2, "t": 1})
    assert fam == window_family(5, 2, 1)
    pair = construct("prop21_tight", {"n": 4, "k": 2})
    assert isinstance(pair, tuple)
    assert construct("star", {"n": 4, "k": 2, "T": [1]}) == star(4, 2, [1])
    with pytest.raises(DomainError, match=r"^unknown construction 'nope'$"):
        construct("nope", {})
    with pytest.raises(DomainError, match=r"^star needs parameter 'T'$"):
        construct("star", {"n": 4, "k": 2})
    with pytest.raises(DomainError, match=r"^missing parameter 'n'$"):
        construct("A1", {"k": 3})
    with pytest.raises(DomainError, match=r"^star does not read parameter 'Q'$"):
        construct("star", {"n": 4, "k": 2, "T": [1], "Q": 1})
    with pytest.raises(DomainError, match=r"^parameter 't' must be an integer, got '1'$"):
        construct("Ankt", {"n": 8, "k": 3, "t": "1"})
    for center in ([5], [0], [True], "1", (1,)):
        with pytest.raises(DomainError, match=r"^star parameter 'T' must be a list of integers"):
            construct("star", {"n": 4, "k": 2, "T": center})


def test_verify_construction_reports():
    assert verify_construction("A1", {"n": 10, "k": 3})["ok"]
    assert verify_construction("Ankt", {"n": 10, "k": 4, "t": 2})["ok"]
    assert verify_construction("prop21_tight", {"n": 8, "k": 3})["ok"]
    assert verify_construction("antichain_52", {"n": 7})["ok"]
    rep = verify_construction("cross_sperner_54", {"n": 4, "X": [1, 2]})
    assert rep["ok"] and rep["witness"] is None


def _sets(*sets):
    return Family.from_sets(sets, GroundSet(4))


@pytest.mark.parametrize("name, params, built, witness", [
    ("star", {"n": 4, "k": 2, "T": [1]}, _sets((1, 2), (2, 3), (3, 4)), [[2, 3]]),
    ("A3", {"n": 4, "k": 2}, _sets((1, 2), (1, 3), (3, 4)), [[1, 2], [3, 4]]),
    ("Ankt", {"n": 4, "k": 2, "t": 2}, _sets((1, 2), (1, 3)), [[1, 2], [1, 3]]),
    ("prop21_tight", {"n": 4, "k": 2}, (_sets((1, 2), (3, 4)), _sets((1, 2), (1, 3))),
     [[3, 4], [1, 2]]),
    ("antichain_52", {"n": 4}, _sets((1,), (2,), (2, 3)), [[2], [2, 3]]),
    ("cross_sperner_54", {"n": 4, "X": [1]}, (_sets((2,), (3,)), _sets((1,), (1, 3))),
     [[3], [1, 3]]),
])
def test_verify_construction_names_the_first_bad_member_or_pair(monkeypatch, name, params,
                                                                 built, witness):
    # a broken builder: the scan reports the first offending member or pair
    names, set_name, _ = constructions._CONSTRUCTIONS[name]
    monkeypatch.setitem(constructions._CONSTRUCTIONS, name,
                        (names, set_name, lambda *args: built))
    assert verify_construction(name, params) == {
        "name": name, "params": params, "ok": False, "witness": witness}


def test_layer_antichain_degenerate_small_n():
    assert top_layer_antichain(1).sets() == ((1,),)
    assert brute_count("I_self", top_layer_antichain(2)) == eval_formula(
        "example52", n=2)
