import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.families import DomainError
from crossfam.formulas import (
    binomial,
    check_inequality,
    eval_formula,
    f_monotone_check,
    inequality_grid,
    partial_sum,
)
from crossfam.constructions import (
    four_star_pair,
    split_cross_sperner_pair,
    top_layer_antichain,
    window_family,
)
from crossfam.search import brute_count

import oracle_utils as oracle


def test_binomial_conventions():
    assert eval_formula("binom", n=5, k=2) == 10
    assert binomial(5, -1) == 0
    assert binomial(5, 7) == 0
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_partial_sum_empty_convention():
    assert partial_sum(10, -1) == 0
    assert partial_sum(-3, -1) == 0  # empty sum wins over a negative top
    assert partial_sum(4, 10) == 16


def test_i_a1a2_examples():
    # derived independently: 4*S(3,1) + 6*S(3,0) + 2*S(1,0) = 16 + 6 + 2
    assert eval_formula("I_A1A2_15", n=7, k=3) == 24
    a1 = oracle.union_families(oracle.star_sets(7, 3, [1, 2]),
                               oracle.star_sets(7, 3, [3, 4]),
                               oracle.star_sets(7, 3, [1, 4, 5]),
                               oracle.star_sets(7, 3, [2, 3, 6]))
    a2 = oracle.union_families(oracle.star_sets(7, 3, [1, 3]),
                               oracle.star_sets(7, 3, [2, 4]),
                               oracle.star_sets(7, 3, [1, 4, 6]),
                               oracle.star_sets(7, 3, [2, 3, 5]))
    assert len(oracle.distinct_sets(a1, a2)) == 24


def test_i_a1a2_degenerate_k2():
    for n in range(4, 13):
        assert eval_formula("I_A1A2_15", n=n, k=2) == 4


def test_wedge_star_and_ankt_examples():
    assert eval_formula("wedge_star_13", n=4, k=2) == 4
    assert eval_formula("I_Ankt_17", n=5, k=2, t=1) == 3
    assert eval_formula("m_even_55", n=4) == 9
    assert eval_formula("m_even_55", n=2) == 1


def test_example52_matches_enumeration():
    for n in range(1, 11):
        fam = top_layer_antichain(n)
        assert eval_formula("example52", n=n) == brute_count("I_self", fam)


def test_m_odd_conjecture_value():
    assert eval_formula("m_odd_conjecture", n=3) == 3


def test_lemma33_and_cor34_values():
    # plain arithmetic: 2*C(9,2) + 9*C(9,1) + S(10,1)
    assert eval_formula("lemma33_rhs", n=10, k=4) == 2 * 36 + 9 * 9 + 11
    assert eval_formula("cor34_rhs", n=10, k=4) == 2 * (1 + 9 + 36) + 28 + 9 * 8


def test_bound_formulas():
    assert eval_formula("ekr_bound", n=10, k=3) == 36
    assert eval_formula("hm_bound", n=10, k=3) == 36 - 15 + 1
    assert eval_formula("pyber_bound", n=10, k=3) == 36 ** 2
    assert eval_formula("emc_bound", n=10, k=3, nu=4) == 4 * 36
    assert eval_formula("I_star_t", n=8, k=3, t=1) == 1 + 7


def test_formula_param_validation():
    with pytest.raises(DomainError):
        eval_formula("I_A1A2_15", n=5, k=3)
    with pytest.raises(DomainError):
        eval_formula("I_Ankt_17", n=8, k=3)
    with pytest.raises(DomainError):
        eval_formula("m_even_55", n=5)
    with pytest.raises(DomainError):
        eval_formula("no_such_formula", n=1)
    with pytest.raises(DomainError):
        eval_formula("binom", n="5", k=2)


def test_formula_agreement_with_oracle_small_grid():
    for k in (2, 3):
        for n in range(6, 10):
            a1, a2 = four_star_pair(n, k)
            assert brute_count("I_pair", a1, a2) == eval_formula(
                "I_A1A2_15", n=n, k=k)
    for t in (1, 2):
        for k in range(t + 1, 4):
            for n in range(2 * k - t + 1, 10):
                fam = window_family(n, k, t)
                assert brute_count("I_self", fam) == eval_formula(
                    "I_Ankt_17", n=n, k=k, t=t)
    # the split pair of [n] = X u Y has no closed form in the catalogue
    for n in range(2, 11):
        for x in range(1, n):
            a, b = split_cross_sperner_pair(n, range(1, x + 1))
            assert brute_count("I_pair", a, b) == 2 ** n - 2 ** x - 2 ** (n - x) + 1


def test_inequality_examples():
    assert check_inequality("ineq_1_7", n=20, k=4, p=2)
    # hand value: 2t+2 = 4 times (C(2,1)+C(2,2)) = 12 >= 3 + 3 + 1 = 7
    assert check_inequality("ineq_1_10", l=2, t=1)
    assert check_inequality("ineq_1_8", n=20, k=4, l=2, t=1, p=3)
    assert check_inequality("ineq_1_9", n=20, k=4, l=2, t=2)
    with pytest.raises(DomainError):
        check_inequality("ineq_1_7", n=10, k=4, p=2)
    with pytest.raises(DomainError):
        check_inequality("ineq_1_10", l=1, t=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(2, 8), st.integers(1, 8),
       st.integers(1, 8), st.integers(1, 8))
def test_inequalities_hold_on_random_valid_tuples(n, k, l, t, p):
    if not (k > l and k > t and n > 2 * k + p):
        return
    assert check_inequality("ineq_1_7", n=n, k=k, p=p)
    assert check_inequality("ineq_1_8", n=n, k=k, l=l, t=t, p=p)
    assert check_inequality("ineq_1_9", n=n, k=k, l=l, t=t)
    if l >= t + 1:
        assert check_inequality("ineq_1_10", l=l, t=t)


def test_inequality_domain_messages():
    with pytest.raises(DomainError,
                       match=r"^need positive n,k,p with n > 2k\+p; got n=10 k=4 p=2$"):
        check_inequality("ineq_1_7", n=10, k=4, p=2)
    with pytest.raises(DomainError, match=r"^need t >= 1, l >= t\+1; got l=1 t=1$"):
        check_inequality("ineq_1_10", l=1, t=1)
    with pytest.raises(DomainError, match="missing parameter 'p'"):
        check_inequality("ineq_1_8", n=20, k=4, l=2, t=1)
    with pytest.raises(DomainError, match="must be an integer"):
        check_inequality("ineq_1_9", n=20, k=4, l=2, t=True)
    with pytest.raises(DomainError, match="unknown inequality id"):
        check_inequality("ineq_9_9", n=20)


def test_grid_checked_counts_pinned():
    rep = inequality_grid(200, 20)
    assert rep["all_passed"] and rep["mode"] == "reduced"
    assert rep["checked"] == {"ineq_1_7": 319950, "ineq_1_8": 329574,
                              "ineq_1_9": 34770, "ineq_1_10": 171}
    assert rep["total_checked"] == 684465


def test_grid_asserts_domain_per_tuple(monkeypatch):
    # a sweep that generated an inadmissible tuple must raise, not pass
    from crossfam import formulas

    names, _, statement, kernel = formulas._INEQUALITIES["ineq_1_10"]
    monkeypatch.setitem(formulas._INEQUALITIES, "ineq_1_10",
                        (names, lambda l, t: l < 5, statement, kernel))
    with pytest.raises(DomainError, match=r"got l=5 t=1$"):
        inequality_grid(36, 12)


def test_grid_reduced_matches_raw_small():
    raw = inequality_grid(36, 12, mode="raw")
    red = inequality_grid(36, 12, mode="reduced")
    assert raw["all_passed"] and red["all_passed"]
    # same verdict, same sweep for the ids that are not reduced
    assert raw["checked"]["ineq_1_7"] == red["checked"]["ineq_1_7"]
    assert raw["checked"]["ineq_1_10"] == red["checked"]["ineq_1_10"]


def test_f_monotone_checks():
    k = 3
    assert f_monotone_check("cross", n=5 * k * k, k=k)
    assert f_monotone_check("cross", n=2 * k + 1, k=2)  # single l: trivially true
    t, k = 2, 4
    n = -(-4 * (t + 2) ** 2 * k * k // 3)
    assert f_monotone_check("t", n=n, k=k, t=t)
    # below the threshold there is no claim either way; the check only reports
    assert f_monotone_check("cross", n=7, k=3) in (True, False)
    with pytest.raises(DomainError):
        f_monotone_check("t", n=20, k=3)


def test_f_values_are_exact_integers():
    assert isinstance(eval_formula("f_cross", n=45, k=3, l=2), int)
    assert isinstance(eval_formula("f_t", n=100, k=4, t=2, l=3), int)


def test_mixed_rank_bound_dominates_enumeration():
    # k-sets through 1 against (k-1)-sets through 1 are cross-intersecting
    from crossfam.families import Family, GroundSet, full_layer

    for n, k in ((8, 3), (9, 4)):
        ground = GroundSet(n)
        f = Family.from_masks(
            (m for m in full_layer(ground, k).members if m & 1), ground, k)
        g = Family.from_masks(
            (m for m in full_layer(ground, k - 1).members if m & 1), ground, k - 1)
        got = brute_count("I_pair", f, g)
        assert got <= eval_formula("lemma33_rhs", n=n, k=k)


def test_star_partner_bound_dominates_enumeration():
    # when one side is a star, the distinct-intersection count stays under
    # the mixed closed-form bound
    from crossfam.constructions import star
    from crossfam.transversals import saturate_pair

    for n, k in ((8, 3), (10, 3)):
        s1 = star(n, k, [1])
        f, g = saturate_pair(s1, s1)
        got = brute_count("I_pair", f, g)
        assert got <= eval_formula("cor34_rhs", n=n, k=k)


# one inadmissible tuple per formula with a domain check (both checks of
# I_A1A2_15), then a missing, a non-integer and an unknown-id case
DOMAIN_MESSAGES = [
    ('binom', {'n': -1, 'k': 0},
     'binomial needs n >= 0, got n=-1'),
    ('partial_sum', {'n': -2, 'k': 1},
     'partial_sum needs n >= 0 for a nonempty sum, got n=-2'),
    ('wedge_star_13', {'n': 3, 'k': 4},
     'need 1 <= k <= n, got n=3 k=4'),
    ('I_A1A2_15', {'n': 7, 'k': 1},
     'need k >= 2, got k=1'),
    ('I_A1A2_15', {'n': 5, 'k': 3},
     'need n >= 6 at k=3, got n=5'),
    ('I_A1A2_15', {'n': 3, 'k': 2},
     'need n >= 4 at k=2, got n=3'),
    ('I_Ankt_17', {'n': 8, 'k': 3, 't': 3},
     'need t >= 1, k > t, n >= max(k, t+2); got n=8 k=3 t=3'),
    ('I_A3_case31', {'n': 8, 'k': 1},
     'need k >= 2, n >= max(k, 3); got n=8 k=1'),
    ('lemma22_rhs', {'n': 1, 'k': 1},
     'need k >= 1, n >= 2; got n=1 k=1'),
    ('lemma33_rhs', {'n': 0, 'k': 1},
     'need k >= 1, n >= 1; got n=0 k=1'),
    ('cor34_rhs', {'n': 5, 'k': 0},
     'need k >= 1, n >= 2; got n=5 k=0'),
    ('ekr_bound', {'n': 5, 'k': 0},
     'need 1 <= k <= n, got n=5 k=0'),
    ('hm_bound', {'n': 6, 'k': 3},
     'need k >= 2, n > 2k; got n=6 k=3'),
    ('pyber_bound', {'n': 2, 'k': 3},
     'need 1 <= k <= n, got n=2 k=3'),
    ('emc_bound', {'n': 10, 'k': 3, 'nu': -1},
     'need 1 <= k <= n, nu >= 0; got n=10 k=3 nu=-1'),
    ('I_star_t', {'n': 8, 'k': 3, 't': 4},
     'need 1 <= t <= k <= n; got n=8 k=3 t=4'),
    ('f_cross', {'n': 8, 'k': 3, 'l': 1},
     'need 2 <= l <= k, n >= 1; got n=8 k=3 l=1'),
    ('f_t', {'n': 8, 'k': 3, 't': 2, 'l': 2},
     'need t >= 1, t+1 <= l <= k, n >= t; got n=8 k=3 t=2 l=2'),
    ('m_even_55', {'n': 5},
     'need even n >= 2, got n=5'),
    ('example52', {'n': 0},
     'need n >= 1, got n=0'),
    ('m_odd_conjecture', {'n': 4},
     'need odd n >= 1, got n=4'),
    ('I_Ankt_17', {'n': 8, 'k': 3},
     "missing parameter 't'"),
    ('binom', {'n': '5', 'k': 2},
     "parameter 'n' must be an integer, got '5'"),
    ('binom', {'n': True, 'k': 2},
     "parameter 'n' must be an integer, got True"),
    ('f_t', {'n': 8, 'k': 3, 't': None, 'l': 2},
     "missing parameter 't'"),
    ('no_such_formula', {'n': 1},
     "unknown formula id 'no_such_formula'"),
]


@pytest.mark.parametrize("fid, params, message", DOMAIN_MESSAGES)
def test_formula_domain_messages_pinned(fid, params, message):
    with pytest.raises(DomainError) as err:
        eval_formula(fid, **params)
    assert str(err.value) == message
