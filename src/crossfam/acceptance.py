"""The acceptance suite: every release gate as an executable criterion.

Each criterion returns a CriterionResult; run_all executes them in order.
Seeds are fixed here so reruns are bit-for-bit reproducible.  The cited
classical bounds are checked inside their own hypotheses (EKR and the
product bound need n >= 2k, the non-trivial bound needs n > 2k, and the
matching bound |F| <= nu(F) C(n-1, k-1) needs n >= k(nu + 1); outside that
regime the complete k-graph already violates it).

Criterion 12 checks the matching bound on graphs (k = 2) through its dual
rather than by listing edge sets: an edge set of K_n has no s-matching iff
its complement meets every s-matching, so the largest one has C(n, 2) - tau
edges, where tau is the covering number of the s-matchings viewed as sets
of edge positions (max_edges_without_matching).  Comparing that one number
with the bound decides every edge set at once.

Where a check is closed under relabeling it runs on one case per class.
Criterion 5 checks nu <= 4 at (k, n) = (3, 10) on (T(G), G) for one G in
each of the 16 relabeling classes of families of 1 to 3 k-sets
(``small_family_classes``): those pairs are all the seeded sampler can
draw there.  Criterion 12 checks EKR and Hilton-Milner on every maximal
intersecting family holding {1..k} (``rooted_maximal_t_intersecting``),
at k = 2, n <= 7 and at (3, 10), where it finds both bounds attained.
Only its pyber and emc checks at (3, 10) stay seeded draws.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial, reduce
from math import comb
from operator import and_

from .branching import run_branching_cross, run_branching_t, smallest_branching_level
from .constructions import (
    four_core_pair,
    four_star_pair,
    star,
    triangle_family,
    window_family,
)
from .families import (
    DomainError,
    Family,
    GroundSet,
    distinct_intersections,
    full_layer,
    shade,
    wedge,
)
from .formulas import check_inequality, eval_formula, inequality_grid
from .search import (
    SearchProblem,
    all_saturated_pairs,
    are_isomorphic,
    brute_count,
    maximize,
    randomized_check,
    realized_corank1_layer,
    rooted_maximal_t_intersecting,
    sample_saturated_pair,
    sample_saturated_t_family,
    small_family_classes,
    _trial_rng,
)
from .transversals import (
    basis_pair,
    basis_t,
    has_matching_of_size,
    layer_context,
    matching_number,
    max_edges_without_matching,
)

SEED = 21057


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


# formula id -> (the brute count of the construction it is the closed form
# of, that count's label, the cells checked in order)
_AGREEMENT = {
    "I_A1A2_15": (lambda n, k: brute_count("I_pair", *four_star_pair(n, k)), "|I(A1,A2)|",
                  [{"n": n, "k": k} for k in range(2, 6) for n in range(max(6, 2 * k), 13)]),
    "I_Ankt_17": (lambda n, k, t: brute_count("I_self", window_family(n, k, t)),
                  "|I(A(n,k,t))|",
                  [{"n": n, "k": k, "t": t} for t in (1, 2, 3) for k in range(t + 1, 6)
                   for n in range(2 * k - t + 1, 13)]),
    "I_A3_case31": (lambda n, k: brute_count("I_self", triangle_family(n, k)), "|I(A3)|",
                    [{"n": n, "k": k} for k in (2, 3, 4) for n in range(2 * k, 13)]),
}


def _formula_agreement(fid: str) -> tuple[bool, str]:
    count, label, cells = _AGREEMENT[fid]
    for cell in cells:
        if count(**cell) != eval_formula(fid, **cell):
            return False, "mismatch at " + " ".join(f"{p}={v}" for p, v in cell.items())
    return True, f"brute {label} = closed form on {len(cells)} ({','.join(cells[0])}) cells"


def _c04_wedge_formulas() -> tuple[bool, str]:
    cases = 0
    for k in range(1, 6):
        for n in range(max(k, 2 * k - 1), 13):
            s1 = star(n, k, [1])
            if brute_count("wedge", s1, s1) != eval_formula("wedge_star_13", n=n, k=k):
                return False, f"wedge mismatch at n={n} k={k}"
            cases += 1
    for k in range(1, 5):
        for n in range(max(2, 2 * k - 1), 13):
            s1, s2 = star(n, k, [1]), star(n, k, [2])
            got = len(wedge(s1, s1).union(wedge(s2, s2)))
            if got != eval_formula("lemma22_rhs", n=n, k=k):
                return False, f"two-star union mismatch at n={n} k={k}"
            cases += 1
    return True, f"star wedge and two-star union match closed forms on {cases} cells"


def _c05_corank_matching() -> tuple[bool, str]:
    # every saturated pair at k = 2 (the check lists them).  At (3, 10) every pair
    # the seeded sampler can draw, (T(G), G) with 1 <= |G| <= 3, for one G per
    # relabeling class: nu is invariant under relabeling
    listed = 0
    for n in range(6, 11):
        rep = randomized_check("prop21_nu_le4", {"n": n, "k": 2}, trials=1, seed=SEED)
        if not rep.passed:
            return False, f"nu > 4 at (k,n)=(2,{n}): {rep.first_counterexample}"
        if not rep.exhaustive:
            return False, f"saturated pairs at (k,n)=(2,{n}) were sampled, not listed"
        listed += rep.trials
    ctx = layer_context(10, 3)
    classes = small_family_classes(10, 3, 3)
    for g in classes:
        fb, gb = ctx.closure(ctx.bits_of(g))
        if has_matching_of_size(realized_corank1_layer(ctx, fb, gb), 5):
            return False, f"nu > 4 at (k,n)=(3,10) on (T(G), G), G = {ctx.family_of(gb).sets()}"
    for k, n in ((2, 8), (3, 10)):
        f, g = four_core_pair(n, k)
        layer = distinct_intersections(f, g).layer(k - 1)
        if matching_number(layer) != 4:
            return False, f"tightness pair misses nu = 4 at (k,n)=({k},{n})"
    return True, (f"nu <= 4 on all {listed} saturated pairs at k=2, n=6..10, and on "
                  f"(T(G), G) for G in all {len(classes)} relabeling classes of 1 <= |G| <= 3 "
                  f"at (k,n)=(3,10), every pair the sampler draws there; "
                  f"tightness pair attains nu = 4")


def _admitted(draw, t: int, count: int) -> list:
    """The first `count` admissible draws of draw(0), draw(1), ..., draw(100 count - 1),
    each as (bases, k, r).

    draw(i) gives (bases, k); it is admissible when its driving basis,
    bases[0], has no set smaller than t + 1 and a smallest branching level r.
    A basis that cannot be formed raises, and so fails the criterion.
    """
    out = []
    for i in range(100 * count):
        if len(out) == count:
            break
        bases, k = draw(i)
        if min(m.bit_count() for m in bases[0].members) > t:
            r = smallest_branching_level(bases[0], t)
            if r is not None:
                out.append((bases, k, r))
    return out


def _cross_draw(i: int):
    n, k = ((7, 2), (8, 3))[i % 2]
    return basis_pair(*sample_saturated_pair(n, k, _trial_rng(SEED + 1, i))), k


def _t_draw(t: int, i: int):
    return (basis_t(sample_saturated_t_family(8, 3, t, _trial_rng(SEED + 2 + t, i)), t),), 3


def _c06_branching() -> tuple[bool, str]:
    cross_inputs = _admitted(_cross_draw, 1, 50)
    if len(cross_inputs) < 50:
        return False, f"only {len(cross_inputs)} admissible cross pairs generated"
    # the runners raise VerificationError unless weight 1, coverage and sum <= 1 hold
    for (b1, b2), k, r in cross_inputs:
        run_branching_cross(b1, b2, k=k, r=r)
    runs_t = 0
    for t in (1, 2):
        inputs = _admitted(partial(_t_draw, t), t, 50)
        if len(inputs) < 50:
            return False, f"only {len(inputs)} admissible t={t} bases generated"
        for (b,), k, r in inputs:
            run_branching_t(b, t=t, k=k, r=r)
            runs_t += 1
    return True, f"weight 1, coverage, and sum <= 1 on 50 cross runs and {runs_t} t runs"


def _c07_inequality_grid() -> tuple[bool, str]:
    rep = inequality_grid(200, 20)
    if not rep["all_passed"]:
        return False, f"grid failures: {rep['failures'][:3]}"
    # spot-check raw 5-parameter tuples against the reduced sweep
    rng = random.Random(f"{SEED}:grid")
    for _ in range(20_000):
        k = rng.randint(2, 20)
        n = rng.randint(2 * k + 2, 200)
        p = rng.randint(1, n - 2 * k - 1)
        l = rng.randint(1, k - 1)
        t = rng.randint(1, k - 1)
        if not check_inequality("ineq_1_8", n=n, k=k, l=l, t=t, p=p):
            return False, f"raw spot check failed at n={n} k={k} l={l} t={t} p={p}"
    return True, (f"{rep['total_checked']} grid checks pass "
                  f"(+2x10^4 raw spot samples)")


def _c08_cross_sperner_even() -> tuple[bool, str]:
    for n in (2, 4):
        res = maximize(SearchProblem("max_I_cross_sperner", n=n))
        want = eval_formula("m_even_55", n=n)
        if not res.exhaustive or res.value != want:
            return False, f"m({n}) = {res.value} (exhaustive={res.exhaustive}), want {want}"
    return True, "m(2) = 1 and m(4) = 9, both exhaustive"


def _c09_cross_sperner_odd_probe() -> tuple[bool, str]:
    res = maximize(SearchProblem("max_I_cross_sperner", n=3))
    conj = eval_formula("m_odd_conjecture", n=3)
    if not res.exhaustive:
        return False, "m(3) search did not certify exhaustiveness"
    agree = "matches" if res.value == conj else "differs from"
    return True, f"m(3) = {res.value} exhaustively; {agree} the conjectured value {conj}"


def _c10_shade_and_antichains() -> tuple[bool, str]:
    cases = 0
    for n in range(1, 6):
        ground = GroundSet(n)
        for a in range(0, (n + 1) // 2):
            layer = full_layer(ground, a).members
            for bits in range(1 << len(layer)):
                fam = Family.from_masks(
                    (layer[i] for i in range(len(layer)) if bits >> i & 1),
                    ground, a)
                if len(shade(fam)) < len(fam):
                    return False, f"shade shrank a family at n={n} a={a}"
                cases += 1
    rep = randomized_check("prop53_antichain", {"n": 4}, trials=1, seed=SEED)
    if not (rep.passed and rep.exhaustive):
        return False, f"antichain bound failed: {rep.first_counterexample}"
    return True, (f"shade never shrinks on {cases} families; "
                  f"(2^n - |I(A)|)^2 > 2^n on all {rep.trials} antichains of 2^[4]")


def _c11_small_space_optima() -> tuple[bool, str]:
    for n in (4, 5, 6):
        res = maximize(SearchProblem("max_I_cross", n=n, k=2))
        want = eval_formula("I_A1A2_15", n=n, k=2)
        if not res.exhaustive or res.value != want:
            return False, f"max |I| at n={n} k=2 is {res.value}, want {want}"
    res = maximize(SearchProblem("max_I_t_intersecting", n=6, k=2, t=1))
    triangle = triangle_family(6, 2)
    if res.value != 3 or not res.exhaustive:
        return False, f"t-intersecting maximum {res.value} != 3"
    if not are_isomorphic(res.witness, triangle):
        return False, "t-intersecting witness is not isomorphic to the triangle"
    return True, "max |I| = 4 for n in {4,5,6} at k=2; t=1 maximum 3 with triangle witness"


def _ekr_hm(n: int, k: int):
    """EKR, and HM at n > 2k, on the maximal intersecting k-uniform families on [n] holding {1..k}.

    Returns a failure or None, the number of families, and for each bound its
    name, its value and the largest family it speaks of: any family for EKR,
    a non-trivial one (common meet 0) for HM.  Both bounds are invariant under
    relabeling, and every maximal family relabels to one of these, so they
    decide both bounds for every intersecting family: each lies in a maximal
    one, which is no smaller, and whose common meet lies in the family's, so
    it is non-trivial when the family is.
    """
    count = largest = largest_nontrivial = 0
    for ms in rooted_maximal_t_intersecting(n, k, 1):
        count += 1
        largest = max(largest, len(ms))
        if not reduce(and_, ms):
            largest_nontrivial = max(largest_nontrivial, len(ms))
    tops = [("EKR", eval_formula("ekr_bound", n=n, k=k), largest)]
    if n > 2 * k:
        tops.append(("HM", eval_formula("hm_bound", n=n, k=k), largest_nontrivial))
    for name, bound, top in tops:
        if top > bound:
            return f"{name} fails at (k,n)=({k},{n}): {top} sets", count, tops
    return None, count, tops


def _c12_cited_bounds() -> tuple[bool, str]:
    # exhaustive at k = 2 for 2k <= n <= 7, each bound inside its hypotheses
    for n in range(4, 8):
        failure = _ekr_hm(n, 2)[0]
        if failure:
            return False, failure
        _, pairs = all_saturated_pairs(n, 2)
        bound = comb(n - 1, 1) ** 2
        for fb, gb in pairs:
            if fb and gb and fb.bit_count() * gb.bit_count() > bound:
                return False, f"product bound fails at n={n}"
        # matching bound |F| <= nu(F) (n-1), regime n >= 2(nu+1): nu = 1 is
        # EKR above, and for nu* = the largest nu in the regime (nu* <= 2 at
        # n <= 7) it suffices that every edge set with no (nu*+1)-matching
        # has at most nu* (n-1) edges.  The largest such set is the
        # complement of a minimum cover of the (nu*+1)-matchings of K_n.
        nu_star = n // 2 - 1
        if max_edges_without_matching(n, nu_star + 1) > nu_star * (n - 1):
            return False, f"matching bound fails at n={n}"
    failure, count, tops = _ekr_hm(10, 3)
    if failure:
        return False, failure
    attained = [f"{name} {bound} " + ("attained" if top == bound else f"not attained (max {top})")
                for name, bound, top in tops]
    # seeded draws at (3, 10); every pyber draw is (T(G), G) with |G| <= 3, so
    # |F| |G| <= 3 C(10, 3) = 360 < C(9, 2)^2
    for prop in ("pyber", "emc"):
        rep = randomized_check(prop, {"n": 10, "k": 3}, trials=1000, seed=SEED + 13)
        if not rep.passed:
            return False, f"{prop} fails at (3,10): {rep.first_counterexample}"
    return True, (f"EKR/HM hold on every maximal intersecting family up to relabeling at "
                  f"k=2, n<=7 and on all {count} holding {{1,2,3}} at (k,n)=(3,10) "
                  f"({' and '.join(attained)}); product/matching bounds hold exhaustively at "
                  f"k=2, n<=7; pyber and emc on 10^3 random (3,10) draws, where pyber's pairs, "
                  f"all (T(G), G) with |G| <= 3, cannot reach C(9,2)^2")


CRITERIA = (
    *((f"formula agreement for {label}", partial(_formula_agreement, fid))
      for fid, (_, label, _) in _AGREEMENT.items()),
    ("star wedge and two-star union counts", _c04_wedge_formulas),
    ("nu <= 4 on the corank-1 layer, with tight example", _c05_corank_matching),
    ("branching conservation, coverage, level inequality", _c06_branching),
    ("four-inequality grid n <= 200, k <= 20", _c07_inequality_grid),
    ("cross-Sperner maxima at even n", _c08_cross_sperner_even),
    ("cross-Sperner probe at n = 3 (open case)", _c09_cross_sperner_odd_probe),
    ("shade growth and antichain intersection bound", _c10_shade_and_antichains),
    ("small-space optima match the constructions", _c11_small_space_optima),
    ("cited classical bounds within their regimes", _c12_cited_bounds),
)


def _require_index(index: int) -> None:
    if not 1 <= index <= len(CRITERIA):
        raise DomainError(f"criteria are numbered 1..{len(CRITERIA)}, got {index}")


def run_criterion(index: int) -> CriterionResult:
    _require_index(index)
    name, fn = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # surface, do not hide, unexpected breakage
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail, time.perf_counter() - t0)


def run_all(indices=None) -> list[CriterionResult]:
    """Run the criteria in `indices` (default: all), after checking every index."""
    todo = list(indices) if indices is not None else range(1, len(CRITERIA) + 1)
    if not todo:
        raise DomainError(f"no criterion selected; criteria are numbered 1..{len(CRITERIA)}")
    for i in todo:
        _require_index(i)
    return [run_criterion(i) for i in todo]
