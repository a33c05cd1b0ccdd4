"""Exact evaluation of the closed-form counts and inequalities.

Every value is an exact Python integer (arbitrary precision); inequalities
are decided by cross-multiplied integer comparisons, never by division or
floating point.  Binomial sums with a negative upper index follow the empty
sum convention and evaluate to 0.

Formula and inequality identifiers are stable strings used verbatim by the
command line interface.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .families import DomainError

FORMULA_IDS = (
    "binom", "partial_sum", "wedge_star_13", "I_A1A2_15", "I_Ankt_17",
    "I_A3_case31", "lemma22_rhs", "lemma33_rhs", "cor34_rhs", "ekr_bound",
    "hm_bound", "pyber_bound", "emc_bound", "I_star_t", "f_cross", "f_t",
    "m_even_55", "example52", "m_odd_conjecture",
)

INEQUALITY_IDS = ("ineq_1_7", "ineq_1_8", "ineq_1_9", "ineq_1_10")


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention 0 for k < 0 or k > n; requires n >= 0."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def partial_sum(n: int, upper: int) -> int:
    """Sum of C(n, i) for 0 <= i <= upper; an empty sum is 0 whatever n is."""
    if upper < 0:
        return 0
    if n < 0:
        raise DomainError(f"partial_sum needs n >= 0 for a nonempty sum, got n={n}")
    return sum(comb(n, i) for i in range(0, min(upper, n) + 1))


def _tail_sum(n: int, lo: int, hi: int) -> int:
    """Sum of C(n, j) for lo <= j <= hi (empty when lo > hi)."""
    if lo > hi:
        return 0
    return partial_sum(n, hi) - partial_sum(n, max(lo - 1, -1))


def _need(params: dict, *names: str) -> tuple[int, ...]:
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise DomainError(f"missing parameter {name!r}")
        v = params[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"parameter {name!r} must be an integer, got {v!r}")
        out.append(v)
    return tuple(out)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def eval_formula(formula_id: str, **params: int) -> int:
    """Evaluate one of the catalogued closed forms at integer parameters."""
    fid = formula_id
    if fid == "binom":
        n, k = _need(params, "n", "k")
        return binomial(n, k)
    if fid == "partial_sum":
        n, k = _need(params, "n", "k")
        return partial_sum(n, k)
    if fid == "wedge_star_13":
        n, k = _need(params, "n", "k")
        _check(1 <= k <= n, f"need 1 <= k <= n, got n={n} k={k}")
        return partial_sum(n - 1, k - 1)
    if fid == "I_A1A2_15":
        n, k = _need(params, "n", "k")
        _check(k >= 2, f"need k >= 2, got k={k}")
        _check(n >= (6 if k >= 3 else 4), f"need n >= {6 if k >= 3 else 4} at k={k}, got n={n}")
        return (4 * partial_sum(n - 4, k - 2)
                + 6 * partial_sum(n - 4, k - 3)
                + 4 * partial_sum(n - 4, k - 4)
                + partial_sum(n - 4, k - 5)
                + 2 * partial_sum(n - 6, k - 3)
                + partial_sum(n - 6, k - 4))
    if fid == "I_Ankt_17":
        n, k, t = _need(params, "n", "k", "t")
        _check(t >= 1 and k >= t + 1 and n >= max(k, t + 2),
               f"need t >= 1, k > t, n >= max(k, t+2); got n={n} k={k} t={t}")
        return (binomial(t + 2, t) * partial_sum(n - t - 2, k - t - 1)
                + binomial(t + 2, t + 1) * partial_sum(n - t - 2, k - t - 2)
                + partial_sum(n - t - 2, k - t - 3))
    if fid == "I_A3_case31":
        n, k = _need(params, "n", "k")
        _check(k >= 2 and n >= max(k, 3), f"need k >= 2, n >= max(k, 3); got n={n} k={k}")
        return (3 * partial_sum(n - 3, k - 2)
                + 3 * partial_sum(n - 3, k - 3)
                + partial_sum(n - 3, k - 4))
    if fid == "lemma22_rhs":
        n, k = _need(params, "n", "k")
        _check(k >= 1 and n >= 2, f"need k >= 1, n >= 2; got n={n} k={k}")
        return 2 * partial_sum(n - 2, k - 1) + partial_sum(n - 2, k - 2)
    if fid == "lemma33_rhs":
        n, k = _need(params, "n", "k")
        _check(k >= 1 and n >= 1, f"need k >= 1, n >= 1; got n={n} k={k}")
        return (2 * binomial(n - 1, k - 2)
                + (2 * k + 1) * binomial(n - 1, k - 3)
                + partial_sum(n, k - 3))
    if fid == "cor34_rhs":
        n, k = _need(params, "n", "k")
        _check(k >= 1 and n >= 2, f"need k >= 1, n >= 2; got n={n} k={k}")
        return (2 * partial_sum(n - 1, k - 2)
                + binomial(n - 2, k - 2)
                + (2 * k + 1) * binomial(n - 2, k - 3))
    if fid == "ekr_bound":
        n, k = _need(params, "n", "k")
        _check(1 <= k <= n, f"need 1 <= k <= n, got n={n} k={k}")
        return binomial(n - 1, k - 1)
    if fid == "hm_bound":
        n, k = _need(params, "n", "k")
        _check(k >= 2 and n > 2 * k, f"need k >= 2, n > 2k; got n={n} k={k}")
        return binomial(n - 1, k - 1) - binomial(n - k - 1, k - 1) + 1
    if fid == "pyber_bound":
        n, k = _need(params, "n", "k")
        _check(1 <= k <= n, f"need 1 <= k <= n, got n={n} k={k}")
        return binomial(n - 1, k - 1) ** 2
    if fid == "emc_bound":
        n, k, nu = _need(params, "n", "k", "nu")
        _check(1 <= k <= n and nu >= 0, f"need 1 <= k <= n, nu >= 0; got n={n} k={k} nu={nu}")
        return nu * binomial(n - 1, k - 1)
    if fid == "I_star_t":
        n, k, t = _need(params, "n", "k", "t")
        _check(1 <= t <= k <= n, f"need 1 <= t <= k <= n; got n={n} k={k} t={t}")
        return partial_sum(n - t, k - t - 1)
    if fid == "f_cross":
        n, k, l = _need(params, "n", "k", "l")
        _check(2 <= l <= k and n >= 1, f"need 2 <= l <= k, n >= 1; got n={n} k={k} l={l}")
        return (2 ** l) * l * l * (k ** (l - 2)) * partial_sum(n - 1, k - l)
    if fid == "f_t":
        n, k, t, l = _need(params, "n", "k", "t", "l")
        _check(t >= 1 and t + 1 <= l <= k and n >= t,
               f"need t >= 1, t+1 <= l <= k, n >= t; got n={n} k={k} t={t} l={l}")
        return (_tail_sum(l, t, l) * binomial(l, t) * l * (k ** (l - t - 1))
                * partial_sum(n - t, k - l))
    if fid == "m_even_55":
        (n,) = _need(params, "n")
        _check(n >= 2 and n % 2 == 0, f"need even n >= 2, got n={n}")
        return 2 ** n - 2 * 2 ** (n // 2) + 1
    if fid == "example52":
        (n,) = _need(params, "n")
        _check(n >= 1, f"need n >= 1, got n={n}")
        ell = n // 3
        # count of sets B with n - 2*ell <= |B| < n - ell; the layer at
        # n - 2*ell is included exactly once
        return _tail_sum(n, n - 2 * ell, n - ell - 1)
    if fid == "m_odd_conjecture":
        (n,) = _need(params, "n")
        _check(n >= 1 and n % 2 == 1, f"need odd n >= 1, got n={n}")
        d = (n - 1) // 2
        return 2 ** n - 2 ** (d + 1) - 2 ** d + 1
    raise DomainError(f"unknown formula id {formula_id!r}")


def _ineq_1_7(n: int, k: int, p: int) -> bool:
    return (n - p * (k + 1)) * binomial(n, k) <= (n - p) * binomial(n - p, k)


def _ineq_1_8(n: int, k: int, l: int, t: int, p: int) -> bool:
    lhs = (n - t - p * k) * partial_sum(n - t, k - l)
    rhs = (n - t - p) * partial_sum(n - t - p, k - l)
    return lhs <= rhs


def _ineq_1_9(n: int, k: int, l: int, t: int) -> bool:
    return (n - t - k) * partial_sum(n - t, k - l - 1) <= k * partial_sum(n - t, k - l)


def _ineq_1_10(l: int, t: int) -> bool:
    return (2 * t + 2) * _tail_sum(l, t, l) >= _tail_sum(l + 1, t, l + 1)


# id -> (parameter names, domain predicate, domain statement, kernel); the
# predicate and the kernel take the parameters positionally in that order
_INEQUALITIES = {
    "ineq_1_7": (
        ("n", "k", "p"),
        lambda n, k, p: n >= 1 and k >= 1 and p >= 1 and n > 2 * k + p,
        "need positive n,k,p with n > 2k+p",
        _ineq_1_7),
    "ineq_1_8": (
        ("n", "k", "l", "t", "p"),
        lambda n, k, l, t, p: k > l >= 1 and k > t >= 1 and p >= 1 and n > 2 * k + p,
        "need k > l >= 1, k > t >= 1, p >= 1, n > 2k+p",
        _ineq_1_8),
    "ineq_1_9": (
        ("n", "k", "l", "t"),
        lambda n, k, l, t: k > l >= 1 and k > t >= 1 and n >= 2 * k + 2,
        "need k > l >= 1, k > t >= 1, n >= 2k+2",
        _ineq_1_9),
    "ineq_1_10": (
        ("l", "t"),
        lambda l, t: t >= 1 and l >= t + 1,
        "need t >= 1, l >= t+1",
        _ineq_1_10),
}


def _domain_error(iid: str, values: tuple[int, ...]) -> DomainError:
    names, _, statement, _ = _INEQUALITIES[iid]
    got = " ".join(f"{name}={v}" for name, v in zip(names, values))
    return DomainError(f"{statement}; got {got}")


def check_inequality(inequality_id: str, **params: int) -> bool:
    """Decide one of the catalogued inequalities exactly.

    All comparisons are cross-multiplied so no division ever happens; the
    multiplier that crosses sides is positive in every admissible range.
    """
    entry = _INEQUALITIES.get(inequality_id)
    if entry is None:
        raise DomainError(f"unknown inequality id {inequality_id!r}")
    names, domain, _, kernel = entry
    values = _need(params, *names)
    if not domain(*values):
        raise _domain_error(inequality_id, values)
    return kernel(*values)


def f_monotone_check(kind: str, n: int, k: int, t: int | None = None) -> bool:
    """True iff the relevant branching weight function is non-increasing in l."""
    if kind == "cross":
        values = [eval_formula("f_cross", n=n, k=k, l=l) for l in range(2, k + 1)]
    elif kind == "t":
        if t is None:
            raise DomainError("kind 't' needs a t parameter")
        values = [eval_formula("f_t", n=n, k=k, t=t, l=l) for l in range(t + 1, k + 1)]
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return all(a >= b for a, b in zip(values, values[1:]))


def inequality_grid(n_max: int = 200, k_max: int = 20, mode: str = "auto") -> dict:
    """Check all four inequalities over every admissible parameter tuple.

    The admissible grid is n <= n_max, k <= k_max, 1 <= l < k, 1 <= t < k,
    p >= 1 with n > 2k + p.  ineq_1_7 and ineq_1_10 are checked tuple by
    tuple.  ineq_1_8 and ineq_1_9 depend on (n, t) only through a = n - t,
    which deduplicates the sweep; for ineq_1_8 the left coefficient
    (a - p*k) is decreasing in k while the right side does not involve k,
    so for fixed (a, k - l, p) the smallest admissible k dominates all
    larger ones.  mode="raw" forces the direct 5-parameter sweep of
    ineq_1_8 (used to cross-validate the reduction at small sizes).

    Each tuple's domain predicate and kernel are taken straight from the
    inequality table and called positionally; check_inequality's per-call
    keyword validation is skipped because the sweeps only generate integers.
    """
    if mode not in ("auto", "raw", "reduced"):
        raise DomainError(f"unknown grid mode {mode!r}")
    if n_max < 1 or k_max < 1:
        raise DomainError(f"the grid needs n_max >= 1 and k_max >= 1, got {n_max}, {k_max}")
    use_raw = mode == "raw" or (mode == "auto" and n_max <= 60)
    checked = {iid: 0 for iid in INEQUALITY_IDS}
    failures: list[tuple] = []

    def run(iid: str, *values: int) -> None:
        # the domain predicate is still asserted per tuple, so a grid bug
        # raises instead of feeding the kernel an inadmissible tuple
        names, domain, _, kernel = _INEQUALITIES[iid]
        if not domain(*values):
            raise _domain_error(iid, values)
        checked[iid] += 1
        if not kernel(*values):
            failures.append((iid, tuple(sorted(zip(names, values)))))

    for k in range(1, k_max + 1):
        for n in range(2 * k + 2, n_max + 1):
            for p in range(1, n - 2 * k):
                run("ineq_1_7", n, k, p)

    if use_raw:
        for k in range(2, k_max + 1):
            for n in range(2 * k + 2, n_max + 1):
                for p in range(1, n - 2 * k):
                    for l in range(1, k):
                        for t in range(1, k):
                            run("ineq_1_8", n, k, l, t, p)
    else:
        # reduced cover: j = k - l, a = n - t; check at the smallest valid k
        for j in range(1, k_max):
            k = j + 1
            if 2 * k + 2 > n_max:
                break
            for a in range(k + 3, n_max):
                # p must leave room for a witness n = max(a+1, 2k+p+1) <= n_max
                for p in range(1, min(a - k - 1, n_max - 2 * k)):
                    t = max(1, 2 * k + p - a + 1)
                    run("ineq_1_8", a + t, k, k - j, t, p)

    for k in range(2, k_max + 1):
        if 2 * k + 2 > n_max:
            break
        # a = n - t ranges over [k+3, n_max-1]; the check only sees (a, j, k)
        for a in range(k + 3, n_max):
            t = max(1, 2 * k + 2 - a)
            if a + t > n_max:
                continue
            for j in range(1, k):
                run("ineq_1_9", a + t, k, k - j, t)

    for l in range(2, k_max):
        for t in range(1, l):
            run("ineq_1_10", l, t)

    return {
        "n_max": n_max,
        "k_max": k_max,
        "mode": "raw" if use_raw else "reduced",
        "checked": checked,
        "total_checked": sum(checked.values()),
        "failures": failures[:20],
        "all_passed": not failures,
    }
