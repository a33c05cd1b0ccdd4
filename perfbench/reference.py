"""Reference results and output checks that share no code with crossfam.

The saturation and basis references restate the definitions directly on
bitmasks: a saturated pair alternates "every k-set meeting all of the other
side" until nothing changes, saturate_t sweeps the k-sets in ascending mask
order, a basis is the minimal sets among the transversals of size <= k, and
the smallest branching level is the first size a at which the members of
size <= a have fewer than t common elements (equivalently tau_t >= t + 1).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations


def _layer(n: int, k: int) -> list[int]:
    return sorted(sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), k))


def _transversal_basis(n: int, k: int, fam: list[int], t: int) -> list[int]:
    """Minimal sets among all T with t <= |T| <= k meeting every member in >= t."""
    found: list[int] = []
    for size in range(t, k + 1):
        for tm in _layer(n, size):
            if any(b & tm == b for b in found):
                continue
            if all((tm & m).bit_count() >= t for m in fam):
                found.append(tm)
    return sorted(found)


def _level(basis: list[int], t: int) -> int | None:
    sizes = sorted({m.bit_count() for m in basis})
    for a in range(sizes[0], sizes[-1] + 1):
        sub = [m for m in basis if m.bit_count() <= a]
        common = -1
        for m in sub:
            common &= m
        if sub and common.bit_count() < t:
            return a
    return None


def ref_pair_bases(n: int, k: int, f: list[int], g: list[int]) -> dict:
    layer = _layer(n, k)
    while True:
        nf = [m for m in layer if all(m & x for x in g)]
        ng = [m for m in layer if all(m & x for x in nf)]
        if nf == f and ng == g:
            break
        f, g = nf, ng
    b1, b2 = _transversal_basis(n, k, g, 1), _transversal_basis(n, k, f, 1)
    r = _level(b1, 1)
    return {"bases": [b1, b2], "r": r,
            "admissible": r is not None and min(m.bit_count() for m in b1) >= 2}


def ref_t_basis(n: int, k: int, f: list[int], t: int) -> dict:
    members = list(f)
    for h in _layer(n, k):
        if h not in members and all((h & m).bit_count() >= t for m in members):
            members.append(h)
    b = _transversal_basis(n, k, members, t)
    r = _level(b, t)
    return {"bases": [b], "r": r,
            "admissible": r is not None and min(m.bit_count() for m in b) >= t + 1}


_VOLATILE = re.compile(r'"(?:timestamp|seconds)": (?:"[^"]*"|[0-9.eE+-]+)')


def normalize(text: str) -> str:
    """A report without the fields that legitimately change between runs."""
    return _VOLATILE.sub("", text)


def _frac(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def _sets(rows, n: int, k: int | None) -> list[int]:
    masks = []
    for row in rows:
        if k is not None and len(row) != k:
            raise AssertionError(f"witness set {row} is not a {k}-set")
        if len(set(row)) != len(row) or not all(1 <= e <= n for e in row):
            raise AssertionError(f"witness set {row} is not a subset of [{n}]")
        masks.append(sum(1 << (e - 1) for e in row))
    return masks


def check_op(op: dict, text: str, op_result: dict) -> str | None:
    """None if the operation's output is correct, else the reason it is not."""
    check = op["check"]
    try:
        if check["type"] == "bases":
            return _check_bases(check, text, op_result)
        report = json.loads(text)
        result = report["result"]
        if check["type"] == "gate":
            rows = [(row["criterion"], row["passed"]) for row in result]
            if rows != [(check["criterion"], True)]:
                return f"criterion {check['criterion']} did not pass: {result}"
            return None
        if check["type"] == "search":
            return _check_search(check, result)
        if check["type"] == "branch":
            return _check_branch(check, result)
    except (AssertionError, KeyError, ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"unknown check {check['type']!r}"


def _check_bases(check: dict, text: str, op_result: dict) -> str | None:
    want = "".join(check["bases"])
    got = re.sub(r"^(n=\d+) k=\S+$", r"\1 k=*", text, flags=re.M)
    if got != want:
        return "bases differ from the reference"
    if op_result.get("r") != check["r"]:
        return f"smallest branching level {op_result.get('r')} != reference {check['r']}"
    return None


def _check_search(check: dict, result: dict) -> str | None:
    # imported here so that the parent alone, after the timed passes, uses the
    # package's independent oracle and predicates
    from crossfam.families import Family, GroundSet, is_antichain, is_cross_intersecting
    from crossfam.families import is_cross_sperner, is_t_intersecting
    from crossfam.search import brute_count

    objective, n, k = check["objective"], check["n"], check["k"]
    value = int(result["value"])
    exhaustive = check["value"] is not None
    if result["exhaustive"] is not exhaustive:
        return f"exhaustive flag is {result['exhaustive']}, want {exhaustive}"
    if exhaustive and value != check["value"]:
        return f"value {value} != {check['value']} ({check['source']})"
    ground = GroundSet(n)
    w = result["witness"]
    if objective in ("I_cross", "wedge_cross", "cross_sperner"):
        kk = k if objective != "cross_sperner" else None
        f = Family.from_masks(_sets(w[0], n, kk), ground)
        g = Family.from_masks(_sets(w[1], n, kk), ground)
        if objective == "cross_sperner":
            ok = is_cross_sperner(f, g) and brute_count("wedge", f, g) == value
        else:
            kind = "I_pair" if objective == "I_cross" else "wedge"
            ok = is_cross_intersecting(f, g) and brute_count(kind, f, g) == value
    else:
        f = Family.from_masks(_sets(w, n, k), ground)
        if objective == "I_t_intersecting":
            ok = is_t_intersecting(f, check["t"])
        else:
            ok = is_antichain(f)
        ok = ok and brute_count("I_self", f) == value
    return None if ok else f"witness does not realise value {value} for {objective}"


def _check_branch(check: dict, result: dict) -> str | None:
    survivors = result["survivors"]
    if result["total_weight"] != "1/1":
        return f"total_weight {result['total_weight']} != 1"
    if sum((_frac(s["weight"]) for s in survivors), Fraction(0)) != 1:
        return "survivor weights do not sum to exactly 1"
    if result["coverage_ok"] is not True:
        return "coverage_ok is false"
    if _frac(result["inequality_lhs"]) > 1:
        return f"inequality_lhs {result['inequality_lhs']} > 1"
    if check["survivors"] is not None and len(survivors) != check["survivors"]:
        return f"{len(survivors)} survivors, want {check['survivors']}"
    return None
