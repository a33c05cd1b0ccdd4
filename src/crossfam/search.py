"""Brute-force oracles and exhaustive maximizers over small ground sets.

The exhaustive searches enumerate a label-complete space (every relabeling
of a candidate is itself enumerated), so the maximizer with the smallest
raw member-tuple key is automatically in canonical form: its key equals the
minimum over all ground-set permutations of any maximizer's key.  Witness
tie-breaking therefore never has to enumerate permutations.

For the cross objectives let T(X) be the k-sets meeting every member of X.
For a fixed F the best partner is T(F), and the closure T(T(F)) of F keeps
that partner while |F wedge G| and |I(F, G)| only grow.  So only closed F
are scored, each with T(F), and the witness is the smallest (F-key, G-key)
among the closed maximizers.  Relabeling maps closed sets to closed sets,
so that space is label-complete too.  At n = 2k every family is closed and
all 2^C(n,k) of them are scored.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb

from .families import (
    MAX_GROUND,
    DomainError,
    Family,
    GroundSet,
    elements_of,
)
from .transversals import LayerContext, has_matching_of_size, layer_context, sets_above, t_rows
from . import transversals

OBJECTIVES = (
    "max_wedge_cross", "max_I_cross", "max_I_t_intersecting",
    "max_I_antichain", "max_I_cross_sperner",
)

CHECK_PROPERTIES = ("prop21_nu_le4", "pyber", "emc", "hm", "prop53_antichain")

_CROSS_LAYER_CAP = 24  # at n = 2k all 2^C(n, k) families are closed


@dataclass(frozen=True)
class SearchProblem:
    objective: str
    n: int
    k: int | None = None
    t: int | None = None
    seed: int = 0
    budget: int | None = None


@dataclass
class SearchResult:
    value: int
    witness: object
    nodes_explored: int
    exhaustive: bool

    def to_json_dict(self) -> dict:
        if self.witness is None:
            w = None
        elif isinstance(self.witness, tuple):
            w = [[list(s) for s in fam.sets()] for fam in self.witness]
        else:
            w = [list(s) for s in self.witness.sets()]
        return {
            "value": str(self.value),
            "witness": w,
            "nodes": self.nodes_explored,
            "exhaustive": self.exhaustive,
        }


def _indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


# --- canonical forms (tests and reports only; see module docstring) --------

def remap_mask(mask: int, perm) -> int:
    """Apply a 1-based element permutation (perm[i] = image of i) to a mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (perm[low.bit_length()] - 1)
        mask ^= low
    return out


@lru_cache(maxsize=None)
def _all_perms(n: int):
    return tuple((0,) + p for p in permutations(range(1, n + 1)))


def canonical_family_key(masks, n: int) -> tuple[int, ...]:
    """Lexicographically minimal sorted mask tuple over all relabelings of [n].

    The relabelings are enumerated outright, so n is capped at 8 (8! = 40320).
    """
    if n > 8:
        raise DomainError(f"canonical form is only available for n <= 8, got n={n}")
    ms = tuple(masks)
    return min(tuple(sorted(remap_mask(m, p) for m in ms)) for p in _all_perms(n))


def are_isomorphic(f: Family, g: Family) -> bool:
    if f.ground != g.ground:
        return False
    return canonical_family_key(f.members, f.ground.n) == canonical_family_key(
        g.members, g.ground.n)


# --- brute-force counting oracle -------------------------------------------

def brute_count(kind: str, f: Family, g: Family | None = None) -> int:
    """Exact intersection counts by direct double-loop enumeration.

    This is the independent oracle the closed forms are compared against;
    it shares nothing with the formula evaluator.
    """
    if kind == "I_self":
        g = f
    elif g is None:
        raise DomainError(f"kind {kind!r} needs a second family")
    if f.ground != g.ground:
        raise DomainError("mismatched ground sets")
    seen = set()
    if kind == "wedge":
        for a in f.members:
            for b in g.members:
                seen.add(a & b)
    elif kind in ("I_pair", "I_self"):
        for a in f.members:
            for b in g.members:
                if a != b:
                    seen.add(a & b)
    else:
        raise DomainError(f"unknown brute_count kind {kind!r}")
    return len(seen)


# --- cross-intersecting maximizers -----------------------------------------

def _count_pair_bits(ctx: LayerContext, fb: int, gb: int, distinct: bool) -> int:
    masks = ctx.masks
    seen = set()
    for i in _indices(fb):
        mi = masks[i]
        for j in _indices(gb):
            if distinct and i == j:
                continue
            seen.add(mi & masks[j])
    return len(seen)


def _closed_sets(ctx: LayerContext):
    """Every layer bitset X = T(T(X)), T(X) = the k-sets meeting all of X.

    The closed sets are the image of T: the full layer T(0) closed under
    T(X) & adj[i] = T(X + i).  At n = 2k, T(X) is the layer minus the
    complements of X, so every X is closed.
    """
    if ctx.ground.n == 2 * ctx.k:
        return range(1 << len(ctx.masks))
    seen = {ctx.full_bits}
    stack = [ctx.full_bits]
    while stack:
        x = stack.pop()
        for a in ctx.adj:
            y = x & a
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def _maximize_cross(p: SearchProblem, distinct: bool) -> SearchResult:
    if p.k is None:
        raise DomainError("cross objectives need k")
    layer_size = comb(p.n, p.k)
    if layer_size > _CROSS_LAYER_CAP:
        raise DomainError(
            f"C({p.n},{p.k}) = {layer_size} exceeds the exhaustive cap "
            f"C(n,k) <= {_CROSS_LAYER_CAP} of {p.objective}; this objective "
            f"has no budgeted mode")
    ctx = layer_context(p.n, p.k)
    masks = ctx.masks
    best_val, best_key, nodes = -1, None, 0
    for fb in _closed_sets(ctx):
        if not fb:
            continue
        nodes += 1
        gb = ctx.meet_all(fb)
        val = _count_pair_bits(ctx, fb, gb, distinct) if gb else 0
        if val < best_val:
            continue
        key = (tuple(masks[i] for i in _indices(fb)),
               tuple(masks[i] for i in _indices(gb)))
        if val > best_val or key < best_key:
            best_val, best_key = val, key
    witness = (Family.from_masks(best_key[0], ctx.ground, p.k),
               Family.from_masks(best_key[1], ctx.ground, p.k))
    return SearchResult(best_val, witness, nodes, True)


# --- t-intersecting maximizer via maximal cliques --------------------------

class _BudgetExceeded(Exception):
    pass


def _maximal_cliques(ctx: LayerContext, t: int, budget: int | None):
    """Layer bitsets of the maximal t-intersecting subfamilies, and nodes."""
    row = t_rows(ctx.ground.n, ctx.k, t)
    neigh = [row(mask) & ~(1 << i) for i, mask in enumerate(ctx.masks)]
    out = []
    nodes = 0

    def bk(rb: int, pb: int, xb: int) -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetExceeded
        if pb == 0 and xb == 0:
            out.append(rb)
            return
        pivot_pool = pb | xb
        pivot = max(_indices(pivot_pool), key=lambda u: (pb & neigh[u]).bit_count())
        cand = pb & ~neigh[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            bk(rb | low, pb & neigh[v], xb & neigh[v])
            pb ^= low
            xb |= low
            cand ^= low

    bk(0, ctx.full_bits, 0)
    return out, nodes


def maximal_t_intersecting_families(n: int, k: int, t: int,
                                    budget: int | None = None):
    """All maximal t-intersecting k-uniform families on [n], as Families.

    Enumerated as maximal cliques of the compatibility graph with pivoting.
    Raises on budget exhaustion.
    """
    ctx = layer_context(n, k)
    cliques, nodes = _maximal_cliques(ctx, t, budget)
    return [ctx.family_of(rb) for rb in cliques], nodes


def _maximize_t_intersecting(p: SearchProblem) -> SearchResult:
    if p.k is None or p.t is None:
        raise DomainError("max_I_t_intersecting needs k and t")
    budget = p.budget if p.budget is not None else 10 ** 6
    ctx = layer_context(p.n, p.k)
    try:
        cliques, nodes = _maximal_cliques(ctx, p.t, budget)
    except _BudgetExceeded:
        raise DomainError(
            f"clique enumeration exceeded the node budget {budget}")
    best_val, best_key = -1, None
    for rb in cliques:
        # c members have at most C(c, 2) distinct pairwise intersections
        if comb(rb.bit_count(), 2) < best_val:
            continue
        key = tuple(ctx.masks[i] for i in _indices(rb))
        val = _distinct_count_masks(key)
        if val > best_val or (val == best_val and key < best_key):
            best_val, best_key = val, key
    return SearchResult(best_val, Family.from_masks(best_key, ctx.ground, p.k),
                        nodes, True)


# --- antichain and cross-Sperner maximizers --------------------------------

def _strict_incomparability(num_sets: int):
    """incomp[s] = bitset of set-masks u with neither u <= s nor s <= u."""
    incomp = [0] * num_sets
    for s in range(num_sets):
        acc = 0
        for u in range(num_sets):
            su = s & u
            if su != s and su != u:
                acc |= 1 << u
        incomp[s] = acc
    return incomp


def _distinct_count_masks(masks: Sequence[int]) -> int:
    seen = set()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            seen.add(a & b)
    return len(seen)


def _maximize_antichain(p: SearchProblem) -> SearchResult:
    n = p.n
    if n > 5 and p.budget is None:
        raise DomainError(
            "antichain search is exhaustive only for n <= 5; set a budget "
            "for a best-effort run")
    num = 1 << n
    incomp = _strict_incomparability(num)
    best_val, best_key = -1, None
    nodes = 0
    budget = p.budget
    exhausted = False

    # DFS over antichains: allowed = bitset of masks still addable
    def rec(allowed: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_val, best_key, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            exhausted = True
            return
        val = _distinct_count_masks(list(chosen))
        if val > best_val or (val == best_val and chosen < best_key):
            best_val, best_key = val, chosen
        b = allowed
        while b:
            low = b & -b
            s = low.bit_length() - 1
            rec(allowed & incomp[s] & ~((low << 1) - 1), chosen + (s,))
            b ^= low

    rec((1 << num) - 1, ())
    ground = GroundSet(n)
    witness = Family.from_masks(best_key, ground)
    return SearchResult(best_val, witness, nodes, not exhausted)


def _maximize_cross_sperner(p: SearchProblem) -> SearchResult:
    n = p.n
    num = 1 << n
    incomp = _strict_incomparability(num)
    full_bits = (1 << num) - 1
    ground = GroundSet(n)

    def best_partner(a_sets: list[int]) -> int:
        bb = full_bits
        for s in a_sets:
            bb &= incomp[s]
            if not bb:
                break
        return bb

    def evaluate(a_sets: list[int], b_bits: int) -> int:
        seen = set()
        b_masks = _indices(b_bits)
        for a in a_sets:
            for b in b_masks:
                seen.add(a & b)
        return len(seen)

    best_val, best_key = 0, ((), ())
    nodes = 0
    if n <= 4:
        for a_bits in range(1, 1 << num):
            nodes += 1
            a_sets = _indices(a_bits)
            b_bits = best_partner(a_sets)
            if not b_bits:
                continue
            size_bound = len(a_sets) * b_bits.bit_count()
            room_bound = num - len(a_sets) - b_bits.bit_count() - 1
            if min(size_bound, room_bound) < best_val:
                continue
            val = evaluate(a_sets, b_bits)
            key = (tuple(a_sets), tuple(_indices(b_bits)))
            if val > best_val or (val == best_val and key < best_key):
                best_val, best_key = val, key
        exhaustive = True
    elif n == 5:
        budget = p.budget if p.budget is not None else 10 ** 5
        rng = random.Random(f"{p.seed}:cross_sperner")
        for _ in range(budget):
            nodes += 1
            count = rng.randint(1, 12)
            a_sets = sorted(rng.sample(range(num), count))
            b_bits = best_partner(a_sets)
            if not b_bits:
                continue
            val = evaluate(a_sets, b_bits)
            key = (tuple(a_sets), tuple(_indices(b_bits)))
            if val > best_val or (val == best_val and key < best_key):
                best_val, best_key = val, key
        exhaustive = False
    else:
        raise DomainError("cross-Sperner search supports n <= 4 exhaustively, n = 5 budgeted")

    witness = (Family.from_masks(best_key[0], ground),
               Family.from_masks(best_key[1], ground))
    return SearchResult(best_val, witness, nodes, exhaustive)


def maximize(p: SearchProblem) -> SearchResult:
    """Solve a SearchProblem exactly (or best-effort under a budget)."""
    if not isinstance(p.n, int) or not 1 <= p.n <= MAX_GROUND:
        raise DomainError(f"search needs n in 1..{MAX_GROUND}, got {p.n}")
    if p.k is not None and not 0 <= p.k <= p.n:
        raise DomainError(f"search needs 0 <= k <= n = {p.n}, got k = {p.k}")
    if p.t is not None and p.t < 1:
        raise DomainError(f"search needs t >= 1, got t = {p.t}")
    if p.budget is not None and p.budget < 1:
        raise DomainError(f"a search budget must be at least 1, got {p.budget}")
    if p.objective == "max_wedge_cross":
        return _maximize_cross(p, distinct=False)
    if p.objective == "max_I_cross":
        return _maximize_cross(p, distinct=True)
    if p.objective == "max_I_t_intersecting":
        return _maximize_t_intersecting(p)
    if p.objective == "max_I_antichain":
        return _maximize_antichain(p)
    if p.objective == "max_I_cross_sperner":
        return _maximize_cross_sperner(p)
    raise DomainError(f"unknown objective {p.objective!r}")


# --- seeded samplers --------------------------------------------------------

def sample_saturated_pair_bits(ctx: LayerContext, rng: random.Random,
                               max_members: int = 3) -> tuple[int, int]:
    """A random saturated cross-intersecting pair, as layer bitsets."""
    layer_size = len(ctx.masks)
    for _ in range(200):
        count = rng.randint(1, max_members)
        fb = 0
        for i in rng.sample(range(layer_size), count):
            fb |= 1 << i
        cand = ctx.meet_all(fb)
        if not cand:
            continue
        cand_idx = _indices(cand)
        gb = 0
        for i in rng.sample(cand_idx, rng.randint(1, min(max_members, len(cand_idx)))):
            gb |= 1 << i
        while True:
            nf = ctx.meet_all(gb)
            ng = ctx.meet_all(nf)
            if nf == fb and ng == gb:
                return fb, gb
            fb, gb = nf, ng
    raise RuntimeError("could not sample a cross-intersecting pair")


def sample_saturated_pair(n: int, k: int, rng: random.Random,
                          max_members: int = 3) -> tuple[Family, Family]:
    ctx = layer_context(n, k)
    fb, gb = sample_saturated_pair_bits(ctx, rng, max_members)
    return ctx.family_of(fb), ctx.family_of(gb)


def sample_saturated_t_family(n: int, k: int, t: int, rng: random.Random,
                              max_members: int = 3) -> Family:
    """A random saturated t-intersecting k-uniform family.

    After a first k-set, up to max_members - 1 more are drawn, each from the
    bitset (in mask order) of the k-sets meeting all drawn ones in >= t.
    """
    ctx = layer_context(n, k)
    row = t_rows(n, k, t)
    chosen = [rng.choice(ctx.masks)]
    allowed = ctx.full_bits
    for _ in range(rng.randint(0, max_members - 1)):
        allowed &= row(chosen[-1]) & ~(1 << ctx.index[chosen[-1]])
        pool = _indices(allowed)
        if not pool:
            break
        chosen.append(ctx.masks[rng.choice(pool)])
    return transversals.saturate_t(Family.from_masks(chosen, ctx.ground, k), t)


def sample_family_bits(ctx: LayerContext, rng: random.Random) -> int:
    layer_size = len(ctx.masks)
    count = rng.randint(1, layer_size)
    fb = 0
    for i in rng.sample(range(layer_size), count):
        fb |= 1 << i
    return fb


def sample_antichain(n: int, rng: random.Random) -> Family:
    ground = GroundSet(n)
    masks = list(range(1 << n))
    rng.shuffle(masks)
    chosen: list[int] = []
    for m in masks[: rng.randint(1, 1 << n)]:
        if all((m & c) != m and (m & c) != c for c in chosen):
            chosen.append(m)
    return Family.from_masks(chosen, ground)


# --- randomized / exhaustive property checks -------------------------------

@dataclass
class CheckReport:
    property: str
    params: dict
    trials: int
    failures: int
    first_counterexample: object = None
    exhaustive: bool = False

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "params": self.params,
            "trials": self.trials,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "exhaustive": self.exhaustive,
            "passed": self.passed,
        }


def realized_corank1_layer(ctx: LayerContext, fb: int, gb: int) -> list[int]:
    """Masks of the (k-1)-sets realized as intersections of distinct members.

    A (k-1)-set d is a & b for some a in F, b in G with a != b exactly when
    both F and G have members above d and those are not one and the same
    k-set: the two bitsets below are nonzero and not one equal single bit.
    """
    out = []
    for dmask, up in sets_above(ctx.ground.n, ctx.k, ctx.k - 1).items():
        above_f = fb & up
        if above_f:
            above_g = gb & up
            if above_g and (above_f != above_g or above_f & (above_f - 1)):
                out.append(dmask)
    return out


def _family_sets(ctx: LayerContext, bits: int) -> list[list[int]]:
    return [list(elements_of(ctx.masks[i])) for i in _indices(bits)]


def randomized_check(property_name: str, params: dict, trials: int,
                     seed: int) -> CheckReport:
    """Assert one of the named properties on seeded random instances.

    A found counterexample makes the report fail; it never raises.
    prop53_antichain runs exhaustively for n <= 5 regardless of `trials`.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n = params["n"]
    report = CheckReport(property_name, dict(params), trials, 0)

    if property_name == "prop21_nu_le4":
        k = params["k"]
        ctx = layer_context(n, k)
        for i in range(trials):
            rng = _trial_rng(seed, i)
            fb, gb = sample_saturated_pair_bits(ctx, rng)
            layer = realized_corank1_layer(ctx, fb, gb)
            if has_matching_of_size(layer, 5):
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = {
                        "F": _family_sets(ctx, fb), "G": _family_sets(ctx, gb)}
        return report

    if property_name == "pyber":
        k = params["k"]
        ctx = layer_context(n, k)
        bound = comb(n - 1, k - 1) ** 2
        for i in range(trials):
            rng = _trial_rng(seed, i)
            fb, gb = sample_saturated_pair_bits(ctx, rng)
            if fb.bit_count() * gb.bit_count() > bound:
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = {
                        "F": _family_sets(ctx, fb), "G": _family_sets(ctx, gb)}
        return report

    if property_name == "emc":
        k = params["k"]
        ctx = layer_context(n, k)
        bound_unit = comb(n - 1, k - 1)
        for i in range(trials):
            rng = _trial_rng(seed, i)
            fb = sample_family_bits(ctx, rng)
            masks = [ctx.masks[j] for j in _indices(fb)]
            nu = 0
            while has_matching_of_size(masks, nu + 1):
                nu += 1
            # the matching bound carries its own regime n >= k(nu + 1)
            if n >= k * (nu + 1) and len(masks) > nu * bound_unit:
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = {
                        "F": _family_sets(ctx, fb), "nu": nu}
        return report

    if property_name == "hm":
        k = params["k"]
        ctx = layer_context(n, k)
        bound = comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1
        produced = 0
        for i in range(trials * 20):
            if produced >= trials:
                break
            rng = _trial_rng(seed, i)
            fam = sample_saturated_t_family(n, k, 1, rng)
            meet = ctx.ground.full_mask
            for m in fam.members:
                meet &= m
            if meet:
                continue  # trivial star: out of scope for this bound
            produced += 1
            if len(fam) > bound:
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = {
                        "F": [list(s) for s in fam.sets()]}
        report.trials = produced
        return report

    if property_name == "prop53_antichain":
        full = 2 ** n

        def violates(masks: list[int]) -> bool:
            c = _distinct_count_masks(masks)
            return not (c < full and (full - c) ** 2 > full)

        if n <= 5:
            report.exhaustive = True
            num = 1 << n
            incomp = _strict_incomparability(num)
            count = 0

            def rec(allowed: int, chosen: list[int]) -> None:
                nonlocal count
                count += 1
                if violates(chosen):
                    report.failures += 1
                    if report.first_counterexample is None:
                        report.first_counterexample = {
                            "A": [list(elements_of(m)) for m in chosen]}
                b = allowed
                while b:
                    low = b & -b
                    s = low.bit_length() - 1
                    rec(allowed & incomp[s] & ~((low << 1) - 1), chosen + [s])
                    b ^= low

            rec((1 << num) - 1, [])
            report.trials = count
            return report
        for i in range(trials):
            rng = _trial_rng(seed, i)
            fam = sample_antichain(n, rng)
            if violates(list(fam.members)):
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = {
                        "A": [list(s) for s in fam.sets()]}
        return report

    raise DomainError(f"unknown property {property_name!r}")


# --- saturated-pair closure enumeration (small k-uniform layers) ------------

def all_saturated_pairs(n: int, k: int):
    """Every saturated cross-intersecting pair on the (n, k) layer.

    The map G -> (all k-sets meeting every member of G) is an antitone
    Galois map T, so saturated pairs are exactly (X, T(X)) for the closed X
    that ``_closed_sets`` lists.
    """
    ctx = layer_context(n, k)
    if ctx.adj is None:
        raise DomainError(f"layer C({n},{k}) too large for closure enumeration")
    return ctx, [(x, ctx.meet_all(x)) for x in _closed_sets(ctx)]
