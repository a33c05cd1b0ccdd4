"""Brute-force oracles and exhaustive maximizers over small ground sets.

The exhaustive searches enumerate a label-complete space (every relabeling
of a candidate is itself enumerated), so the maximizer with the smallest
raw member-tuple key is automatically in canonical form: its key equals the
minimum over all ground-set permutations of any maximizer's key.  Witness
tie-breaking therefore never has to enumerate permutations.

One closure engine serves two symmetric relations, each a LayerContext
built by its one builder, ``LayerContext.from_rows``: "meets" on the
k-layer (the cross objectives) and strict incomparability on 2^[n]
(``_subset_context``, cross-Sperner and the antichain walk).  Let
T(X) be the sets related to every member of X.  For a fixed F the best
partner is T(F), and the closure T(T(F)) of F keeps that partner while
|F wedge G| and |I(F, G)| only grow.  So ``_closed_sets`` lists the closed
F and one scorer, ``_best_pair``, scores each with T(F); the witness is the
smallest (F-key, G-key) among the closed maximizers.  Relabeling maps
closed sets to closed sets, so that space is label-complete too.  On a
layer with n = 2k every family is closed and all 2^C(n,k) are scored.  The
n = 5 cross-Sperner sampler feeds the same scorer its random draws.  Every
search takes at most `budget` nodes, reports how many it took, and is
exhaustive exactly when no candidate was left unscored; ``_best_pair``,
``_maximal_cliques`` and ``_best_family`` make that cut.

The t-intersecting maximizer lists the maximal cliques of the "shares >= t"
graph on the k-layer by Bron-Kerbosch (1973) with the pivot of Tomita,
Tanaka & Takahashi (2006), whose scan stops at the first vertex with all
of P as neighbours.  Each clique comes out as its ascending mask tuple,
the key ``_best_family`` scores and ``Family`` accepts.

Every count of |F wedge G| or |I(F, G)| here goes through the one kernel
``families._intersections``; ``brute_count`` alone keeps its own loops, as
the independent oracle.  Antichains of 2^[n] are walked by one depth-first
enumerator, ``_antichains``, for both the antichain maximizer and the
prop53_antichain check.  ``maximize`` and ``randomized_check`` dispatch
through id-keyed tables (``_MAXIMIZERS``, ``_CHECKS``); OBJECTIVES is the
key tuple of the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice, permutations
from math import comb
from operator import and_

from .families import (
    MAX_GROUND,
    DomainError,
    Family,
    GroundSet,
    _intersections,
    elements_of,
    nth_bit,
)
from .transversals import LayerContext, has_matching_of_size, layer_context, sets_above, t_rows
from . import transversals

_CROSS_LAYER_CAP = 24  # at n = 2k all 2^C(n, k) families are closed
# a relation table is built whatever the budget, so a search refuses one of
# more bits: 2^n x 2^n for the antichain walk up to n = 13
_TABLE_BITS_CAP = 4 ** 13


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
        if isinstance(self.witness, tuple):
            w = [[list(s) for s in fam.sets()] for fam in self.witness]
        else:
            w = [list(s) for s in self.witness.sets()]
        return {
            "value": str(self.value),
            "witness": w,
            "nodes": self.nodes_explored,
            "exhaustive": self.exhaustive,
        }


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


# --- the closure engine and the pair scorer --------------------------------

@lru_cache(maxsize=None)
def _subset_context(n: int) -> LayerContext:
    """2^[n] under strict incomparability; set i is mask i, and k is None.

    Row s is every set minus those below and above s, both doubled up over
    the n bits: O(n) big-integer steps per row, 4^n bits in all.
    """
    num = 1 << n
    full = (1 << num) - 1

    def row(s: int) -> int:
        below, above = 1, 1 << s
        for i in range(n):
            if s >> i & 1:
                below |= below << (1 << i)
            else:
                above |= above << (1 << i)
        return full ^ (below | above)
    return LayerContext.from_rows(GroundSet(n), None, range(num), row)


def _closed_sets(ctx: LayerContext):
    """Every bitset X = T(T(X)), T(X) = ``ctx.meet_all(X)``.

    The closed sets are the image of T: the full universe T(0) closed under
    T(X) & adj[i] = T(X + i).  On a k-layer with n = 2k, T(X) is the layer
    minus the complements of X, so every X is closed.
    """
    if ctx.k is not None and ctx.ground.n == 2 * ctx.k:
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


def _best_pair(ctx: LayerContext, draws, distinct: bool, budget: int | None,
               room: int | None = None):
    """Value, witness, node count and completeness of the best (X, T(X)), X in `draws`.

    Scores |I(X, T(X))| if distinct, else |X wedge T(X)|; an empty X is no
    node.  A draw is pruned when T(X) is empty or a bound is below the
    incumbent's value: |X| |T(X)|, and room - |X| - |T(X)| if given.  The
    smallest (X-key, T(X)-key), a key listing masks ascending, wins ties;
    with nothing scored, the empty pair.
    """
    masks_of, meet_all = ctx.masks_of, ctx.meet_all
    best_val, best_key, nodes, complete = 0, None, 0, True
    for x in draws:
        if not x:
            continue
        if nodes == budget:
            complete = False
            break
        nodes += 1
        y = meet_all(x)
        if not y:
            continue
        cx, cy = x.bit_count(), y.bit_count()
        bound = cx * cy if room is None else min(cx * cy, room - cx - cy)
        if bound < best_val:
            continue
        key = (masks_of(x), masks_of(y))
        val = len(_intersections(*key, distinct))
        if best_key is None or val > best_val or (val == best_val and key < best_key):
            best_val, best_key = val, key
    witness = tuple(Family.from_masks(side, ctx.ground, ctx.k) for side in best_key or ((), ()))
    return best_val, witness, nodes, complete


def _best_family(keys, ground: GroundSet, k: int | None, budget: int | None):
    """Value, witness, node count and completeness of the best family in `keys`.

    A key lists masks ascending and scores |I(F, F)|.  c members have at most
    C(c, 2) distinct intersections, so a key with C(c, 2) below the incumbent's
    value is pruned.  The smallest key wins ties; with none scored, the empty family.
    """
    best_val, best_key, nodes, complete = 0, None, 0, True
    for key in keys:
        if nodes == budget:
            complete = False
            break
        nodes += 1
        if comb(len(key), 2) < best_val:
            continue
        val = len(_intersections(key, key, distinct=True))
        if best_key is None or val > best_val or (val == best_val and key < best_key):
            best_val, best_key = val, key
    return best_val, Family.from_masks(best_key or (), ground, k), nodes, complete


# --- cross-intersecting maximizers -----------------------------------------

def _maximize_cross(p: SearchProblem, distinct: bool) -> SearchResult:
    if p.k is None:
        raise DomainError("cross objectives need k")
    layer_size = comb(p.n, p.k)
    if layer_size > _CROSS_LAYER_CAP:
        raise DomainError(
            f"C({p.n},{p.k}) = {layer_size} exceeds the layer cap "
            f"C(n,k) <= {_CROSS_LAYER_CAP} of {p.objective}")
    ctx = layer_context(p.n, p.k)
    return SearchResult(*_best_pair(ctx, _closed_sets(ctx), distinct, p.budget))


def _require_table(size: int, what: str) -> None:
    """Refuse a size x size relation table of more than _TABLE_BITS_CAP bits."""
    if size * size > _TABLE_BITS_CAP:
        raise DomainError(
            f"{what} builds a {size} x {size} table of {size * size} bits whatever "
            f"the budget, over the cap of 4^13 = {_TABLE_BITS_CAP} bits")


# --- t-intersecting maximizer via maximal cliques --------------------------

def _clique_layer(n: int, k: int) -> LayerContext:
    """layer_context(n, k), once its C(n, k)^2-bit compatibility table is under the cap."""
    _require_table(comb(n, k), f"the clique search on the {k}-sets of [{n}]")
    return layer_context(n, k)


def _maximal_cliques(ctx: LayerContext, t: int, budget: int | None):
    """Maximal t-intersecting subfamilies as ascending mask tuples, node count, completeness.

    Bron-Kerbosch with pivoting on an explicit stack, so a clique of
    thousands of k-sets needs no recursion.  A stack entry carries R as the
    member masks added so far; a maximal clique is emitted sorted, the key
    ``_best_family`` scores and ``Family`` accepts.  The pivot is the lowest
    u in P | X with the most neighbours in P (Tomita, Tanaka & Takahashi,
    2006); the scan stops at the first u with all of P as neighbours, since
    no later u has more and ties keep the earlier u.  A node with P empty
    and X not is a dead end: it is counted but needs no pivot.  A node's
    children are pushed highest candidate first, so the lowest is expanded
    first, as in the recursive form; a child's P has lost, and its X has
    gained, the lower candidates, its elder siblings.
    """
    rows = t_rows(ctx.ground.n, ctx.k, t)
    masks = ctx.masks
    neigh = [rows[mask] & ~(1 << i) for i, mask in enumerate(masks)]
    out = []
    nodes = 0
    stack = [((), ctx.full_bits, 0)]
    push = stack.append
    while stack:
        if nodes == budget:
            return out, nodes, False
        r, pb, xb = stack.pop()
        nodes += 1
        if not pb:
            if not xb:
                out.append(tuple(sorted(r)))
            continue
        size, most, b = pb.bit_count(), -1, pb | xb
        while b:
            low = b & -b
            u = low.bit_length() - 1
            c = (pb & neigh[u]).bit_count()
            if c > most:
                most, pivot = c, u
                if c == size:
                    break
            b ^= low
        cand = pb & ~neigh[pivot]
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            # the candidates left in cand are the siblings expanded before v
            nv = neigh[v]
            push((r + (masks[v],), pb & ~cand & nv, (xb | cand) & nv))
    return out, nodes, True


def maximal_t_intersecting_families(n: int, k: int, t: int):
    """All maximal t-intersecting k-uniform families on [n], as Families, and nodes.

    Enumerated as maximal cliques of the compatibility graph with pivoting;
    each clique comes out as its ascending mask tuple.
    """
    ctx = _clique_layer(n, k)
    cliques, nodes, _ = _maximal_cliques(ctx, t, None)
    return [Family(key, ctx.ground, k) for key in cliques], nodes


def _maximize_t_intersecting(p: SearchProblem) -> SearchResult:
    if p.k is None or p.t is None:
        raise DomainError("max_I_t_intersecting needs k and t")
    ctx = _clique_layer(p.n, p.k)
    cliques, nodes, complete = _maximal_cliques(
        ctx, p.t, p.budget if p.budget is not None else 10 ** 6)
    value, witness, _, _ = _best_family(cliques, ctx.ground, p.k, None)
    return SearchResult(value, witness, nodes, complete)


# --- antichain and cross-Sperner maximizers --------------------------------

def _antichains(n: int):
    """Every antichain of 2^[n] as an ascending tuple of set masks, depth first.

    The empty antichain comes first, and each antichain is followed by its
    extensions by one larger set incomparable to all of it, smallest first.
    """
    ctx = _subset_context(n)
    # allowed = bitset of the set masks still addable
    stack = [(ctx.full_bits, ())]
    while stack:
        allowed, chosen = stack.pop()
        yield chosen
        children = []
        b = allowed
        while b:
            low = b & -b
            s = low.bit_length() - 1
            children.append((allowed & ctx.adj[s] & ~((low << 1) - 1), chosen + (s,)))
            b ^= low
        stack += reversed(children)


def _maximize_antichain(p: SearchProblem) -> SearchResult:
    _require_table(1 << p.n, f"the antichain search on 2^[{p.n}]")
    if p.n > 5 and p.budget is None:
        raise DomainError(
            "antichain search is exhaustive only for n <= 5; set a budget "
            "for a best-effort run")
    return SearchResult(*_best_family(_antichains(p.n), GroundSet(p.n), None, p.budget))


def _maximize_cross_sperner(p: SearchProblem) -> SearchResult:
    n = p.n
    if n > 5:
        raise DomainError("cross-Sperner search supports n <= 4 exhaustively, n = 5 budgeted")
    ctx = _subset_context(n)
    if n <= 4:
        draws, budget = _closed_sets(ctx), p.budget
    else:
        budget = p.budget if p.budget is not None else 10 ** 5
        rng = random.Random(f"{p.seed}:cross_sperner")
        # sample picks by position alone, so this draws the sets range(2^n) would;
        # they come as distinct one-bit masks, whose sum is their union.  The
        # stream never ends, so the budget cuts it and the run is never exhaustive
        one_bits = [1 << s for s in range(1 << n)]
        draws = iter(lambda: sum(rng.sample(one_bits, rng.randint(1, 12))), None)
    # no intersection of A and B lies in A, in B or is [n]
    return SearchResult(*_best_pair(ctx, draws, True, budget, room=(1 << n) - 1))


# objective id -> maximizer; the ids are the CLI's long objective names
_MAXIMIZERS = {
    "max_wedge_cross": lambda p: _maximize_cross(p, distinct=False),
    "max_I_cross": lambda p: _maximize_cross(p, distinct=True),
    "max_I_t_intersecting": _maximize_t_intersecting,
    "max_I_antichain": _maximize_antichain,
    "max_I_cross_sperner": _maximize_cross_sperner,
}

OBJECTIVES = tuple(_MAXIMIZERS)


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
    maximizer = _MAXIMIZERS.get(p.objective)
    if maximizer is None:
        raise DomainError(f"unknown objective {p.objective!r}")
    return maximizer(p)


# --- seeded samplers --------------------------------------------------------

# the samplers draw at most this many k-sets per side before saturating
_SAMPLE_MEMBERS = 3


def sample_saturated_pair_bits(ctx: LayerContext, rng: random.Random) -> tuple[int, int]:
    """A random saturated cross-intersecting pair, as layer bitsets.

    G is drawn with at most _SAMPLE_MEMBERS members, so once k >= _SAMPLE_MEMBERS
    and n >= 2k the pair is (T(G), G): saturation never grows the G side.  At
    (k, n) = (3, 10), where c05 samples, every pair is of that thin kind.
    """
    layer_size = len(ctx.masks)
    for _ in range(200):
        count = rng.randint(1, _SAMPLE_MEMBERS)
        fb = 0
        for i in rng.sample(range(layer_size), min(count, layer_size)):
            fb |= 1 << i
        cand = ctx.meet_all(fb)
        if not cand:
            continue
        # ranks among cand's set bits: random.sample reads only the population's length
        size = cand.bit_count()
        gb = 0
        for j in rng.sample(range(size), rng.randint(1, min(_SAMPLE_MEMBERS, size))):
            gb |= 1 << nth_bit(cand, j)
        return ctx.closure(gb)
    raise RuntimeError("could not sample a cross-intersecting pair")


def sample_saturated_pair(n: int, k: int, rng: random.Random) -> tuple[Family, Family]:
    ctx = layer_context(n, k)
    fb, gb = sample_saturated_pair_bits(ctx, rng)
    return ctx.family_of(fb), ctx.family_of(gb)


def sample_saturated_t_family(n: int, k: int, t: int, rng: random.Random) -> Family:
    """A random saturated t-intersecting k-uniform family.

    After a first k-set, up to _SAMPLE_MEMBERS - 1 more are drawn, each from the
    bitset (in mask order) of the k-sets meeting all drawn ones in >= t.
    """
    ctx = layer_context(n, k)
    rows = t_rows(n, k, t)
    chosen = [rng.choice(ctx.masks)]
    allowed = ctx.full_bits
    for _ in range(rng.randint(0, _SAMPLE_MEMBERS - 1)):
        allowed &= rows[chosen[-1]] & ~(1 << ctx.index[chosen[-1]])
        size = allowed.bit_count()
        if not size:
            break
        chosen.append(ctx.masks[nth_bit(allowed, rng.choice(range(size)))])
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
    return [list(elements_of(m)) for m in ctx.masks_of(bits)]


def _trial_rngs(seed: int, count: int):
    return (_trial_rng(seed, i) for i in range(count))


def _pair_example(ctx: LayerContext, fb: int, gb: int) -> dict:
    return {"F": _family_sets(ctx, fb), "G": _family_sets(ctx, gb)}


# Each property maps (n, params, trials, seed) to whether its trials are
# exhaustive, and the outcome of each trial run: a counterexample or None.

def _prop21_trials(n: int, params: dict, trials: int, seed: int):
    k = params["k"]
    ctx = layer_context(n, k)

    @lru_cache(maxsize=None)  # a pair drawn twice is checked once
    def outcome(fb: int, gb: int):
        if has_matching_of_size(realized_corank1_layer(ctx, fb, gb), 5):
            return _pair_example(ctx, fb, gb)
        return None

    if k == 2 and n <= 10:  # at most 4,722 saturated pairs: list them all
        return True, (outcome(fb, gb) for fb, gb in all_saturated_pairs(n, k)[1])
    pairs = (sample_saturated_pair_bits(ctx, rng) for rng in _trial_rngs(seed, trials))
    return False, (outcome(fb, gb) for fb, gb in pairs)


def _pyber_trials(n: int, params: dict, trials: int, seed: int):
    k = params["k"]
    ctx = layer_context(n, k)
    bound = comb(n - 1, k - 1) ** 2
    pairs = (sample_saturated_pair_bits(ctx, rng) for rng in _trial_rngs(seed, trials))
    return False, (_pair_example(ctx, fb, gb) if fb.bit_count() * gb.bit_count() > bound
                   else None for fb, gb in pairs)


def _emc_trials(n: int, params: dict, trials: int, seed: int):
    k = params["k"]
    ctx = layer_context(n, k)
    bound_unit = comb(n - 1, k - 1)

    def outcome(fb: int):
        nu = transversals.matching_number(ctx.family_of(fb))
        # the matching bound carries its own regime n >= k(nu + 1)
        if n >= k * (nu + 1) and fb.bit_count() > nu * bound_unit:
            return {"F": _family_sets(ctx, fb), "nu": nu}
        return None
    return False, (outcome(sample_family_bits(ctx, rng)) for rng in _trial_rngs(seed, trials))


def _hm_trials(n: int, params: dict, trials: int, seed: int):
    k = params["k"]
    full = layer_context(n, k).ground.full_mask
    bound = comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1
    fams = (sample_saturated_t_family(n, k, 1, rng) for rng in _trial_rngs(seed, trials * 20))
    # a trivial star is out of scope for this bound: only the others count as trials
    nontrivial = (fam for fam in fams if not reduce(and_, fam.members, full))
    return False, islice(({"F": [list(s) for s in fam.sets()]} if len(fam) > bound else None
                          for fam in nontrivial), trials)


def _prop53_trials(n: int, params: dict, trials: int, seed: int):
    full = 2 ** n

    def outcome(masks: tuple[int, ...]):
        c = len(_intersections(masks, masks, distinct=True))
        if c < full and (full - c) ** 2 > full:
            return None
        return {"A": [list(elements_of(m)) for m in masks]}
    if n <= 5:
        return True, map(outcome, _antichains(n))
    return False, (outcome(sample_antichain(n, rng).members) for rng in _trial_rngs(seed, trials))


_CHECKS = {
    "prop21_nu_le4": _prop21_trials,
    "pyber": _pyber_trials,
    "emc": _emc_trials,
    "hm": _hm_trials,
    "prop53_antichain": _prop53_trials,
}


def randomized_check(property_name: str, params: dict, trials: int,
                     seed: int) -> CheckReport:
    """Assert one of the named properties on seeded random instances.

    A found counterexample makes the report fail; it never raises.
    prop21_nu_le4 runs exhaustively at k = 2, n <= 10, and prop53_antichain
    for n <= 5, regardless of `trials`; hm counts only the non-star families
    it drew (at most 20 * trials).
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    n = params["n"]
    run_trials = _CHECKS.get(property_name)
    if run_trials is None:
        raise DomainError(f"unknown property {property_name!r}")
    report = CheckReport(property_name, dict(params), 0, 0)
    report.exhaustive, outcomes = run_trials(n, params, trials, seed)
    for example in outcomes:
        report.trials += 1
        if example is not None:
            report.failures += 1
            if report.first_counterexample is None:
                report.first_counterexample = example
    return report


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
