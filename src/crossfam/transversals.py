"""Transversal families, covering and matching numbers, saturation, bases.

The exact searches here (covering number, matching number) are plain
branch-and-bound over bitmasks; instances are tiny by design.  Saturation
of k-uniform pairs runs on a per-(n, k) layer context that precomputes,
for every k-set, the bitset of k-sets meeting it, so that "all k-sets
meeting every member of G" is a handful of big-integer ANDs.  Saturation
of t-intersecting families ORs the layer bitsets ``sets_above(n, k, t)`` of
a member's t-subsets, C(n, t) * C(n, k) bits: under 100 KB at every layer run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import and_

from .families import (
    DomainError,
    Family,
    GroundSet,
    VerificationError,
    elements_of,
    full_layer,
    is_cross_intersecting,
    is_t_intersecting,
    is_antichain,
    mask_of,
    _require_same_ground,
)

# adjacency tables are only built for layers up to this many k-sets
_ADJ_CAP = 1500


def transversal_family(f: Family, t: int, max_size: int) -> Family:
    """All T with |T| <= max_size meeting every member of f in >= t elements.

    The empty family is rejected: every set would qualify vacuously and the
    2^n result is never what a pipeline wants.
    """
    if not f.members:
        raise DomainError("transversal_family of the empty family is all subsets; refusing")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    n = f.ground.n
    if not 0 <= max_size <= n:
        raise DomainError(f"max_size must be in 0..{n}, got {max_size}")
    members = f.members
    found = []
    for size in range(t, max_size + 1):
        for combo in combinations(f.ground.elements(), size):
            tm = mask_of(combo)
            if all((tm & m).bit_count() >= t for m in members):
                found.append(tm)
    return Family.from_masks(found, f.ground)


def covering_number(f: Family, t: int = 1) -> int:
    """Minimum size of a set meeting every member of f in >= t elements.

    A greedy cover gives the first upper bound; a depth-first search then
    branches on the elements of a most-deficient member.  A branch is pruned
    by a packing bound: deficient members whose free parts (elements not yet
    chosen) are pairwise disjoint, picked greedily, each need their own
    deficit of new elements, so the sum of their deficits is a lower bound.
    The greedy pick can skip the most deficient member, so the prune takes
    the larger of that sum and the worst single deficit.
    """
    if not f.members:
        raise DomainError("covering number of the empty family is undefined")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if min(m.bit_count() for m in f.members) < t:
        raise DomainError(f"some member has fewer than t={t} elements; no t-transversal exists")
    members = f.members

    # greedy upper bound: repeatedly add the element fixing most deficits
    chosen = 0
    while True:
        deficient = [m for m in members if (m & chosen).bit_count() < t]
        if not deficient:
            break
        scores: dict[int, int] = {}
        for m in deficient:
            rest = m & ~chosen
            while rest:
                low = rest & -rest
                scores[low] = scores.get(low, 0) + 1
                rest ^= low
        chosen |= max(scores, key=lambda b: (scores[b], -b))
    best = chosen.bit_count()

    def dfs(cm: int, cnt: int) -> None:
        nonlocal best
        if cnt >= best:
            return
        target = worst = need = used = 0
        for m in members:
            d = t - (m & cm).bit_count()
            if d > 0:
                free = m & ~cm
                if not free & used:  # packing: no new element serves two of these
                    used |= free
                    need += d
                if d > worst:
                    worst, target = d, m
        if target == 0:
            best = cnt
            return
        if cnt + max(need, worst) >= best:
            return
        rest = target & ~cm
        while rest:
            low = rest & -rest
            dfs(cm | low, cnt + 1)
            rest ^= low

    dfs(0, 0)
    return best


def matching_number(f: Family) -> int:
    """Maximum number of pairwise disjoint members (0 for the empty family)."""
    nu = 0
    while has_matching_of_size(f.members, nu + 1):
        nu += 1
    return nu


def has_matching_of_size(masks, size: int) -> bool:
    """Whether `size` pairwise disjoint masks exist (early-exit search).

    Counting prune: every member still to be picked avoids the elements
    already used, has at least `smallest` elements, and lies inside the
    union of all members, so a branch whose free elements number fewer
    than (members still needed) * smallest cannot succeed.
    """
    ms = sorted(masks)
    union = 0
    for m in ms:
        union |= m
    smallest = min(m.bit_count() for m in ms) if ms else 0

    def dfs(idx: int, used: int, cnt: int) -> bool:
        if cnt == size:
            return True
        if len(ms) - idx < size - cnt:
            return False
        if (union & ~used).bit_count() < (size - cnt) * smallest:
            return False
        for i in range(idx, len(ms)):
            if not ms[i] & used:
                if dfs(i + 1, used | ms[i], cnt + 1):
                    return True
        return False

    return dfs(0, 0, 0)


def max_edges_without_matching(n: int, s: int) -> int:
    """Most edges of K_n with no s pairwise disjoint edges, found exactly.

    An edge set has no s-matching iff its complement meets every s-matching,
    so the answer is C(n, 2) minus the covering number of the family of
    s-matchings, each viewed as a set of edge positions.
    """
    if n < 2 or s < 1:
        raise DomainError(f"need n >= 2 and s >= 1, got n={n} s={s}")
    edges = full_layer(GroundSet(n), 2).members
    matchings = []
    for combo in combinations(range(len(edges)), s):
        vertices = 0
        for i in combo:
            vertices |= edges[i]
        if vertices.bit_count() == 2 * s:  # the s edges are pairwise disjoint
            matchings.append(mask_of(i + 1 for i in combo))
    if not matchings:
        return len(edges)
    return len(edges) - covering_number(Family.from_masks(matchings, GroundSet(len(edges))))


def minimal_sets(f: Family) -> Family:
    """The members of f that contain no other member."""
    by_size = sorted(f.members, key=lambda m: m.bit_count())
    keep: list[int] = []
    for m in by_size:
        if not any(s & m == s for s in keep):
            keep.append(m)
    return Family.from_masks(keep, f.ground)


def upward_closure(b: Family, k: int) -> Family:
    """All k-sets of the ground set containing some member of b."""
    if any(m.bit_count() > k for m in b.members):
        raise DomainError(f"a member exceeds the closure size k={k}")
    masks = [m for m in full_layer(b.ground, k).members
             if any(m & s == s for s in b.members)]
    return Family.from_masks(masks, b.ground, k)


# --- layer context for fast k-uniform saturation ---------------------------

@dataclass(frozen=True)
class LayerContext:
    """Sets of [n] plus, per set, the bitset of the sets related to it.

    ``from_rows`` is the one builder.  A k-layer (``layer_context``) relates
    k-sets that meet; its ``adj`` is None above ``_ADJ_CAP`` sets.  2^[n]
    (``search._subset_context``, k None, set i is mask i) relates strictly
    incomparable sets.  Both relations are symmetric, so T = ``meet_all`` is
    an antitone Galois map.
    """

    ground: GroundSet
    k: int | None
    masks: tuple[int, ...]
    index: dict
    adj: tuple[int, ...] | None
    full_bits: int

    @classmethod
    def from_rows(cls, ground: GroundSet, k: int | None, masks, row) -> "LayerContext":
        """The ascending sets `masks`, m related to the sets of row(m); no table if row is None."""
        masks = tuple(masks)
        return cls(ground, k, masks, {m: i for i, m in enumerate(masks)},
                   None if row is None else tuple(map(row, masks)), (1 << len(masks)) - 1)

    def bits_of(self, masks) -> int:
        bits = 0
        for m in masks:
            bits |= 1 << self.index[m]
        return bits

    def masks_of(self, bits: int) -> tuple[int, ...]:
        """The sets selected by `bits`, ascending."""
        masks = self.masks
        return tuple([masks[e - 1] for e in elements_of(bits)])

    def family_of(self, bits: int) -> Family:
        return Family.from_masks(self.masks_of(bits), self.ground, self.k)

    def meet_all(self, bits: int) -> int:
        """T(bits): the bitset of the sets related to every set selected by `bits`."""
        out = self.full_bits
        if self.adj is not None:
            while bits and out:
                low = bits & -bits
                out &= self.adj[low.bit_length() - 1]
                bits ^= low
            return out
        row = t_rows(self.ground.n, self.k, 1)
        return reduce(and_, map(row, self.masks_of(bits)), out)

    def closure(self, gb: int) -> tuple[int, int]:
        """(T(G), T(T(G))): the fixed point of F = T(G), then G = T(F), started from gb.

        One round reaches it.  T is the antitone Galois map of a symmetric relation
        (Ganter & Wille, *Formal Concept Analysis*, 1999): X <= T(T(X)), so
        T(T(T(X))) = T(X), and a second round would give T(T(T(G))) = T(G) and then
        T(T(G)) again.  So the saturated pair depends on G alone, whatever F was.
        """
        nf = self.meet_all(gb)
        return nf, self.meet_all(nf)


@lru_cache(maxsize=None)
def layer_context(n: int, k: int) -> LayerContext:
    ground = GroundSet(n)
    masks = full_layer(ground, k).members
    # a k-set meets exactly the k-sets above one of its elements: t_rows at t = 1
    row = t_rows(n, k, 1) if len(masks) <= _ADJ_CAP else None
    return LayerContext.from_rows(ground, k, masks, row)


def _bits(m: int) -> list[int]:
    """The one-bit masks of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


@lru_cache(maxsize=None)
def sets_above(n: int, k: int, j: int) -> dict[int, int]:
    """Each j-subset d of a k-set of [n], ascending, to the layer bitset of the k-sets above d.

    Shared, not to be changed.  At most min(C(n, j), C(n, k) * C(k, j)) keys
    of C(n, k) bits, under 100 KB for n <= 12, k <= 4, j <= 3; none if j < 0.
    """
    if j < 0:
        return {}
    up: dict[int, int] = {}
    for i, m in enumerate(full_layer(GroundSet(n), k).members):
        for d in map(sum, combinations(_bits(m), j)):  # distinct bits: sum = union
            up[d] = up.get(d, 0) | 1 << i
    return dict(sorted(up.items()))


def t_rows(n: int, k: int, t: int):
    """The map from a k-set m of [n] to the layer bitset of the k-sets sharing >= t with m.

    It ORs the sets_above(n, k, t) rows of m's C(k, t) t-subsets, C(k, t) <= C(n, k)
    once t > 2k - n: any two k-sets share 2k - n, so below that a row is the layer.
    """
    if t <= max(0, 2 * k - n):
        full = (1 << comb(n, k)) - 1
        return lambda m: full
    up = sets_above(n, k, t)

    def row(m: int) -> int:
        out = 0
        for d in combinations(_bits(m), t):
            out |= up[sum(d)]
        return out
    return row


def _uniformity_of_pair(f: Family, g: Family) -> int:
    kf = f.uniformity if f.uniformity is not None else f.infer_uniformity()
    kg = g.uniformity if g.uniformity is not None else g.infer_uniformity()
    if kf is None or kg is None or kf != kg:
        raise DomainError("saturation needs two k-uniform families with the same k")
    return kf


def saturate_pair(f: Family, g: Family) -> tuple[Family, Family]:
    """The saturated cross-intersecting pair generated by (f, g).

    Replaces the F side by every k-set meeting all of G and then the G side
    by every k-set meeting all of the new F.  That one round is the fixed
    point of the alternation: T = "every k-set meeting all of" satisfies
    T(T(T(X))) = T(X), so the result is (T(G), T(T(G))) whatever f was.
    Both sides only grow (f <= T(g) and g <= T(T(g))), so this is the
    unique maximal pair for this alternation order.
    """
    _require_same_ground(f, g)
    k = _uniformity_of_pair(f, g)
    if not is_cross_intersecting(f, g):
        raise DomainError("input pair is not cross-intersecting")
    ctx = layer_context(f.ground.n, k)
    fb, gb = ctx.closure(ctx.bits_of(g.members))
    return ctx.family_of(fb), ctx.family_of(gb)


def saturate_t(f: Family, t: int) -> Family:
    """The saturated t-intersecting family generated by f.

    The smallest k-set (by mask) meeting every member in >= t elements joins
    until none is left.  A rejected k-set stays rejected as members only
    accumulate, so this adds what an ascending-mask sweep adds.  The rows of
    the members it adds are ANDed as they join; with the input members' rows,
    built afresh, that AND certifies the fixed point: it holds no k-set
    outside the family.  A row that came out wrong for an input member then
    still shows.
    """
    k = f.uniformity if f.uniformity is not None else f.infer_uniformity()
    if k is None:
        raise DomainError("saturate_t needs a k-uniform family")
    if not f.members:
        raise DomainError("saturate_t of the empty family is undefined")
    if not is_t_intersecting(f, t):
        raise DomainError("input family is not t-intersecting")
    ctx = layer_context(f.ground.n, k)
    row = t_rows(f.ground.n, k, t)
    fb = ctx.bits_of(f.members)
    cand = reduce(and_, map(row, f.members)) & ~fb
    added = ctx.full_bits
    while cand:
        low = cand & -cand
        fb |= low
        r = row(ctx.masks[low.bit_length() - 1])
        added &= r
        cand &= r & ~low
    if reduce(and_, map(row, f.members), added) & ~fb:
        raise VerificationError("saturate_t did not reach a fixed point")
    return ctx.family_of(fb)


def basis_pair(f: Family, g: Family) -> tuple[Family, Family]:
    """Minimal transversal bases (B(f), B(g)) of a saturated pair.

    B(f) consists of the minimal sets among all <=k-sets meeting every
    member of g, and vice versa; the k-sets above B(f) are exactly f.
    """
    _require_same_ground(f, g)
    k = _uniformity_of_pair(f, g)
    if not f.members or not g.members:
        raise DomainError("basis of a pair with an empty side is undefined")
    if not is_cross_intersecting(f, g):
        raise DomainError("input pair is not cross-intersecting")
    if saturate_pair(f, g) != (f, g):
        raise DomainError("input pair is not saturated")
    b_f = minimal_sets(transversal_family(g, 1, k))
    b_g = minimal_sets(transversal_family(f, 1, k))
    for b, src in ((b_f, f), (b_g, g)):
        if not is_antichain(b):
            raise VerificationError("basis is not an antichain")
        if upward_closure(b, k) != src:
            raise VerificationError("upward closure of basis does not recover the family")
    if not is_cross_intersecting(b_f, b_g):
        raise VerificationError("basis pair is not cross-intersecting")
    return b_f, b_g


def basis_t(f: Family, t: int) -> Family:
    """Minimal t-transversal basis of a saturated t-intersecting family."""
    k = f.uniformity if f.uniformity is not None else f.infer_uniformity()
    if k is None:
        raise DomainError("basis_t needs a k-uniform family")
    if saturate_t(f, t) != f:
        raise DomainError("input family is not saturated")
    b = minimal_sets(transversal_family(f, t, k))
    if not is_antichain(b) or not is_t_intersecting(b, t):
        raise VerificationError("basis is not a t-intersecting antichain")
    if upward_closure(b, k) != f:
        raise VerificationError("upward closure of basis does not recover the family")
    return b


@dataclass(frozen=True)
class BasisPartition:
    """A basis split by cardinality plus the induced partition of the family.

    Family members land in the level of the largest basis subset they
    contain; s and r are the smallest and largest basis cardinalities.
    """

    basis_levels: dict
    family_levels: dict
    s: int
    r: int

    def to_json_dict(self) -> dict:
        levels = []
        for size in range(self.s, self.r + 1):
            basis = self.basis_levels.get(size)
            members = self.family_levels.get(size)
            levels.append({
                "size": size,
                "basis": [",".join(map(str, s)) for s in basis.sets()] if basis else [],
                "members": [",".join(map(str, s)) for s in members.sets()] if members else [],
            })
        return {"s": self.s, "r": self.r, "levels": levels}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def partition_by_basis(f: Family, b: Family) -> BasisPartition:
    """Assign each member of f to the size of its largest basis subset."""
    _require_same_ground(f, b)
    if not b.members:
        raise DomainError("cannot partition against an empty basis")
    sizes = sorted({m.bit_count() for m in b.members})
    s, r = sizes[0], sizes[-1]
    fam_levels: dict[int, list[int]] = {}
    for m in f.members:
        level = -1
        for sub in b.members:
            if m & sub == sub:
                level = max(level, sub.bit_count())
        if level < 0:
            raise DomainError(f"member {elements_of(m)} contains no basis set")
        fam_levels.setdefault(level, []).append(m)
    return BasisPartition(
        basis_levels={size: b.layer(size) for size in sizes},
        family_levels={lvl: Family.from_masks(ms, f.ground, f.uniformity)
                       for lvl, ms in sorted(fam_levels.items())},
        s=s,
        r=r,
    )
