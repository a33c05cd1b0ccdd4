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
from operator import and_, or_

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
    """Minimum size of a set meeting every member of f in >= t elements."""
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
        target = 0
        worst = 0
        for m in members:
            d = t - (m & cm).bit_count()
            if d > worst:
                worst, target = d, m
        if target == 0:
            best = cnt
            return
        if cnt + worst >= best:
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
    members = sorted(f.members, key=lambda m: m.bit_count())
    best = 0

    def dfs(avail: list[int], cnt: int) -> None:
        nonlocal best
        if cnt > best:
            best = cnt
        if not avail or cnt + len(avail) <= best:
            return
        m = avail[0]
        dfs([x for x in avail[1:] if not x & m], cnt + 1)
        dfs(avail[1:], cnt)

    dfs(members, 0)
    return best


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
    """All k-sets of [n] plus, per set, the bitset of k-sets meeting it."""

    ground: GroundSet
    k: int
    masks: tuple[int, ...]
    index: dict
    adj: tuple[int, ...] | None
    full_bits: int

    def bits_of(self, masks) -> int:
        bits = 0
        for m in masks:
            bits |= 1 << self.index[m]
        return bits

    def family_of(self, bits: int) -> Family:
        out = []
        while bits:
            low = bits & -bits
            out.append(self.masks[low.bit_length() - 1])
            bits ^= low
        return Family.from_masks(out, self.ground, self.k)

    def meet_all(self, bits: int) -> int:
        """Bitset of all k-sets meeting every k-set selected by `bits`."""
        out = self.full_bits
        if self.adj is not None:
            while bits and out:
                low = bits & -bits
                out &= self.adj[low.bit_length() - 1]
                bits ^= low
            return out
        row = t_rows(self.ground.n, self.k, 1)
        return reduce(and_, map(row, self.family_of(bits).members), out)


@lru_cache(maxsize=None)
def layer_context(n: int, k: int) -> LayerContext:
    ground = GroundSet(n)
    masks = tuple(full_layer(ground, k).members)
    index = {m: i for i, m in enumerate(masks)}
    adj = None
    if len(masks) <= _ADJ_CAP:
        # a k-set meets exactly the k-sets that hold one of its elements
        holders = [0] * n
        for i, m in enumerate(masks):
            for e in elements_of(m):
                holders[e - 1] |= 1 << i
        adj = tuple(reduce(or_, [holders[e - 1] for e in elements_of(m)], 0) for m in masks)
    return LayerContext(ground, k, masks, index, adj, (1 << len(masks)) - 1)


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
    for i, m in enumerate(layer_context(n, k).masks):
        for d in map(sum, combinations(_bits(m), j)):  # distinct bits: sum = union
            up[d] = up.get(d, 0) | 1 << i
    return dict(sorted(up.items()))


def t_rows(n: int, k: int, t: int):
    """The map from a k-set m of [n] to the layer bitset of the k-sets sharing >= t with m.

    It ORs the sets_above(n, k, t) rows of m's C(k, t) t-subsets, C(k, t) <= C(n, k)
    once t > 2k - n: any two k-sets share 2k - n, so below that a row is the layer.
    """
    if t <= max(0, 2 * k - n):
        full = layer_context(n, k).full_bits
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

    Alternately replaces the F side by every k-set meeting all of G and
    then the G side by every k-set meeting all of F until nothing changes.
    Both sides only ever grow, so the fixed point is the unique maximal
    pair for this alternation order.
    """
    _require_same_ground(f, g)
    k = _uniformity_of_pair(f, g)
    if not is_cross_intersecting(f, g):
        raise DomainError("input pair is not cross-intersecting")
    ctx = layer_context(f.ground.n, k)
    fb, gb = ctx.bits_of(f.members), ctx.bits_of(g.members)
    while True:
        nf = ctx.meet_all(gb)
        ng = ctx.meet_all(nf)
        if nf == fb and ng == gb:
            break
        fb, gb = nf, ng
    return ctx.family_of(fb), ctx.family_of(gb)


def saturate_t(f: Family, t: int) -> Family:
    """The saturated t-intersecting family generated by f.

    The smallest k-set (by mask) meeting every member in >= t elements joins
    until none is left.  A rejected k-set stays rejected as members only
    accumulate, so this adds what an ascending-mask sweep adds.  The final
    members' rows are ANDed afresh to certify the fixed point.
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
    while cand:
        low = cand & -cand
        fb |= low
        cand &= row(ctx.masks[low.bit_length() - 1]) & ~low
    out = ctx.family_of(fb)
    if reduce(and_, map(row, out.members)) & ~fb:
        raise VerificationError("saturate_t did not reach a fixed point")
    return out


def _is_saturated_pair(f: Family, g: Family) -> bool:
    nf, ng = saturate_pair(f, g)
    return nf == f and ng == g


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
    if not _is_saturated_pair(f, g):
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
