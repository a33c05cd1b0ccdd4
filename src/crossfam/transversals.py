"""Transversal families, covering and matching numbers, saturation, bases.

The exact searches here (covering number, matching number) are plain
branch-and-bound over bitmasks; instances are tiny by design.  Saturation
of k-uniform pairs runs on a per-(n, k) layer context whose rows, each
k-set's bitset of the k-sets meeting it, make "all k-sets meeting every
member of G" a handful of big-integer ANDs.  The context reads those rows
by mask from the t = 1 instance of the one row table ``t_rows(n, k, t)``: a
k-set's row, the k-sets sharing >= t with it, is the OR of the layer bitsets
``sets_above(n, k, t)`` of its t-subsets, built when first read and kept for
the process.  ``sets_above`` is C(n, t) * C(n, k) bits: under 100 KB at every layer run.
Each hypothesis is decided on these bitsets: (F, G) cross-intersects iff F lies
in T(G), and f is t-intersecting iff it lies in the AND of its members' rows.
Bases skip every set with a k-superset outside the saturated family, read off
the columns ``sets_above(n, k, 1)``; they need n >= 2k - 1 (pair) or 2k - t.
Their after-check's ``upward_closure`` lists each basis set's k-supersets
from its complement, apart from those columns.
"""

from __future__ import annotations

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

    The search starts from the ground set as its incumbent, a t-cover since
    every member has at least t elements, and branches depth first on the
    elements of a most-deficient member.  A branch is pruned by a packing
    bound: deficient members whose free parts (elements not yet chosen) are
    pairwise disjoint, picked greedily, each need their own deficit of new
    elements, so the sum of their deficits is a lower bound.
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
    best = f.ground.n

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
    """All k-sets of the ground set containing some member of b.

    Each member s is completed by every (k - |s|)-subset of its complement;
    no layer table is read, so the basis after-checks stay independent of
    the ``sets_above`` columns the bases kernel skips on.
    """
    if any(m.bit_count() > k for m in b.members):
        raise DomainError(f"a member exceeds the closure size k={k}")
    full = b.ground.full_mask
    masks: set[int] = set()
    for s in b.members:
        # distinct bits: sum = union
        masks.update(s | c for c in map(sum, combinations(_bits(full & ~s), k - s.bit_count())))
    return Family.from_masks(masks, b.ground, k)


# --- layer context for fast k-uniform saturation ---------------------------

@dataclass(frozen=True)
class LayerContext:
    """Sets of [n] plus ``rows``: set mask -> bitset of the sets related to it.

    ``from_rows`` is the one builder.  A k-layer (``layer_context``) relates
    k-sets that meet; its rows are the shared ``t_rows(n, k, 1)`` table, each
    built when first read.  2^[n] (``search._subset_context``, k None, set i
    is mask i) relates strictly incomparable sets; its rows are a tuple.  Both
    relations are symmetric, so T = ``meet_all`` is an antitone Galois map.
    """

    ground: GroundSet
    k: int | None
    masks: tuple[int, ...]
    index: dict
    rows: dict[int, int] | tuple[int, ...]
    full_bits: int

    @classmethod
    def from_rows(cls, ground: GroundSet, k: int | None, masks, rows) -> "LayerContext":
        """The ascending sets `masks`, m related to the sets of rows[m]."""
        masks = tuple(masks)
        return cls(ground, k, masks, {m: i for i, m in enumerate(masks)}, rows,
                   (1 << len(masks)) - 1)

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
        out, masks, rows = self.full_bits, self.masks, self.rows
        while bits and out:
            low = bits & -bits
            out &= rows[masks[low.bit_length() - 1]]
            bits ^= low
        return out

    def closure(self, gb: int) -> tuple[int, int]:
        """(T(G), T(T(G))): the fixed point of F = T(G), then G = T(F), started from gb.

        One round reaches it.  T is the antitone Galois map of a symmetric relation
        (Ganter & Wille, *Formal Concept Analysis*, 1999): X <= T(T(X)), so
        T(T(T(X))) = T(X), and a second round would give T(T(T(G))) = T(G) and then
        T(T(G)) again.  So the saturated pair depends on G alone, whatever F was.

        On a k-layer with |G| <= k <= n - k, T(T(G)) is G itself and only T(G) is
        computed.  G <= T(T(G)) always; for a k-set X not in G, each g \\ X is
        nonempty (g != X, |g| = |X|), so one element of each, padded to k elements
        outside X (n - k >= k are there), is a member of T(G) that misses X, and
        X is not in T(T(G)).  Every other input takes the second ``meet_all``.
        """
        nf = self.meet_all(gb)
        if self.k is not None and gb.bit_count() <= self.k <= self.ground.n - self.k:
            return nf, gb
        return nf, self.meet_all(nf)


@lru_cache(maxsize=None)
def layer_context(n: int, k: int) -> LayerContext:
    """The k-sets of [n], related when they meet: rows ``t_rows(n, k, 1)``, built as read."""
    ground = GroundSet(n)
    return LayerContext.from_rows(ground, k, full_layer(ground, k).members, t_rows(n, k, 1))


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


class _RowTable(dict):
    """k-set mask -> layer bitset of the k-sets sharing >= t with it; see ``t_rows``."""

    def __init__(self, n: int, k: int, t: int) -> None:
        super().__init__()
        self.t = t
        # any two k-sets share 2k - n elements: at or below that t a row is the layer
        self.full = (1 << comb(n, k)) - 1 if t <= max(0, 2 * k - n) else None
        self.up = None if self.full is not None else sets_above(n, k, t)

    def fresh(self, m: int) -> int:
        """Row m built from ``sets_above``, neither read from nor kept in the table."""
        if self.up is None:
            return self.full
        out = 0
        for d in combinations(_bits(m), self.t):
            out |= self.up[sum(d)]
        return out

    def __missing__(self, m: int) -> int:
        row = self[m] = self.fresh(m)
        return row


@lru_cache(maxsize=None)
def t_rows(n: int, k: int, t: int) -> _RowTable:
    """The one row table of the (n, k) layer at t: rows[m] for a k-set m of [n].

    Row m ORs the sets_above(n, k, t) rows of m's C(k, t) t-subsets; at t <= 2k - n
    every row is the layer and sets_above is not read.  Each row is built the first
    time it is asked for and kept, so the table holds only the rows used.  At t = 1
    it is the rows of ``layer_context(n, k)``, which ``meet_all`` reads by mask.
    Shared, not to be changed; ``fresh`` rebuilds a row without it.
    """
    return _RowTable(n, k, t)


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
    T(T(T(X))) = T(X), so the result is (T(G), T(T(G))) whatever f was,
    and T(T(G)) is g itself when |g| <= k <= n - k (``LayerContext.closure``).
    Both sides only grow (f <= T(g) and g <= T(T(g))), so this is the
    unique maximal pair for this alternation order.
    """
    _require_same_ground(f, g)
    k = _uniformity_of_pair(f, g)
    ctx = layer_context(f.ground.n, k)
    fb, gb = ctx.closure(ctx.bits_of(g.members))
    if ctx.bits_of(f.members) & ~fb:  # f inside T(g) iff the pair cross-intersects
        raise DomainError("input pair is not cross-intersecting")
    return ctx.family_of(fb), ctx.family_of(gb)


def _t_layer(f: Family, t: int, who: str) -> tuple[LayerContext, int, int]:
    """(context, bits of f, AND of its members' t_rows); f is t-intersecting iff inside the AND."""
    k = f.uniformity if f.uniformity is not None else f.infer_uniformity()
    if k is None:
        raise DomainError(f"{who} needs a k-uniform family")
    if not f.members:
        raise DomainError("saturate_t of the empty family is undefined")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    ctx = layer_context(f.ground.n, k)
    fb = ctx.bits_of(f.members)
    common = reduce(and_, map(t_rows(f.ground.n, k, t).__getitem__, f.members))
    if fb & ~common:
        raise DomainError("input family is not t-intersecting")
    return ctx, fb, common


def saturate_t(f: Family, t: int) -> Family:
    """The saturated t-intersecting family generated by f.

    The smallest k-set (by mask) meeting every member in >= t elements joins
    until none is left.  A rejected k-set stays rejected as members only
    accumulate, so this adds what an ascending-mask sweep adds.  The rows of
    the members it adds are ANDed as they join; with the input members' rows,
    built afresh from ``sets_above`` and not read from the ``t_rows`` table,
    that AND certifies the fixed point: it holds no k-set outside the family.
    A table row that is wrong for an input member then still shows.
    """
    ctx, fb, common = _t_layer(f, t, "saturate_t")
    rows = t_rows(f.ground.n, ctx.k, t)
    cand = common & ~fb
    added = ctx.full_bits
    while cand:
        low = cand & -cand
        fb |= low
        r = rows[ctx.masks[low.bit_length() - 1]]
        added &= r
        cand &= r & ~low
    if reduce(and_, map(rows.fresh, f.members), added) & ~fb:
        raise VerificationError("saturate_t did not reach a fixed point")
    return ctx.family_of(fb)


def _minimal_transversals(ctx: LayerContext, fb: int, members, t: int) -> Family:
    """The minimal sets S, t <= |S| <= k, sharing >= t with each of `members`.

    fb is the layer bitset of the saturated family these sets generate, T(G) or
    the t-family itself, so every k-set above such an S is in fb: S is skipped
    when the AND of its columns sets_above(n, k, 1) meets a k-set outside fb.
    From n >= 2k - t + 1 on, a set sharing < t with a member m has a k-superset
    that still does (filled from outside m and t - 1 - |S & m| elements of m),
    so the skip is the whole test and the direct one passes once per basis set;
    below, the direct test decides.
    """
    n, k = ctx.ground.n, ctx.k
    cols = sets_above(n, k, 1)
    miss = ctx.full_bits & ~fb
    found: list[int] = []
    for size in range(t, k + 1):
        for combo in combinations(_bits((1 << n) - 1), size):
            if miss & reduce(and_, map(cols.__getitem__, combo)):
                continue
            s = sum(combo)
            if any(b & s == b for b in found):
                continue
            if all((s & m).bit_count() >= t for m in members):
                found.append(s)
    return Family.from_masks(found, ctx.ground)


def basis_pair(f: Family, g: Family) -> tuple[Family, Family]:
    """Minimal transversal bases (B(f), B(g)) of a saturated pair.

    B(f) consists of the minimal sets among all <=k-sets meeting every
    member of g, and vice versa; the k-sets above B(f) are exactly f.
    Needs n >= 2k - 1: below it any two k-sets meet, the one saturated pair
    is (layer, layer), and its bases, the (n - k + 1)-sets, do not cross-intersect.
    """
    k = _uniformity_of_pair(f, g)
    n = f.ground.n
    if n < 2 * k - 1:
        raise DomainError(f"basis_pair needs n >= 2k - 1, got n={n} k={k}")
    if not f.members or not g.members:
        raise DomainError("basis of a pair with an empty side is undefined")
    # saturate_pair refuses mismatched ground sets and a pair that does not cross-intersect
    if saturate_pair(f, g) != (f, g):
        raise DomainError("input pair is not saturated")
    ctx = layer_context(n, k)
    b_f = _minimal_transversals(ctx, ctx.bits_of(f.members), g.members, 1)
    b_g = _minimal_transversals(ctx, ctx.bits_of(g.members), f.members, 1)
    for b, src in ((b_f, f), (b_g, g)):
        if not is_antichain(b):
            raise VerificationError("basis is not an antichain")
        if upward_closure(b, k) != src:
            raise VerificationError("upward closure of basis does not recover the family")
    if not is_cross_intersecting(b_f, b_g):
        raise VerificationError("basis pair is not cross-intersecting")
    return b_f, b_g


def basis_t(f: Family, t: int) -> Family:
    """Minimal t-transversal basis of a saturated t-intersecting family.

    The AND of the members' t_rows is the set of k-sets sharing >= t with every
    member: f is t-intersecting iff it lies inside, and saturated iff it is all of it.
    Needs n >= 2k - t: below it any two k-sets share more than t, the one saturated
    family is the layer, and its basis, the (n - k + t)-sets, is not t-intersecting.
    """
    ctx, fb, common = _t_layer(f, t, "basis_t")
    n, k = f.ground.n, ctx.k
    if common & ~fb:
        raise DomainError("input family is not saturated")
    if n < 2 * k - t:
        raise DomainError(f"basis_t needs n >= 2k - t, got n={n} k={k} t={t}")
    b = _minimal_transversals(ctx, fb, f.members, t)
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
