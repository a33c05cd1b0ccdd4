"""Ground sets, bitmask subsets, and canonically ordered set families.

Conventions used throughout the package:

* The ground set [n] = {1, ..., n} has 1 <= n <= 64 so that every subset
  fits in one machine word.  Element i is stored as bit i-1, i.e. the mask
  of {i} is ``1 << (i - 1)``.
* A family keeps its members as a strictly increasing tuple of masks.
  Sorting by numeric mask value is the canonical form, so family equality
  is plain tuple equality and deduplication is free.
* Everything is immutable after construction and every operation is a pure
  function; concurrent callers need no locking.

The text format for families is one header line ``n=<n> k=<k|*>`` followed
by one set per line, either as a comma-separated ascending element list
(an empty line is the empty set) or as ``hex:<bitmask>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

MAX_GROUND = 64


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class VerificationError(RuntimeError):
    """A property that should hold by theorem failed at runtime."""


class NodeLimitExceeded(RuntimeError):
    """A computation stopped at its node limit before reaching a verdict."""


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def nth_bit(bits: int, j: int) -> int:
    """The index of the set bit of rank j (0 = lowest) in bits, by bisecting on prefix counts."""
    lo, hi = 0, bits.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (bits & ((2 << mid) - 1)).bit_count() > j:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class GroundSet:
    """The base set [n] = {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_GROUND:
            raise DomainError(f"ground set size must be in 1..{MAX_GROUND}, got {self.n!r}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(1, self.n + 1)

    def contains_mask(self, mask: int) -> bool:
        return 0 <= mask and mask & ~self.full_mask == 0


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of subsets in canonical (mask) order.

    ``uniformity`` is the common cardinality k when the family is declared
    k-uniform, else None.  An empty family may still carry a uniformity.
    """

    members: tuple[int, ...]
    ground: GroundSet
    uniformity: int | None = None

    def __post_init__(self) -> None:
        prev = -1
        for m in self.members:
            if m <= prev:
                raise DomainError("family members must be strictly increasing masks")
            if not self.ground.contains_mask(m):
                raise DomainError(f"member {m:#x} outside ground set [{self.ground.n}]")
            prev = m
        if self.uniformity is not None:
            k = self.uniformity
            if not 0 <= k <= self.ground.n:
                raise DomainError(f"uniformity {k} out of range for n={self.ground.n}")
            for m in self.members:
                if m.bit_count() != k:
                    raise DomainError(f"member {elements_of(m)} is not a {k}-set")

    @classmethod
    def from_masks(cls, masks: Iterable[int], ground: GroundSet,
                   k: int | None = None) -> "Family":
        return cls(tuple(sorted(set(masks))), ground, k)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], ground: GroundSet,
                  k: int | None = None) -> "Family":
        return cls.from_masks((mask_of(s) for s in sets), ground, k)

    @classmethod
    def empty(cls, ground: GroundSet, k: int | None = None) -> "Family":
        return cls((), ground, k)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.members)

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.members)

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self.members}))

    def layer(self, size: int) -> "Family":
        """The sub-family of members with exactly `size` elements."""
        return Family(tuple(m for m in self.members if m.bit_count() == size),
                      self.ground, size)

    def infer_uniformity(self) -> int | None:
        sizes = self.sizes()
        return sizes[0] if len(sizes) == 1 else None

    def union(self, other: "Family") -> "Family":
        _require_same_ground(self, other)
        k = self.uniformity if self.uniformity == other.uniformity else None
        return Family.from_masks(self.members + other.members, self.ground, k)

    def support(self) -> int:
        """Mask of all elements that occur in some member."""
        s = 0
        for m in self.members:
            s |= m
        return s


@lru_cache(maxsize=None)
def full_layer(ground: GroundSet, k: int) -> Family:
    """All k-subsets of the ground set, built once per (ground, k): a Family is immutable."""
    if not 0 <= k <= ground.n:
        raise DomainError(f"layer size {k} out of range for n={ground.n}")
    masks = [mask_of(c) for c in combinations(ground.elements(), k)]
    return Family.from_masks(masks, ground, k)


def _require_same_ground(f: Family, g: Family) -> None:
    if f.ground != g.ground:
        raise DomainError(f"mismatched ground sets: n={f.ground.n} vs n={g.ground.n}")


def _intersections(xs: Sequence[int], ys: Sequence[int], distinct: bool = False) -> set[int]:
    """The set of a & b over a in xs and b in ys; with distinct, over a != b only.

    The counting kernel behind every |F wedge G| and |I(F, G)| in the package
    (brute_count stays apart as the independent oracle).  When xs is ys, a
    duplicate-free sequence, it walks the unordered pairs once and adds the
    members themselves (a & a) unless distinct.
    """
    if xs is ys:
        out = {a & b for a, b in combinations(xs, 2)}
        if not distinct:
            out.update(xs)
        return out
    if distinct:
        return {a & b for a in xs for b in ys if a != b}
    return {a & b for a in xs for b in ys}


def wedge(f: Family, g: Family) -> Family:
    """All pairwise intersections, identical members included."""
    _require_same_ground(f, g)
    return Family.from_masks(_intersections(f.members, g.members), f.ground)


def distinct_intersections(f: Family, g: Family) -> Family:
    """All intersections of pairs that are distinct as sets.

    With f == g this is the usual "distinct intersections of a family".
    """
    _require_same_ground(f, g)
    return Family.from_masks(_intersections(f.members, g.members, distinct=True), f.ground)


def common_members(f: Family, g: Family) -> Family:
    _require_same_ground(f, g)
    k = f.uniformity if f.uniformity == g.uniformity else None
    return Family.from_masks(set(f.members) & set(g.members), f.ground, k)


def is_cross_intersecting(f: Family, g: Family) -> bool:
    """True iff every member of f meets every member of g (vacuous when empty)."""
    _require_same_ground(f, g)
    return all(a & b for a in f.members for b in g.members)


def is_t_intersecting(f: Family, t: int) -> bool:
    """True iff any two members (a pair of equals included) share >= t elements."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    ms = f.members
    if any(m.bit_count() < t for m in ms):
        return False
    return all((a & b).bit_count() >= t for a, b in combinations(ms, 2))


def is_antichain(f: Family) -> bool:
    """True iff no member contains another."""
    ms = f.members
    for a, b in combinations(ms, 2):
        ab = a & b
        if ab == a or ab == b:
            return False
    return True


def is_cross_sperner(f: Family, g: Family) -> bool:
    """True iff no member of one family contains (or equals) a member of the other."""
    _require_same_ground(f, g)
    for a in f.members:
        for b in g.members:
            ab = a & b
            if ab == a or ab == b:
                return False
    return True


def shade(f: Family) -> Family:
    """All (a+1)-sets containing some member of an a-uniform family."""
    if not f.members:
        return Family.empty(f.ground)
    a = f.infer_uniformity()
    if a is None:
        raise DomainError("shade requires a uniform family")
    n = f.ground.n
    if a >= n:
        raise DomainError(f"shade undefined for a={a} >= n={n}")
    out = set()
    full = f.ground.full_mask
    for m in f.members:
        rest = full & ~m
        while rest:
            low = rest & -rest
            out.add(m | low)
            rest ^= low
    return Family.from_masks(out, f.ground, a + 1)


def link_and_delete(f: Family, i: int) -> tuple[Family, Family]:
    """The link f(i) = {F - i : i in F} and the deletion f(not-i) = {F : i not in F}."""
    n = f.ground.n
    if not 1 <= i <= n:
        raise DomainError(f"element {i} outside ground set [{n}]")
    bit = 1 << (i - 1)
    link = [m ^ bit for m in f.members if m & bit]
    rest = [m for m in f.members if not m & bit]
    k = f.uniformity
    link_k = k - 1 if k is not None and k > 0 else None
    return (Family.from_masks(link, f.ground, link_k),
            Family.from_masks(rest, f.ground, k))


# --- text format -----------------------------------------------------------

_HEADER_RE = re.compile(r"^n=(\d+)\s+k=(\d+|\*)$")


def family_to_text(f: Family) -> str:
    k = "*" if f.uniformity is None else str(f.uniformity)
    lines = [f"n={f.ground.n} k={k}"]
    for m in f.members:
        lines.append(",".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def families_to_text(fams: Iterable[Family]) -> str:
    return "".join(family_to_text(f) for f in fams)


def _parse_member_line(line: str, ground: GroundSet) -> int:
    line = line.strip()
    if not line:
        return 0
    try:
        if line.startswith("hex:"):
            mask, elements = int(line[4:], 16), None
        else:
            mask, elements = None, [int(tok) for tok in line.split(",")]
    except ValueError:
        raise DomainError(
            f"set {line!r} is neither a comma-separated element list nor hex:<mask>"
        ) from None
    # range-check elements before shifting: a huge element would build a huge mask
    if elements is not None and all(1 <= e <= ground.n for e in elements):
        mask = mask_of(elements)
    if mask is None or not ground.contains_mask(mask):
        raise DomainError(f"set {line!r} outside ground set [{ground.n}]")
    return mask


def families_from_text(text: str) -> list[Family]:
    fams: list[Family] = []
    ground: GroundSet | None = None
    k: int | None = None
    masks: list[int] = []

    def flush() -> None:
        if ground is not None:
            fams.append(Family.from_masks(masks, ground, k))

    for line in text.splitlines():
        m = _HEADER_RE.match(line.strip())
        if m:
            flush()
            ground = GroundSet(int(m.group(1)))
            k = None if m.group(2) == "*" else int(m.group(2))
            masks = []
        else:
            if ground is None:
                raise DomainError("family text must start with an 'n=<n> k=<k|*>' header")
            masks.append(_parse_member_line(line, ground))
    flush()
    return fams


def family_from_text(text: str) -> Family:
    fams = families_from_text(text)
    if len(fams) != 1:
        raise DomainError(f"expected exactly one family block, found {len(fams)}")
    return fams[0]
