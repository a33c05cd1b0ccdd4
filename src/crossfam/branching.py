"""Executable weighted branching processes over bases, with exact rationals.

The t-process replaces a live sequence S by one child per element of B - S
for a chosen basis set B with |B & S| < t, dividing its weight evenly, so
the total live weight is exactly 1 at every stage; this is checked as
rational equality after every round.  A sequence survives once every basis
set meets it in at least t elements.  The cross process is the t-process at
t = 1 driven by B1 (seeds weigh 1/s, B is disjoint from S), with coverage
and level weights read from B2; both run the one frontier in ``_grow``.

Every weight is 1/d for an integer d: a seed weighs 1/C(s, t) and a split
multiplies d by |B - S|, so the frontier carries d and ``Fraction`` only
enters the per-round conservation sum, once per distinct d.  Pools are
bitsets over the basis members, whose indices are in mask order: a live
sequence keeps t planes, plane j the members meeting S in >= j elements,
and its pool is the complement of plane t.  A child whose pool is empty
retires at its parent, into the parent's sibling group (prefix, d, chosen
sets, ys): its survivors are prefix + (y,) for y in ys, all of weight 1/d.
Groups are kept in survivor order, so level counts, weight floors and
coverage are read per group and no survivor is ever materialised on the
way to the report.

Each basis has one holder table (``_holders``): element y -> the bitset of
the members holding y.  The frontier reads it, and so does every hypothesis,
with no pair loop: the basis is an antichain iff the members holding all of
member i are i alone; B2 cross-intersects B1 iff B1's holders of each B2
set's elements OR to all of B1; the basis is t-intersecting iff the planes
of each member, folded from the table as a sequence's are, have plane t
full.  The hypothesis tau_t(F) >= t+1 needs no search: a set of at most t
elements meets every member in t elements only if it is a t-set inside all
of them, so for members of size >= t it holds iff fewer than t elements lie
in every member.

The selection rule is deterministic by default (smallest cardinality, then
smallest mask, among the qualifying sets); pass a seeded ``random.Random``
to exercise the claims under arbitrary legal selections.

``BranchReport.json_chunks`` streams the bytes of
``json.dumps(to_json_dict(), sort_keys=True)``: each sibling group's text
around its ys is rendered once, then one short string per survivor.
``BranchReport.survivors`` materialises the survivors for library callers.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from operator import and_, or_
from typing import Iterator

from .constructions import window_family
from .families import (
    DomainError,
    Family,
    NodeLimitExceeded,
    VerificationError,
    elements_of,
    is_t_intersecting,
    mask_of,
    nth_bit,
    _require_same_ground,
)
from .transversals import upward_closure


@dataclass(frozen=True)
class BranchSequence:
    """One surviving sequence: ordered elements, exact weight, chosen sets."""

    elements: tuple[int, ...]
    weight: Fraction
    chosen_sets: tuple[int, ...]


@dataclass
class BranchReport:
    """Outcome of a branching run; all rationals are exact.

    groups holds the survivors as sibling groups (prefix, d, chosen_sets, ys),
    in survivor order: the survivors prefix + (y,) for y in ys, each of
    weight 1/d.  ``survivors`` is the materialised list of ``BranchSequence``,
    built on first use and cached; the report text never needs it.
    """

    groups: list
    total_weight: Fraction
    level_counts: dict
    lam: dict
    coverage_ok: bool
    weight_bound_ok: bool
    inequality_lhs: Fraction

    @cached_property
    def survivors(self) -> list[BranchSequence]:
        weights: dict[int, Fraction] = {}
        return [BranchSequence(prefix + (y,), weights.setdefault(d, Fraction(1, d)), chosen)
                for prefix, d, chosen, ys in self.groups for y in ys]

    def _scalars(self) -> dict:
        """Every field of the JSON form except the survivors."""
        return {
            "total_weight": _frac(self.total_weight),
            "level_counts": {str(l): c for l, c in sorted(self.level_counts.items())},
            "lambda": {str(l): _frac(v) for l, v in sorted(self.lam.items())},
            "coverage_ok": self.coverage_ok,
            "weight_bound_ok": self.weight_bound_ok,
            "inequality_lhs": _frac(self.inequality_lhs),
        }

    def to_json_dict(self) -> dict:
        # few distinct sets are chosen; survivors share their element lists
        sets = {m: list(elements_of(m))
                for m in {m for s in self.survivors for m in s.chosen_sets}}
        return {
            "survivors": [
                {
                    "elements": list(s.elements),
                    "weight": _frac(s.weight),
                    "chosen_sets": [sets[m] for m in s.chosen_sets],
                }
                for s in self.survivors
            ],
            **self._scalars(),
        }

    def json_chunks(self) -> Iterator[str]:
        """The bytes of ``json.dumps(self.to_json_dict(), sort_keys=True)``, in pieces.

        A sibling group's survivors differ only in their last element, so
        the text before and after it is rendered once per group and joined
        around the ys; each distinct chosen-set tuple is rendered once.
        ``str`` of a list of ints is its JSON text.
        """
        head, tail = splice_parts(self._scalars(), "survivors")
        yield head + "["
        sets: dict[int, str] = {}
        tuples: dict[tuple[int, ...], str] = {}
        sep = ""
        for prefix, d, chosen_sets, ys in self.groups:
            chosen = tuples.get(chosen_sets)
            if chosen is None:
                for m in chosen_sets:
                    if m not in sets:
                        sets[m] = str(list(elements_of(m)))
                chosen = "[" + ", ".join([sets[m] for m in chosen_sets]) + "]"
                tuples[chosen_sets] = chosen
            lead = str(list(prefix))[1:-1] + ", " if prefix else ""
            pre = f'{{"chosen_sets": {chosen}, "elements": [{lead}'
            post = f'], "weight": "1/{d}"}}'
            yield sep + pre + (post + ", " + pre).join(map(str, ys)) + post
            sep = ", "
        yield "]" + tail

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_json_dict(), sort_keys=True)``."""
        return "".join(self.json_chunks())


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def splice_parts(obj: dict, key: str) -> tuple[str, str]:
    """The text of ``json.dumps(obj | {key: value}, sort_keys=True)`` before and
    after value's JSON text.

    obj's keys are strings.  The keys of obj below key are dumped before it
    and those above it after it, with json's default separators.
    """
    head = json.dumps({k: v for k, v in obj.items() if k < key}, sort_keys=True)[1:-1]
    tail = json.dumps({k: v for k, v in obj.items() if k > key}, sort_keys=True)[1:-1]
    return ("{" + (head + ", " if head else "") + json.dumps(key) + ": ",
            (", " + tail if tail else "") + "}")


def _tau_t_exceeds_t(members, t: int) -> bool:
    """tau_t >= t+1 for nonempty members of size >= t: fewer than t common elements."""
    return reduce(and_, members).bit_count() < t


def _weight_sum(groups) -> Fraction:
    """Exact sum of count / d over (d, count) pairs, each distinct d added once."""
    counts: Counter = Counter()
    for d, c in groups:
        counts[d] += c
    return sum((Fraction(c, d) for d, c in counts.items()), Fraction(0))


def smallest_branching_level(b: Family, t: int = 1) -> int | None:
    """Smallest level a with tau_t of the <=a part >= t+1, if any."""
    sizes = sorted({m.bit_count() for m in b.members})
    if not sizes:
        return None
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if sizes[0] < t:
        raise DomainError(f"some member has fewer than t={t} elements; no t-transversal exists")
    for a in sizes:
        if _tau_t_exceeds_t((m for m in b.members if m.bit_count() <= a), t):
            return a
    return None


def _holders(b: Family) -> list[int]:
    """b's holder table: element y of [n] -> the bitset of the members holding y.

    Member i is bit i, members in mask order; entry 0 is unused.  Sized by
    the ground set, so a partner basis on the same [n] can index it.
    """
    hit = [0] * (b.ground.n + 1)
    for i, m in enumerate(b.members):
        for y in elements_of(m):
            hit[y] |= 1 << i
    return hit


def _extend(planes: list[int], h: int) -> list[int]:
    """The planes of S + y from those of S, for h the members holding y.

    Plane j is the bitset of the members meeting S in >= j elements, j = 0..t.
    """
    out = planes[:]
    for j in range(len(out) - 1, 0, -1):
        out[j] |= out[j - 1] & h
    return out


def _planes(hit: list[int], elements, t: int, full: int) -> list[int]:
    """The planes of the set of `elements`, from those of the empty set."""
    planes = [full] + [0] * t
    for y in elements:
        planes = _extend(planes, hit[y])
    return planes


def _is_antichain(members, hit: list[int]) -> bool:
    """No member inside another: the members holding all of member i are i alone."""
    full = (1 << len(members)) - 1
    return all(reduce(and_, map(hit.__getitem__, elements_of(m)), full) == 1 << i
               for i, m in enumerate(members))


def _is_cross_intersecting(members, hit: list[int], others) -> bool:
    """Every set of others meets every member: the members holding one of its elements are all."""
    full = (1 << len(members)) - 1
    return all(reduce(or_, map(hit.__getitem__, elements_of(m)), 0) == full for m in others)


def _is_t_intersecting(members, hit: list[int], t: int) -> bool:
    """Every member shares >= t elements with each member, itself included."""
    full = (1 << len(members)) - 1
    return all(_planes(hit, elements_of(m), t, full)[t] == full for m in members)


def _grow(members: tuple[int, ...], hit: list[int], r: int, t: int,
          rng: random.Random | None, max_nodes: int):
    """Run the t-process on members, ascending masks, from the t-subsets of a
    minimum-size member; hit is their holder table (``_holders``).

    Returns the survivors' sibling groups (see ``BranchReport``) in survivor
    order and their total weight, which the last round has checked to be
    exactly 1.  The first extension draws from the members of size <= r,
    every later one from all members.
    """
    full = (1 << len(members)) - 1
    classes: dict[int, int] = {}  # size -> members of that size
    for i, m in enumerate(members):
        classes[m.bit_count()] = classes.get(m.bit_count(), 0) | 1 << i
    by_size = [classes[size] for size in sorted(classes)]
    low = sum(bits for size, bits in classes.items() if size <= r)

    def pick(pool: int) -> int:
        """The member the rule selects from the nonempty bitset pool: the lowest
        of its smallest size, or the draw of rng.choice(sorted(pool))."""
        if rng is None:
            for bits in by_size:
                x = pool & bits
                if x:
                    return members[(x & -x).bit_length() - 1]
        return members[nth_bit(pool, rng.choice(range(pool.bit_count())))]

    seed = pick(by_size[0])
    d = comb(seed.bit_count(), t)
    # a live sequence: elements, d, chosen sets, set mask S, planes
    # [all, |m & S| >= 1, ..., |m & S| >= t] and its pool
    frontier = []
    groups = []
    for combo in combinations(elements_of(seed), t):
        planes = _planes(hit, combo, t, full)
        pool = low & ~planes[t]
        if pool:
            frontier.append((combo, d, (seed,), mask_of(combo), planes, pool))
        else:
            groups.append((combo[:-1], d, (seed,), [combo[-1]]))
    live = [(d, len(frontier))]
    retired = Fraction(0)
    done = 0
    nodes = 0
    while True:
        retired += _weight_sum((g[1], len(g[3])) for g in groups[done:])
        done = len(groups)
        total = _weight_sum(live) + retired
        if total != 1:
            raise VerificationError(f"live weight is {total} mid-run, expected exactly 1")
        if not frontier:
            return groups, total
        nxt = []
        live = []
        for elements, d, chosen_sets, smask, planes, pool in frontier:
            chosen = pick(pool)
            free = chosen & ~smask
            nodes += free.bit_count()
            if nodes > max_nodes:
                raise NodeLimitExceeded(f"branching exceeded {max_nodes} nodes")
            d *= free.bit_count()
            chosen_sets += (chosen,)
            top, below = planes[t], planes[t - 1]
            ys = []
            before = len(nxt)
            for y in elements_of(free):
                h = hit[y]
                if top | below & h == full:  # no member meets S + y in < t elements
                    ys.append(y)
                    continue
                child = _extend(planes, h)
                nxt.append((elements + (y,), d, chosen_sets, smask | 1 << (y - 1), child,
                            full ^ child[t]))
            if ys:
                groups.append((elements, d, chosen_sets, ys))
            if len(nxt) > before:
                live.append((d, len(nxt) - before))
        frontier = nxt


def _finish_report(groups: list, total: Fraction, cover: Family, t: int, k: int,
                   r: int) -> BranchReport:
    """The report on the survivors' sibling groups, with verified total weight,
    against cover's levels >= r; ``_verified`` raises on a failed check.

    Level l weighs 1/floor_d(l) = 1/(C(l, t) l k^(l-t-1)): the floor of a
    level-l survivor, and each level-l member's share of the inequality's
    left-hand side.
    """
    level_counts: dict[int, int] = {}
    ds = set()  # (level, d) at levels >= r: a group's survivors share both
    reach: dict[int, list] = {}  # prefix mask -> the ys lists of its groups
    for prefix, d, _, ys in groups:
        level = len(prefix) + 1
        level_counts[level] = level_counts.get(level, 0) + len(ys)
        if level >= r:
            ds.add((level, d))
            reach.setdefault(mask_of(prefix), []).append(ys)

    def floor_d(l: int) -> int:
        return comb(l, t) * l * k ** (l - t - 1)

    cover_levels: dict[int, list[int]] = {}
    for m in cover.members:
        cover_levels.setdefault(m.bit_count(), []).append(m)
    # a survivor's sequence has no repeats, so its set fixes its level; the
    # set m is a survivor's iff some y in m completes m - y in a group
    coverage_ok = all(any(y in ys for y in elements_of(m)
                          for ys in reach.get(m ^ 1 << (y - 1), ()))
                      for level, masks in cover_levels.items() if level >= r
                      for m in masks)

    weight_bound_ok = all(d <= floor_d(l) for l, d in ds)  # 1/d >= 1/floor_d(l)

    lam = {level: Fraction(len(masks), floor_d(level))
           for level, masks in sorted(cover_levels.items()) if r <= level <= k}
    lhs = sum(lam.values(), Fraction(0))
    return BranchReport(groups, total, level_counts, lam, coverage_ok, weight_bound_ok, lhs)


def _verified(report: BranchReport) -> BranchReport:
    """report, after raising VerificationError for the first check it failed."""
    if not report.coverage_ok:
        raise VerificationError("a basis set at level >= r was not covered by a survivor")
    if not report.weight_bound_ok:
        raise VerificationError("a survivor weight fell below its level floor")
    if report.inequality_lhs > 1:
        raise VerificationError(f"sum of level weights {report.inequality_lhs} exceeds 1")
    return report


def run_branching_cross(b1: Family, b2: Family, k: int, r: int,
                        rng: random.Random | None = None,
                        max_nodes: int = 10 ** 6) -> BranchReport:
    """Run the weighted branching process driven by b1 against b2.

    Requires b1, b2 to be cross-intersecting antichains of sets of size
    <= k with min-size of b1 at least 2 and tau of the <=r part of b1 at
    least 2.  This is the t-process at t = 1 on b1: seeds weigh 1/s and
    every extension is by a member disjoint from the sequence.  Survivor
    sets of each level l >= r must include every level-l member of b2,
    each survivor at level l >= r has weight at least 1/(l^2 k^(l-2)), and
    the normalised level counts of b2 sum to at most 1; a failed check
    raises VerificationError.  Raises NodeLimitExceeded past max_nodes
    sequences.
    """
    if not b1.members or not b2.members:
        raise DomainError("branching needs nonempty bases")
    if any(m.bit_count() > k for m in b1.members + b2.members):
        raise DomainError("a basis set exceeds size k")
    hit = _holders(b1)
    if not (_is_antichain(b1.members, hit) and _is_antichain(b2.members, _holders(b2))):
        raise DomainError("bases must be antichains")
    s = min(m.bit_count() for m in b1.members)
    if s < 2:
        raise DomainError(f"hypothesis s(B1) >= 2 violated (s = {s})")
    _require_same_ground(b1, b2)
    if not _is_cross_intersecting(b1.members, hit, b2.members):
        raise DomainError("bases must be cross-intersecting")
    low = [m for m in b1.members if m.bit_count() <= r]
    if not low or not _tau_t_exceeds_t(low, 1):
        raise DomainError(f"hypothesis tau(B1 restricted to sizes <= {r}) >= 2 violated")

    return _verified(_finish_report(*_grow(b1.members, hit, r, 1, rng, max_nodes), b2, 1, k, r))


def run_branching_t(b: Family, t: int, k: int, r: int,
                    rng: random.Random | None = None,
                    max_nodes: int = 10 ** 6) -> BranchReport:
    """Run the t-intersecting branching process on the basis b.

    Requires b to be a t-intersecting antichain of sets of size <= k with
    min-size at least t+1 and tau_t of the <=r part at least t+1.  The
    first stage splits on every t-subset of a minimum-size member with
    weight 1/C(s, t); extension steps divide by |B - S|.  The report's
    checks are those of the cross process, and a failed one raises
    VerificationError.  Raises NodeLimitExceeded past max_nodes sequences.
    """
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if not b.members:
        raise DomainError("branching needs a nonempty basis")
    if any(m.bit_count() > k for m in b.members):
        raise DomainError("a basis set exceeds size k")
    hit = _holders(b)
    if not _is_antichain(b.members, hit):
        raise DomainError("basis must be an antichain")
    s = min(m.bit_count() for m in b.members)
    if s < t + 1:
        raise DomainError(f"hypothesis s(B) >= t+1 violated (s = {s})")
    if not _is_t_intersecting(b.members, hit, t):
        raise DomainError("basis must be t-intersecting")
    low = [m for m in b.members if m.bit_count() <= r]
    if not low or not _tau_t_exceeds_t(low, t):
        raise DomainError(f"hypothesis tau_t(B restricted to sizes <= {r}) >= t+1 violated")

    return _verified(_finish_report(*_grow(b.members, hit, r, t, rng, max_nodes), b, t, k, r))


def verify_window_closure(b: Family, t: int, n: int, k: int) -> bool:
    """Whether the upward k-closure of b is the window family up to relabeling.

    b must be a (t+1)-uniform t-intersecting antichain over [n] with
    tau_t(b) >= t+1.  The relabelings tried map the t+2 support elements
    onto {1, ..., t+2} and the other elements onto the others.  One of them
    decides: two such maps differ by a permutation that fixes {1, ..., t+2}
    setwise, and every such permutation fixes the window family.  The one
    used keeps both parts in order, and since relabeling commutes with the
    closure it is applied to b.
    """
    if b.ground.n != n:
        raise DomainError(f"basis lives on [{b.ground.n}], expected [{n}]")
    if not b.members:
        raise DomainError("empty basis")
    if b.infer_uniformity() != t + 1:
        raise DomainError("basis must be (t+1)-uniform")
    if not is_t_intersecting(b, t):
        raise DomainError("basis must be t-intersecting")
    if not _tau_t_exceeds_t(b.members, t):
        raise DomainError(f"hypothesis tau_t(B) >= t+1 violated")

    support = elements_of(b.support())
    if len(support) != t + 2:
        return False
    if n < max(k, t + 2):
        raise DomainError(f"need n >= max(k, t+2), got n={n} k={k}")

    order = support + tuple(e for e in range(1, n + 1) if e not in support)
    perm = dict(zip(order, range(1, n + 1)))
    relabeled = Family.from_masks((mask_of(perm[e] for e in elements_of(m)) for m in b.members),
                                  b.ground)
    return upward_closure(relabeled, k) == window_family(n, k, t)
