"""Executable weighted branching processes over bases, with exact rationals.

The t-process replaces a live sequence S by one child per element of B - S
for a chosen basis set B with |B & S| < t, dividing its weight evenly, so
the total live weight is exactly 1 at every stage; this is checked as
rational equality after every round.  A sequence survives once every basis
set meets it in at least t elements.  The cross process is the t-process at
t = 1 driven by B1 (seeds weigh 1/s, B is disjoint from S), with coverage
and level weights read from B2; both run the one frontier in ``_grow``.

Each live sequence carries the list its pool is filtered from: its parent's
pool {m : |m & S| < t}.  Filtering that list by the child's set is exact,
since |m & S| only grows with S, and keeps the basis order.  Conservation
sums one (shared Fraction, count) pair per sibling group, and retired
survivors enter a running total once.  The hypothesis tau_t(F) >= t+1 needs
no search: a set of at most t elements meets every member in t elements
only if it is a t-set inside all of them, so for members of size >= t it
holds iff fewer than t elements lie in every member.

The selection rule is deterministic by default (smallest cardinality, then
smallest mask, among the qualifying sets); pass a seeded ``random.Random``
to exercise the claims under arbitrary legal selections.

``BranchReport.to_json`` renders each distinct chosen set, chosen-set tuple
and weight of the survivors once and splices that text into the
``json.dumps`` text of the other fields, byte for byte the text of
``json.dumps(to_json_dict(), sort_keys=True)``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import and_

from .constructions import window_family
from .families import (
    DomainError,
    Family,
    NodeLimitExceeded,
    VerificationError,
    elements_of,
    is_antichain,
    is_cross_intersecting,
    is_t_intersecting,
    mask_of,
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
    """Outcome of a branching run; all rationals are exact."""

    survivors: list
    total_weight: Fraction
    level_counts: dict
    lam: dict
    coverage_ok: bool
    weight_bound_ok: bool
    inequality_lhs: Fraction

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

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_json_dict(), sort_keys=True)``.

        Each distinct chosen set, chosen-set tuple and weight is rendered
        once.  ``str`` of a list of ints is its JSON text; that of a tuple
        is not, so every sequence goes through ``list``.
        """
        sets: dict[int, str] = {}
        tuples: dict[tuple[int, ...], str] = {}
        weights: dict[tuple[int, int], str] = {}
        parts = []
        for s in self.survivors:
            chosen = tuples.get(s.chosen_sets)
            if chosen is None:
                for m in s.chosen_sets:
                    if m not in sets:
                        sets[m] = str(list(elements_of(m)))
                chosen = "[" + ", ".join([sets[m] for m in s.chosen_sets]) + "]"
                tuples[s.chosen_sets] = chosen
            key = (s.weight.numerator, s.weight.denominator)
            weight = weights.get(key)
            if weight is None:
                weight = weights[key] = json.dumps(_frac(s.weight))
            parts.append(f'{{"chosen_sets": {chosen}, "elements": {list(s.elements)}, '
                         f'"weight": {weight}}}')
        return splice_json(self._scalars(), "survivors", "[" + ", ".join(parts) + "]")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def splice_json(obj: dict, key: str, encoded: str) -> str:
    """The bytes of ``json.dumps(obj | {key: value}, sort_keys=True)``.

    ``encoded`` is the JSON text of value, taken verbatim; obj's keys are
    strings.  The keys of obj below key are dumped before it and those
    above it after it, with json's default separators.
    """
    head = json.dumps({k: v for k, v in obj.items() if k < key}, sort_keys=True)[1:-1]
    tail = json.dumps({k: v for k, v in obj.items() if k > key}, sort_keys=True)[1:-1]
    item = f"{json.dumps(key)}: {encoded}"
    return "{" + ", ".join(part for part in (head, item, tail) if part) + "}"


def _choose(pool: list[int], rng: random.Random | None) -> int:
    if rng is None:
        return min(pool, key=lambda m: (m.bit_count(), m))
    return rng.choice(sorted(pool))


def _tau_t_exceeds_t(members, t: int) -> bool:
    """tau_t >= t+1 for nonempty members of size >= t: fewer than t common elements."""
    return reduce(and_, members).bit_count() < t


def _weight_sum(groups) -> Fraction:
    """Exact sum of count * w over (Fraction w, count) pairs, each distinct w added once."""
    counts: Counter = Counter()
    for w, c in groups:
        counts[w.numerator, w.denominator] += c
    return sum((Fraction(p * c, q) for (p, q), c in counts.items()), Fraction(0))


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


def _grow(low: list[int], members: tuple[int, ...], seed: int, t: int,
          rng: random.Random | None, max_nodes: int):
    """Run the t-process from the t-subsets of seed; return survivors, survivor sets.

    The first extension draws from low, every later one from members.
    """
    weight = Fraction(1, comb(seed.bit_count(), t))
    # a live sequence: elements, weight, chosen sets, set mask S, and the
    # list its pool {m : |m & S| < t} is filtered from (its parent's pool)
    frontier = [(combo, weight, (seed,), mask_of(combo), low)
                for combo in combinations(elements_of(seed), t)]
    groups = [(weight, len(frontier))]
    survivors: list[BranchSequence] = []
    survivor_sets: set[int] = set()
    retired = Fraction(0)
    nodes = 0
    first = True
    while True:
        total = _weight_sum(groups) + retired
        if total != 1:
            raise VerificationError(f"live weight is {total} mid-run, expected exactly 1")
        if not frontier:
            return survivors, survivor_sets
        nxt = []
        groups = []
        done = []
        for elements, weight, chosen_sets, smask, pool in frontier:
            pool = [m for m in pool if (m & smask).bit_count() < t]
            if not pool:
                done.append(BranchSequence(elements, weight, chosen_sets))
                survivor_sets.add(smask)
                continue
            chosen = _choose(pool, rng)
            free = chosen & ~smask
            nodes += free.bit_count()
            if nodes > max_nodes:
                raise NodeLimitExceeded(f"branching exceeded {max_nodes} nodes")
            share = weight / free.bit_count()
            chosen_sets += (chosen,)
            inherited = members if first else pool
            before = len(nxt)
            for y in elements_of(free):
                nxt.append((elements + (y,), share, chosen_sets, smask | 1 << (y - 1),
                            inherited))
            # siblings share one weight: take it and their number from nxt itself
            groups.append((nxt[-1][1], len(nxt) - before))
        retired += _weight_sum((s.weight, 1) for s in done)
        survivors += done
        frontier = nxt
        first = False


def _finish_report(survivors, survivor_sets: set[int], cover: Family, t: int, k: int,
                   r: int, strict: bool) -> BranchReport:
    """Check the survivors, with element masks survivor_sets, against cover's levels >= r.

    Level l weighs 1/(C(l, t) l k^(l-t-1)): the floor of a level-l survivor,
    and each level-l member's share of the inequality's left-hand side.
    """
    total = _weight_sum((s.weight, 1) for s in survivors)
    level_counts: dict[int, int] = {}
    for s in survivors:
        level_counts[len(s.elements)] = level_counts.get(len(s.elements), 0) + 1

    if total != 1:
        raise VerificationError(f"total survivor weight is {total}, expected exactly 1")

    def level_weight(l: int) -> Fraction:
        return Fraction(1, comb(l, t) * l * k ** (l - t - 1))

    cover_levels: dict[int, list[int]] = {}
    for m in cover.members:
        cover_levels.setdefault(m.bit_count(), []).append(m)
    # a survivor's sequence has no repeats, so its set fixes its level
    coverage_ok = all(m in survivor_sets
                      for level, masks in cover_levels.items() if level >= r
                      for m in masks)

    # survivors carry few distinct (level, weight) pairs: compare each once
    level_weights = {(len(s.elements), s.weight.numerator, s.weight.denominator)
                     for s in survivors if len(s.elements) >= r}
    weight_bound_ok = all(Fraction(p, q) >= level_weight(l) for l, p, q in level_weights)

    lam = {level: len(masks) * level_weight(level)
           for level, masks in sorted(cover_levels.items()) if r <= level <= k}
    lhs = sum(lam.values(), Fraction(0))
    report = BranchReport(survivors, total, level_counts, lam, coverage_ok,
                          weight_bound_ok, lhs)
    if strict:
        if not coverage_ok:
            raise VerificationError("a basis set at level >= r was not covered by a survivor")
        if not weight_bound_ok:
            raise VerificationError("a survivor weight fell below its level floor")
        if lhs > 1:
            raise VerificationError(f"sum of level weights {lhs} exceeds 1")
    return report


def run_branching_cross(b1: Family, b2: Family, k: int, r: int,
                        rng: random.Random | None = None, strict: bool = True,
                        max_nodes: int = 10 ** 6) -> BranchReport:
    """Run the weighted branching process driven by b1 against b2.

    Requires b1, b2 to be cross-intersecting antichains of sets of size
    <= k with min-size of b1 at least 2 and tau of the <=r part of b1 at
    least 2.  This is the t-process at t = 1 on b1: seeds weigh 1/s and
    every extension is by a member disjoint from the sequence.  Survivor
    sets of each level l >= r must include every level-l member of b2,
    each survivor at level l >= r has weight at least 1/(l^2 k^(l-2)), and
    the normalised level counts of b2 sum to at most 1.  Raises
    NodeLimitExceeded past max_nodes sequences.
    """
    if not b1.members or not b2.members:
        raise DomainError("branching needs nonempty bases")
    if any(m.bit_count() > k for m in b1.members + b2.members):
        raise DomainError("a basis set exceeds size k")
    if not (is_antichain(b1) and is_antichain(b2)):
        raise DomainError("bases must be antichains")
    s = min(m.bit_count() for m in b1.members)
    if s < 2:
        raise DomainError(f"hypothesis s(B1) >= 2 violated (s = {s})")
    if not is_cross_intersecting(b1, b2):
        raise DomainError("bases must be cross-intersecting")
    low = [m for m in b1.members if m.bit_count() <= r]
    if not low or not _tau_t_exceeds_t(low, 1):
        raise DomainError(f"hypothesis tau(B1 restricted to sizes <= {r}) >= 2 violated")

    seed = _choose([m for m in b1.members if m.bit_count() == s], rng)
    return _finish_report(*_grow(low, b1.members, seed, 1, rng, max_nodes), b2, 1, k, r,
                          strict)


def run_branching_t(b: Family, t: int, k: int, r: int,
                    rng: random.Random | None = None, strict: bool = True,
                    max_nodes: int = 10 ** 6) -> BranchReport:
    """Run the t-intersecting branching process on the basis b.

    Requires b to be a t-intersecting antichain of sets of size <= k with
    min-size at least t+1 and tau_t of the <=r part at least t+1.  The
    first stage splits on every t-subset of a minimum-size member with
    weight 1/C(s, t); extension steps divide by |B - S|.  Raises
    NodeLimitExceeded past max_nodes sequences.
    """
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    if not b.members:
        raise DomainError("branching needs a nonempty basis")
    if any(m.bit_count() > k for m in b.members):
        raise DomainError("a basis set exceeds size k")
    if not is_antichain(b):
        raise DomainError("basis must be an antichain")
    s = min(m.bit_count() for m in b.members)
    if s < t + 1:
        raise DomainError(f"hypothesis s(B) >= t+1 violated (s = {s})")
    if not is_t_intersecting(b, t):
        raise DomainError("basis must be t-intersecting")
    low = [m for m in b.members if m.bit_count() <= r]
    if not low or not _tau_t_exceeds_t(low, t):
        raise DomainError(f"hypothesis tau_t(B restricted to sizes <= {r}) >= t+1 violated")

    seed = _choose([m for m in b.members if m.bit_count() == s], rng)
    return _finish_report(*_grow(low, b.members, seed, t, rng, max_nodes), b, t, k, r,
                          strict)


def verify_window_closure(b: Family, t: int, n: int, k: int) -> bool:
    """Whether the upward k-closure of b is the window family up to relabeling.

    b must be a (t+1)-uniform t-intersecting antichain over [n] with
    tau_t(b) >= t+1.  Relabelings are checked by mapping the (at most t+2)
    support elements onto {1, ..., t+2} in every possible way and extending
    order-preservingly elsewhere.
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

    closure = upward_closure(b, k)
    target = window_family(n, k, t)
    window = tuple(range(1, t + 3))
    others_src = [e for e in range(1, n + 1) if e not in support]
    others_dst = [e for e in range(1, n + 1) if e not in window]

    for image in permutations(window):
        perm = list(range(n + 1))
        for src, dst in zip(support, image):
            perm[src] = dst
        for src, dst in zip(others_src, others_dst):
            perm[src] = dst
        remapped = Family.from_masks(
            (mask_of(perm[e] for e in elements_of(m)) for m in closure.members),
            closure.ground, k)
        if remapped == target:
            return True
    return False
