"""Named extremal families and counterexample gadgets, built exactly.

The paper's extremal families are unions of stars S_T (the k-sets
containing T) over declared bases T: the star's centre, ``FOUR_STAR_BASES``
for A1 and A2, and ``window_basis(t)`` for A(n,k,t).  Each builder checks
its arguments and takes one ``transversals.upward_closure`` of its bases.

The CLI-facing names (star, A1, A2, A3, Ankt, prop21_tight, antichain_52,
cross_sperner_54) are stable identifiers, the keys of the ``_CONSTRUCTIONS``
table; the functions carry descriptive names.  Pair-valued constructions
return (Family, Family).  ``construct`` refuses a parameter its entry does not
name and validates the rest, integers as the formulas do (``formulas._need``)
and a set as a list of elements of [n]; ``verify_construction`` reports the
first member or member pair, in scan order, that breaks the advertised property.
"""

from __future__ import annotations

from itertools import combinations, product

from .families import DomainError, Family, GroundSet, elements_of, full_layer, mask_of
from .formulas import _need
from .transversals import upward_closure

# A1 and A2: each side is two pair-stars and two triple-stars
FOUR_STAR_BASES = (((1, 2), (3, 4), (1, 4, 5), (2, 3, 6)),
                   ((1, 3), (2, 4), (1, 4, 6), (2, 3, 5)))


def window_basis(t: int) -> tuple[tuple[int, ...], ...]:
    """The bases of A(n,k,t): the (t+1)-subsets of {1, ..., t+2}."""
    return tuple(combinations(range(1, t + 3), t + 1))


def _stars(n: int, k: int, bases) -> Family:
    """The k-sets of [n] containing some basis set; one above k adds nothing."""
    masks = [m for m in map(mask_of, bases) if m.bit_count() <= k]
    return upward_closure(Family.from_masks(masks, GroundSet(n)), k)


def star(n: int, k: int, center) -> Family:
    """All k-sets of [n] containing the fixed set `center`."""
    if not GroundSet(n).contains_mask(mask_of(center)):
        raise DomainError(f"center {tuple(center)} not inside [{n}]")
    if k < 0:
        raise DomainError(f"uniformity {k} out of range for n={n}")
    if k > n:
        raise DomainError(f"k={k} out of range for n={n}")
    return _stars(n, k, [center])


def four_star_pair(n: int, k: int) -> tuple[Family, Family]:
    """The pair of four-star unions that maximises distinct intersections.

    At k = 2 the triple-stars are empty and only elements 1..4 are used, so
    n >= 4 suffices there (n >= 6 otherwise).
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    needed = 6 if k >= 3 else 4
    if n < max(needed, k):
        raise DomainError(f"need n >= {max(needed, k)} at k={k}, got n={n}")
    a1, a2 = FOUR_STAR_BASES
    return _stars(n, k, a1), _stars(n, k, a2)


def window_family(n: int, k: int, t: int) -> Family:
    """All k-sets meeting {1, ..., t+2} in at least t+1 elements."""
    if t < 1 or k < t + 1 or n < max(k, t + 2):
        raise DomainError(f"need t >= 1, k > t, n >= max(k, t+2); got n={n} k={k} t={t}")
    return _stars(n, k, window_basis(t))


def triangle_family(n: int, k: int) -> Family:
    """All k-sets meeting {1, 2, 3} in at least two elements."""
    return window_family(n, k, 1)


def four_core_pair(n: int, k: int) -> tuple[Family, Family]:
    """A cross-intersecting pair whose distinct intersections contain four
    pairwise disjoint (k-1)-sets.

    The cores D_1..D_4 are consecutive blocks of [4(k-1)], d_i = min(D_i),
    and the extra elements are wired as x1 = x2 = y4 = d3, x3 = y1 = d2,
    x4 = y2 = y3 = d1.  At small k some of the eight sets coincide and
    collapse under deduplication.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    if n < max(4 * (k - 1), 4):
        raise DomainError(f"need n >= {max(4 * (k - 1), 4)} at k={k}, got n={n}")
    ground = GroundSet(n)
    blocks = [tuple(range(1 + i * (k - 1), 1 + (i + 1) * (k - 1))) for i in range(4)]
    d = [blocks[i][0] for i in range(3)]
    x = [d[2], d[2], d[1], d[0]]
    y = [d[1], d[0], d[0], d[2]]
    f = [mask_of(blocks[i]) | mask_of([x[i]]) for i in range(4)]
    g = [mask_of(blocks[i]) | mask_of([y[i]]) for i in range(4)]
    return (Family.from_masks(f, ground, k), Family.from_masks(g, ground, k))


def top_layer_antichain(n: int) -> Family:
    """The (n - floor(n/3))-uniform layer of 2^[n]."""
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    ell = n // 3
    return full_layer(GroundSet(n), n - ell)


def split_cross_sperner_pair(n: int, x_elements) -> tuple[Family, Family]:
    """The cross-Sperner pair built from a partition [n] = X u Y.

    One side is {A u Y : A a proper subset of X}, the other
    {X u B : B a proper subset of Y}.
    """
    ground = GroundSet(n)
    x_mask = mask_of(x_elements)
    if not ground.contains_mask(x_mask):
        raise DomainError(f"X not inside [{n}]")
    y_mask = ground.full_mask & ~x_mask
    if x_mask == 0 or y_mask == 0:
        raise DomainError("both parts of the partition must be nonempty")

    def proper_subsets(mask: int):
        elems = elements_of(mask)
        for size in range(len(elems)):
            for combo in combinations(elems, size):
                yield mask_of(combo)

    a = Family.from_masks((y_mask | s for s in proper_subsets(x_mask)), ground)
    b = Family.from_masks((x_mask | s for s in proper_subsets(y_mask)), ground)
    return a, b


# name -> (integer parameter names, set-valued parameter or None, builder);
# the builder takes the integers positionally in that order, then the set
_CONSTRUCTIONS = {
    "star": (("n", "k"), "T", star),
    "A1": (("n", "k"), None, lambda n, k: four_star_pair(n, k)[0]),
    "A2": (("n", "k"), None, lambda n, k: four_star_pair(n, k)[1]),
    "A3": (("n", "k"), None, triangle_family),
    "Ankt": (("n", "k", "t"), None, window_family),
    "prop21_tight": (("n", "k"), None, four_core_pair),
    "antichain_52": (("n",), None, top_layer_antichain),
    "cross_sperner_54": (("n",), "X", split_cross_sperner_pair),
}

CONSTRUCTION_NAMES = tuple(_CONSTRUCTIONS)


def construct(name: str, params: dict):
    """Build a named construction; returns a Family or a (Family, Family) pair."""
    entry = _CONSTRUCTIONS.get(name)
    if entry is None:
        raise DomainError(f"unknown construction {name!r}")
    names, set_name, builder = entry
    unread = [key for key in params if key not in names and key != set_name]
    if unread:
        raise DomainError(f"{name} does not read parameter {', '.join(map(repr, unread))}")
    ints = _need(params, *names)  # every builder takes n first
    if set_name is None:
        return builder(*ints)
    elems = params.get(set_name)
    if elems is None:
        raise DomainError(f"{name} needs parameter {set_name!r}")
    if not isinstance(elems, list) or not all(type(e) is int and 1 <= e <= ints[0] for e in elems):
        raise DomainError(f"{name} parameter {set_name!r} must be a list of integers "
                          f"in 1..{ints[0]}, got {elems!r}")
    return builder(*ints, elems)


def _comparable(a: int, b: int) -> bool:
    return a & b in (a, b)


def verify_construction(name: str, params: dict) -> dict:
    """Run the advertised predicate of a construction; report a witness on failure.

    The witness is the first member (star) or member pair, in scan order,
    that breaks the predicate.
    """
    built = construct(name, params)
    if name in ("A1", "A2"):
        built = four_star_pair(*_need(params, "n", "k"))
    if name == "star":
        center = mask_of(params["T"])
        scan, bad = ((m,) for m in built.members), lambda m: m & center != center
    elif name in ("A3", "Ankt"):
        t = 1 if name == "A3" else params["t"]
        scan, bad = product(built.members, repeat=2), lambda a, b: (a & b).bit_count() < t
    elif name == "antichain_52":
        scan, bad = combinations(built.members, 2), _comparable
    else:
        scan = product(built[0].members, built[1].members)
        bad = _comparable if name == "cross_sperner_54" else lambda a, b: not a & b
    witness = next(([list(elements_of(m)) for m in sets] for sets in scan if bad(*sets)), None)
    return {"name": name, "params": dict(params), "ok": witness is None, "witness": witness}
