"""Reference enumerations used to derive and re-derive expected test values.

Deliberately naive and independent of the package: plain frozensets and
itertools only.  Tests compare package results against these oracles and
against literals frozen from oracle runs.
"""

from itertools import combinations


def ksets(n, k):
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def star_sets(n, k, center):
    c = frozenset(center)
    return [s for s in ksets(n, k) if c <= s]


def union_families(*fams):
    out = []
    for fam in fams:
        for s in fam:
            if s not in out:
                out.append(s)
    return out


def wedge_sets(f, g):
    return {a & b for a in f for b in g}


def distinct_sets(f, g):
    return {a & b for a in f for b in g if a != b}


def cross_intersecting(f, g):
    return all(a & b for a in f for b in g)


def pair_t_intersecting(f, t):
    return all(len(a & b) >= t for a in f for b in f)


def window_sets(n, k, t):
    w = frozenset(range(1, t + 3))
    return [s for s in ksets(n, k) if len(s & w) >= t + 1]


def min_cover_size(f, t=1):
    n = max(max(s) for s in f)
    for size in range(0, n + 1):
        for c in combinations(range(1, n + 1), size):
            cs = frozenset(c)
            if all(len(cs & s) >= t for s in f):
                return size
    return None


def max_matching(f):
    f = list(f)

    def rec(idx, used):
        best = 0
        for i in range(idx, len(f)):
            if not f[i] & used:
                best = max(best, 1 + rec(i + 1, used | f[i]))
        return best

    return rec(0, frozenset())


def transversals_upto(f, t, max_size, n):
    out = []
    for size in range(0, max_size + 1):
        for c in combinations(range(1, n + 1), size):
            cs = frozenset(c)
            if all(len(cs & s) >= t for s in f):
                out.append(cs)
    return out


def _mask(s):
    return sum(1 << (e - 1) for e in s)


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


def branching_oracle(members, cover, t, k, r, rng=None, cross=False):
    """The branching process as first written, as its report's JSON dict.

    members and cover are lists of frozensets.  Every round recomputes each
    pool from the whole basis and sums the live weight as a plain sum of
    Fractions.  cross=True is the cross process driven by members: seeds
    weigh 1/s, pools hold the members disjoint from the sequence, and a
    split divides by |B|; otherwise the t-process: seeds are the t-subsets
    of the seed with weight 1/C(s, t), pools hold the members meeting the
    sequence in fewer than t elements, and a split divides by |B - S|.
    """
    from fractions import Fraction
    from math import comb

    def choose(pool):
        if rng is None:
            return min(pool, key=lambda m: (len(m), _mask(m)))
        return rng.choice(sorted(pool, key=_mask))

    def qualifies(m, seq):
        return not m & set(seq) if cross else len(m & set(seq)) < t

    def check(frontier, survivors):
        total = sum(w for _, w, _ in frontier) + sum(w for _, w, _ in survivors)
        assert total == 1, total

    s = min(len(m) for m in members)
    seed = choose([m for m in members if len(m) == s])
    if cross:
        frontier = [((y,), Fraction(1, s), (seed,)) for y in sorted(seed)]
    else:
        frontier = [(c, Fraction(1, comb(s, t)), (seed,))
                    for c in combinations(sorted(seed), t)]
    survivors = []
    check(frontier, survivors)
    low = [m for m in members if len(m) <= r]
    stage = 2
    while frontier:
        nxt = []
        for seq, w, chosen_sets in frontier:
            pool = [m for m in (low if stage == 2 else members) if qualifies(m, seq)]
            if not pool:
                survivors.append((seq, w, chosen_sets))
                continue
            chosen = choose(pool)
            free = sorted(chosen - set(seq))
            for y in free:
                nxt.append((seq + (y,), w / len(free), chosen_sets + (chosen,)))
        frontier = nxt
        stage += 1
        check(frontier, survivors)

    def floor_denominator(l):
        return l * l * k ** (l - 2) if cross else comb(l, t) * l * k ** (l - t - 1)

    level_counts = {}
    for seq, _, _ in survivors:
        level_counts[len(seq)] = level_counts.get(len(seq), 0) + 1
    survivor_sets = {(frozenset(seq), len(seq)) for seq, _, _ in survivors}
    lam = {}
    for m in cover:
        if r <= len(m) <= k:
            lam[len(m)] = lam.get(len(m), 0) + Fraction(1, floor_denominator(len(m)))
    return {
        "survivors": [
            {"elements": list(seq), "weight": _frac(w),
             "chosen_sets": [sorted(c) for c in chosen_sets]}
            for seq, w, chosen_sets in survivors
        ],
        "total_weight": _frac(sum(w for _, w, _ in survivors)),
        "level_counts": {str(l): c for l, c in level_counts.items()},
        "lambda": {str(l): _frac(v) for l, v in lam.items()},
        "coverage_ok": all((m, len(m)) in survivor_sets for m in cover if len(m) >= r),
        "weight_bound_ok": all(w >= Fraction(1, floor_denominator(len(seq)))
                               for seq, w, _ in survivors if len(seq) >= r),
        "inequality_lhs": _frac(sum(lam.values(), Fraction(0))),
    }


def cross_scan_oracle(n, k, distinct):
    """The plain scan over every nonempty family F of k-sets, with G = T(F).

    T(X) is the family of k-sets meeting every member of X.  Returns the
    maximum of |I(F, G)| (distinct=True) or |F wedge G| over all F, and the
    smallest (F-key, G-key) among the maximizers with T(T(F)) = F.  A key
    is the ascending tuple of member bitmasks.  Families are bitsets over
    the sorted k-sets, and each one's members and T-image extend those of
    the family without its lowest member.
    """
    masks = sorted(_mask(s) for s in ksets(n, k))
    size = len(masks)
    meet = [[a & b for b in masks] for a in masks]
    rows = [sum(1 << j for j, m in enumerate(row) if m) for row in meet]
    members = [[]] + [None] * ((1 << size) - 1)
    t_map = [(1 << size) - 1] + [None] * ((1 << size) - 1)
    for bits in range(1, 1 << size):
        low = (bits & -bits).bit_length() - 1
        rest = bits & (bits - 1)
        members[bits] = [low] + members[rest]
        t_map[bits] = t_map[rest] & rows[low]
    best_val, best_key = -1, None
    values = [None] * (1 << size)
    for fb in range(1, 1 << size):
        gs = members[t_map[fb]]
        values[fb] = len({meet[i][j] for i in members[fb] for j in gs
                          if not distinct or i != j})
        best_val = max(best_val, values[fb])
    for fb in range(1, 1 << size):
        gb = t_map[fb]
        if values[fb] == best_val and t_map[gb] == fb:
            key = (tuple(masks[i] for i in members[fb]),
                   tuple(masks[i] for i in members[gb]))
            if best_key is None or key < best_key:
                best_key = key
    return best_val, best_key


def _layer_masks(n, k):
    return sorted(_mask(s) for s in ksets(n, k))


def saturate_t_sweep(members, n, k, t):
    """Saturation of a t-intersecting family of k-set bitmasks, by sweeps.

    The k-sets are swept in ascending mask order, and each one that meets
    every member collected so far in >= t elements is added.  A second
    sweep must add nothing.  Returns the sorted member masks.
    """
    fam = list(members)
    have = set(fam)
    layer = _layer_masks(n, k)
    for _ in range(2):
        added = 0
        for h in layer:
            if h not in have and all((h & m).bit_count() >= t for m in fam):
                fam.append(h)
                have.add(h)
                added += 1
        if not added:
            return sorted(fam)
    raise AssertionError("the sweep did not reach a fixed point")


def sample_t_draws(n, k, t, rng, max_members=3):
    """The k-set bitmasks the t-family sampler draws, before saturation.

    One k-set from the sorted layer, then up to max_members - 1 more, each
    from the list of the sorted k-sets not yet drawn that meet every drawn
    one in >= t elements.
    """
    layer = _layer_masks(n, k)
    chosen = [rng.choice(layer)]
    for _ in range(rng.randint(0, max_members - 1)):
        pool = [m for m in layer
                if m not in chosen and all((m & c).bit_count() >= t for c in chosen)]
        if not pool:
            break
        chosen.append(rng.choice(pool))
    return chosen


def recursive_cliques(n, k, t):
    """The maximal t-intersecting families of k-sets, by recursive Bron-Kerbosch.

    Vertices are the sorted k-set bitmasks, joined when distinct and sharing
    >= t elements.  The pivot is the first vertex of P u X (in index order)
    with the most neighbours in P, and the candidates outside its
    neighbourhood are expanded lowest first.  Returns the cliques as vertex
    bitsets, in the order found, and the number of calls.
    """
    layer = _layer_masks(n, k)
    neigh = [sum(1 << j for j, b in enumerate(layer) if b != a and (a & b).bit_count() >= t)
             for a in layer]
    out, calls = [], [0]

    def bk(r, p, x):
        calls[0] += 1
        if not p and not x:
            out.append(r)
            return
        pool = [u for u in range(len(layer)) if (p | x) >> u & 1]
        pivot = max(pool, key=lambda u: (p & neigh[u]).bit_count())
        for v in range(len(layer)):
            if (p & ~neigh[pivot]) >> v & 1:
                bk(r | 1 << v, p & neigh[v], x & neigh[v])
                p &= ~(1 << v)
                x |= 1 << v

    bk(0, (1 << len(layer)) - 1, 0)
    return out, calls[0]


def recursive_antichains(n):
    """Every antichain of subsets of [n], by recursion: each antichain (an
    ascending tuple of set bitmasks) and then its extensions by one larger
    incomparable set, smallest first."""
    out = []

    def rec(chosen):
        out.append(chosen)
        for s in range((chosen[-1] + 1) if chosen else 0, 1 << n):
            if all(s & c not in (s, c) for c in chosen):
                rec(chosen + (s,))

    rec(())
    return out
