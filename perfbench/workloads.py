"""Workload plans: the seeded inputs and the list of timed operations.

A plan is a JSON-able dict that the parent writes before a pass and the child
executes.  Every operation is one of

- ``cli``: one ``crossfam`` command through ``cli.main`` with ``--output``;
- ``bases``: one saturate -> basis -> branching level -> text pipeline on a
  seeded input family file (library calls, there is no CLI command for it).

Inputs are generated here with plain ``random`` and bit arithmetic, never
with the package under test.  Expected values are references that do not
come from the code under test: the paper's closed forms where it gives one,
otherwise the exhaustive value the seed code computed, recorded below.
"""

from __future__ import annotations

import os
import random
from itertools import combinations

from reference import ref_pair_bases, ref_t_basis

# (op id, objective, n, k, t, expected value or None for the seeded sampler,
#  source of the expected value)
SEARCHES = {
    "full": [
        ("I_cross_7_2", "I_cross", 7, 2, None, 4, "I_A1A2_15(7,2)"),
        ("I_cross_6_2", "I_cross", 6, 2, None, 4, "I_A1A2_15(6,2)"),
        ("wedge_cross_6_2", "wedge_cross", 6, 2, None, 6, "seed exhaustive value"),
        ("I_t_8_3_1", "I_t_intersecting", 8, 3, 1, 21, "I_A3_case31(8,3)"),
        ("I_t_7_3_1", "I_t_intersecting", 7, 3, 1, 21, "seed exhaustive value"),
        ("I_antichain_5", "I_antichain", 5, None, None, 15, "seed exhaustive value"),
        ("cross_sperner_4", "cross_sperner", 4, None, None, 9, "m_even_55(4)"),
        ("cross_sperner_5", "cross_sperner", 5, None, None, None, "seeded sampler"),
    ],
    "small": [
        ("I_cross_5_2", "I_cross", 5, 2, None, 4, "I_A1A2_15(5,2)"),
        ("wedge_cross_4_2", "wedge_cross", 4, 2, None, 6, "seed exhaustive value"),
        ("I_t_6_2_1", "I_t_intersecting", 6, 2, 1, 3, "I_A3_case31(6,2)"),
        ("I_antichain_4", "I_antichain", 4, None, None, 6, "seed exhaustive value"),
        ("cross_sperner_3", "cross_sperner", 3, None, None, 3, "seed exhaustive value"),
        ("cross_sperner_5", "cross_sperner", 5, None, None, None, "seeded sampler"),
    ],
}

# the searches whose seconds are also reported on their own
SEARCH_PARTS = ("I_cross_7_2", "I_t_8_3_1", "cross_sperner_5")

# criteria 5, 7 and 12 take almost all of the gate and are also reported on
# their own; the small gate skips them
GATE_CRITERIA = {"full": list(range(1, 13)), "small": [1, 2, 3, 4, 6, 8, 9, 10, 11]}

# branching: seeded basis inputs per family kind, derived bases branched per
# kind, and the structured full-layer bases (kind, k, t)
BRANCHING = {
    "full": {"items": 40, "derived": 4,
             "layers": [("cross", 6, None), ("t", 6, 2), ("t", 5, 1)]},
    "small": {"items": 6, "derived": 2,
              "layers": [("cross", 4, None), ("t", 4, 2), ("t", 4, 1)]},
}

WORKLOADS = ("gate", "search", "branching")

# the parts of a pass whose seconds are reported beside the pass total
PARTS = ("gate.c05_s", "gate.c07_s", "gate.c12_s", "search.I_cross_7_2_s",
         "search.I_t_8_3_1_s", "search.cross_sperner_5_s", "branching.bases_s",
         "branching.frontier_s")


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def family_text(n: int, k: int | None, masks) -> str:
    lines = [f"n={n} k={'*' if k is None else k}"]
    lines += [",".join(map(str, elements_of(m))) for m in sorted(masks)]
    return "\n".join(lines) + "\n"


def _random_set(rng: random.Random, n: int, k: int) -> int:
    return mask_of(rng.sample(range(1, n + 1), k))


def random_cross_pair(rng: random.Random, n: int, k: int):
    """2 to 4 random k-sets F, then 2 to 4 random k-sets meeting all of F."""
    f: set[int] = set()
    want = rng.randint(2, 4)
    while len(f) < want:
        f.add(_random_set(rng, n, k))
    g: set[int] = set()
    want = rng.randint(2, 4)
    while len(g) < want:
        m = _random_set(rng, n, k)
        if all(m & x for x in f):
            g.add(m)
    return sorted(f), sorted(g)


def random_t_family(rng: random.Random, n: int, k: int, t: int):
    """Up to 4 random k-sets, each meeting the earlier ones in >= t elements."""
    fam = [_random_set(rng, n, k)]
    for _ in range(200):
        if len(fam) == 4:
            break
        m = _random_set(rng, n, k)
        if m not in fam and all((m & x).bit_count() >= t for x in fam):
            fam.append(m)
    return sorted(fam)


def _cli(op_id: str, argv: list[str], out: str, check: dict, part: str | None) -> dict:
    return {"kind": "cli", "id": op_id, "part": part, "argv": argv + ["--output", out],
            "output": out, "check": check}


def build_plan(workload: str, seed: int, size: str, work: str) -> dict:
    """Write the workload's input files under `work` and return its plan."""
    if workload == "gate":
        ops = [
            _cli(f"c{i:02d}", ["verify-all", "--criteria", str(i), "--seed", str(seed),
                               "--workers", "1"],
                 os.path.join(work, f"c{i:02d}.json"), {"type": "gate", "criterion": i},
                 f"gate.c{i:02d}_s" if i in (5, 7, 12) else None)
            for i in GATE_CRITERIA[size]
        ]
    elif workload == "search":
        ops = []
        for op_id, objective, n, k, t, expected, source in SEARCHES[size]:
            argv = ["search", "--objective", objective, "--n", str(n),
                    "--seed", str(seed), "--workers", "1"]
            if k is not None:
                argv += ["--k", str(k)]
            if t is not None:
                argv += ["--t", str(t)]
            if objective == "cross_sperner" and size == "small" and n == 5:
                argv += ["--budget", "2000"]
            ops.append(_cli(op_id, argv, os.path.join(work, f"{op_id}.json"),
                            {"type": "search", "objective": objective, "n": n, "k": k,
                             "t": t, "value": expected, "source": source},
                            f"search.{op_id}_s" if op_id in SEARCH_PARTS else None))
    elif workload == "branching":
        ops = _branching_ops(seed, size, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "size": size, "ops": ops}


def _branching_ops(seed: int, size: str, work: str) -> list[dict]:
    spec = BRANCHING[size]
    bases, frontier = [], []
    derived = {"cross": 0, "t": 0}
    for i in range(2 * spec["items"]):
        kind = ("cross", "t")[i % 2]
        n, k = (10, 12)[(i // 2) % 2], 4
        t = 1 if kind == "cross" else (1, 2)[(i // 4) % 2]
        rng = random.Random(f"{seed}:{kind}:{i}")
        src = os.path.join(work, f"in{i:03d}.fam")
        out = os.path.join(work, f"basis{i:03d}.fam")
        if kind == "cross":
            f, g = random_cross_pair(rng, n, k)
            text = family_text(n, k, f) + family_text(n, k, g)
            want = ref_pair_bases(n, k, f, g)
        else:
            f = random_t_family(rng, n, k, t)
            text = family_text(n, k, f)
            want = ref_t_basis(n, k, f, t)
        with open(src, "w") as fh:
            fh.write(text)
        bases.append({"kind": "bases", "id": f"bases{i:03d}", "part": "branching.bases_s",
                      "family": kind, "t": t,
                      "input": src, "output": out,
                      "check": {"type": "bases",
                                "bases": [family_text(n, None, b) for b in want["bases"]],
                                "r": want["r"]}})
        if want["admissible"] and derived[kind] < spec["derived"]:
            derived[kind] += 1
            frontier += _branch_ops(f"derived{i:03d}", kind, out, k, t, want["r"],
                                    seed, work, None)
    for kind, k, t in spec["layers"]:
        n = 2 * k - 1 if kind == "cross" else 2 * k - t
        layer = [mask_of(c) for c in combinations(range(1, n + 1), k)]
        src = os.path.join(work, f"layer_{kind}_{k}_{t}.fam")
        with open(src, "w") as fh:
            fh.write(family_text(n, k, layer) * (2 if kind == "cross" else 1))
        # on [2k-1] every k-set meets every other, so the frontier is k^k
        survivors = k ** k if kind == "cross" or t == 1 else None
        frontier += _branch_ops(f"layer_{kind}_{k}_{t}", kind, src, k, t or 1, k,
                                seed, work, survivors)
    return bases + frontier


def _branch_ops(op_id, kind, src, k, t, r, seed, work, survivors) -> list[dict]:
    ops = []
    for rule in ("det", "random"):
        argv = ["branch", "--name", kind, "--input", src, "--k", str(k), "--r", str(r),
                "--seed", str(seed), "--workers", "1"]
        if kind == "t":
            argv += ["--t", str(t)]
        if rule == "random":
            argv.append("--random-rule")
        ops.append(_cli(f"{op_id}_{rule}", argv, os.path.join(work, f"{op_id}_{rule}.json"),
                        {"type": "branch", "survivors": survivors}, "branching.frontier_s"))
    return ops
