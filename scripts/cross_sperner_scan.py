#!/usr/bin/env python3
"""Compute the cross-Sperner maximum m(n) for small n.

Every n runs under one node budget, as `crossfam search --budget` does.
n = 2, 3, 4 score their closed families (at most 199, so exhaustive at any
budget of 199 or more); n = 5 is a seeded best-effort run of `--budget`
random draws, reported with exhaustive=false.  Each line is a JSON record
with the observed maximum, the even/odd closed-form candidate, and the
witness.
"""

import argparse
import json
import sys

from crossfam.formulas import eval_formula
from crossfam.search import SearchProblem, maximize


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=200_000,
                        help="node budget of each run: the draws at n = 5")
    args = parser.parse_args()

    for n in (2, 3, 4, 5):
        problem = SearchProblem("max_I_cross_sperner", n=n, seed=args.seed,
                                budget=args.budget)
        res = maximize(problem)
        if n % 2 == 0:
            candidate = eval_formula("m_even_55", n=n)
        else:
            candidate = eval_formula("m_odd_conjecture", n=n)
        record = {
            "n": n,
            "value": res.value,
            "exhaustive": res.exhaustive,
            "closed_form_candidate": candidate,
            "agrees": res.value == candidate,
            "nodes": res.nodes_explored,
            "witness_A": [list(s) for s in res.witness[0].sets()],
            "witness_B": [list(s) for s in res.witness[1].sets()],
        }
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
