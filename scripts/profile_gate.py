#!/usr/bin/env python3
"""Profile release-gate criteria one at a time.

For each requested `verify-all` criterion, runs it once under cProfile and
prints its scoreboard line followed by the ten functions with the largest
self time.  Output goes to stdout only.  Run from the repository root:

    PYTHONPATH=src python scripts/profile_gate.py 5 7 12
"""

import argparse
import cProfile
import io
import pstats
import sys

from crossfam.acceptance import CRITERIA, run_criterion


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("criteria", nargs="*", type=int,
                        help=f"criterion indices in 1..{len(CRITERIA)} (default: all)")
    args = parser.parse_args()

    indices = args.criteria or range(1, len(CRITERIA) + 1)
    for index in indices:
        if not 1 <= index <= len(CRITERIA):
            parser.error(f"criterion {index} is not in 1..{len(CRITERIA)}")
    for index in indices:
        profiler = cProfile.Profile()
        result = profiler.runcall(run_criterion, index)
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(10)
        print(result.line())
        # drop pstats' preamble up to the column header
        body = buf.getvalue()
        print(body[body.index("   ncalls"):].rstrip())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
