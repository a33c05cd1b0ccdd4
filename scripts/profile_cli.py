#!/usr/bin/env python3
"""Profile one crossfam command.

Runs `crossfam <argv...>` once through `cli.main` under cProfile and prints
the ten functions with the largest self time after the command's own output.
Run from the repository root, for example:

    PYTHONPATH=src python scripts/profile_cli.py verify-all --criteria 12
    PYTHONPATH=src python scripts/profile_cli.py branch --name cross \\
        --input bases.fam --k 3 --r 2 --output /dev/null

cProfile charges a cost to every Python call, so deep recursion looks far
more expensive than it is: on Python 3.11 the `covering_number` call in
criterion 12 (`max_edges_without_matching(7, 3)`) reads 0.97 s under
cProfile and takes 0.18 s of wall time.  Use the listing to find hot spots,
and the benchmark (`perfbench/run.py`) to size them.
"""

import cProfile
import io
import pstats
import sys

from crossfam.cli import main


def profile(argv: list[str]) -> int:
    profiler = cProfile.Profile()
    code = profiler.runcall(main, argv)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(10)
    body = buf.getvalue()
    # drop pstats' preamble up to the column header
    print(f"exit code {code}")
    print(body[body.index("   ncalls"):].rstrip())
    return code


if __name__ == "__main__":
    sys.exit(profile(sys.argv[1:]))
