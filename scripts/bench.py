#!/usr/bin/env python3
"""Run the benchmark's three workloads and write their numbers to BENCH_<label>.json.

For each of gate, search and branching this runs this checkout's
``perfbench/run.py --trace 0`` once and keeps, from its summary, the median,
first and third quartile and sample count of every end-to-end metric that
BENCHMARK.json names, and of every other timing it prints (the per-part
seconds such as ``branching.frontier_s``, and ``wall_pass_s``).  It then runs
``crossfam verify-all --output`` once, in a fresh interpreter, and keeps each
criterion's ``seconds`` and verdict from that report under ``criteria``;
the report times each criterion with ``time.perf_counter()`` and keeps 4
decimals, so a change of 0.1 ms shows.  Nothing is timed here: perfbench
and the report do the timing.  Run from
anywhere, for example:

    python3 scripts/bench.py --label 13
    python3 scripts/bench.py --label smoke --size small --seconds 1 --out-dir /tmp

Compare two commits with files written on the same machine.  The exit code
is 1 if a workload's outputs were not all correct or a criterion failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gate", "search", "branching")
SEED = 1  # every BENCH_*.json uses it, so files compare run for run
# "  pass_s     1.16744 s     q1 1.11455 q3 1.1764 n=4", as perfbench/run.py prints it
LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+q1 (\S+) q3 (\S+) n=(\d+)$")


def run_workload(workload: str, seconds: float, size: str, end_to_end: set[str]) -> dict:
    """One perfbench run of workload, as {"correct", ..., "end_to_end", "parts"}."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "end_to_end": {}, "parts": {}}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            name, median, unit, q1, q3, count = match.groups()
            kind = "end_to_end" if name in end_to_end else "parts"
            out[kind][name] = {"median": float(median), "q1": float(q1), "q3": float(q3),
                               "n": int(count), "unit": unit}
    return out


def run_criteria() -> dict:
    """One ``verify-all --output`` run, as {criterion: {"seconds", "passed"}}."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "verify-all.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        cmd = [sys.executable, "-m", "crossfam", "verify-all", "--output", str(report)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env)
        if proc.returncode not in (0, 1) or not report.exists():
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
        rows = json.loads(report.read_text())["result"]
    return {f"c{row['criterion']:02d}": {"seconds": row["seconds"], "passed": row["passed"]}
            for row in rows}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seconds", type=float, default=25.0, help="per workload")
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--out-dir", default=str(ROOT), help="created if missing")
    args = ap.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the runs, so a bad path costs none

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    report = {"label": args.label, "seed": SEED, "seconds": args.seconds,
              "size": args.size, "python": platform.python_version(),
              "machine": f"{platform.system()} {platform.machine()}", "workloads": {}}
    for workload in WORKLOADS:
        got = run_workload(workload, args.seconds, args.size, end_to_end)
        report["workloads"][workload] = got
        pass_s = got["end_to_end"].get("pass_s", {}).get("median")
        print(f"{workload}: correct {got['correct']}, pass_s median {pass_s}", file=sys.stderr)
    report["criteria"] = run_criteria()
    print(f"verify-all: {sum(c['seconds'] for c in report['criteria'].values()):.2f} s",
          file=sys.stderr)
    path = out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(path)
    passed = all(c["passed"] for c in report["criteria"].values())
    return 0 if passed and all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
