"""Self-check of the benchmark: every workload once, at reduced size.

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py --size small`` untraced and, twice,
traced, and asserts that no operation failed (failed_ratio == 0), that the
result line names exactly the metrics of BENCHMARK.json with their units,
and that the deterministic counts (units ``count`` and ``B``) are identical
in the two traced runs.  It also checks that a directory holding only
BENCHMARK.json and the benchmark makes ``run.py`` fail without a result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    for workload in WORKLOADS:
        counts = []
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, [])):
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                problems.append(f"{workload} trace {trace}: {proc.stdout.strip()[-600:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in (listed or spec["per_layer"])}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            if trace:
                counts.append({name: m["value"] for name, m in result["metrics"].items()
                               if m["unit"] in ("count", "B")})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between runs: {counts}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "gate", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for line in problems:
        print(f"FAILED {line}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
