"""The crossfam benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gate|search|branching --seed N \
        --seconds S --trace 0|1 [--size full|small]

Run from anywhere inside a checkout that has ``src/crossfam``.  Each pass of
the workload runs in its own fresh interpreter (``perfbench/child.py``), one
at a time, so the package's caches start cold as they do for every CLI user.
Passes repeat, closed loop, until ``--seconds`` have gone by and at least
MIN_PASSES have run.  Every output is checked against references that do
not come from the code under test (``reference.py``) on the first pass, and
must be identical (timestamps and per-criterion seconds aside) on every
later pass.  Seconds are calibrated against ``probe.py`` (see README.md).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates traced and untraced passes and prints its per-layer metrics,
including the tracing overhead (traced minus untraced pass seconds).  The
last line of standard output is the JSON result; the lines before it are a
human-readable summary with quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_S, probe
from reference import check_op, normalize
from workloads import PARTS, WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_PASSES = 2  # untraced passes per --trace 0 run
MIN_TRACED = 2  # traced passes per --trace 1 run, so their counts can be compared
SETUP_SPAWNS = 15  # interpreters per run that only import the package
RUN_LIMIT_S = 160  # start no pass that could end past this, whatever --seconds says
PASS_TIMEOUT_S = 150
OVERHEAD = ("trace.traced_pass_s", "trace.untraced_pass_s", "trace.overhead_s")

START = time.monotonic()


def _spawn(args: list[str]) -> tuple[dict | None, float, str]:
    """Run child.py; return its JSON line, the spawn time and an error text."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC)] + args
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, spawned, f"pass timed out after {PASS_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, spawned, f"child exit code {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), spawned, ""


class Outputs:
    """Checks each operation's output: in full the first time, then by digest."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}

    def check(self, op: dict, result: dict) -> tuple[str | None, int]:
        if result["error"]:
            return result["error"], 0
        try:
            with open(op["output"]) as fh:
                text = fh.read()
        except OSError as exc:
            return f"no output: {exc}", 0
        norm = normalize(text)
        size = len(norm.encode())
        digest = hashlib.sha256((norm + repr(result.get("r"))).encode()).hexdigest()
        known = self.digests.get(op["id"])
        if known is None:
            err = check_op(op, text, result)
            if err is None:
                self.digests[op["id"]] = digest
            return err, size
        if digest != known:
            return "output differs from the first pass", size
        return None, size


def _speed() -> float:
    """The probe's current seconds: one untimed run, then the mean of four."""
    probe()
    return statistics.mean(probe() for _ in range(4))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs, for the self-check")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "crossfam" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no src/crossfam package or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks use the package's oracle
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = build_plan(args.workload, args.seed, args.size, str(work))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    trace_path = OUT / f"trace-{args.workload}.json"

    # set-up: one warm-up interpreter (it may compile bytecode), then timed ones
    setup = []
    for i in range(SETUP_SPAWNS + 1):
        before = _speed()
        got, spawned, err = _spawn(["--setup"])
        if got is None:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 1
        if i:
            speed = (before + _speed()) / 2
            setup.append((got["import_done"] - spawned) * REF_S / speed)

    outputs = Outputs()
    attempted = failed = 0
    failures: list[str] = []
    passes = {False: [], True: []}  # traced? -> list of pass records
    loop_start = time.monotonic()
    longest = 0.0
    while True:
        n_traced, n_plain = len(passes[True]), len(passes[False])
        if args.trace:
            traced = n_traced <= n_plain
            done = n_traced >= MIN_TRACED and n_plain >= 1
        else:
            traced = False
            done = n_plain >= MIN_PASSES
        now = time.monotonic()
        if done and now - loop_start >= args.seconds:
            break
        if (n_traced or n_plain) and now - START + longest > RUN_LIMIT_S:
            break
        got, spawned, err = _spawn([str(plan_path), str(int(traced)), str(trace_path)])
        longest = max(longest, time.monotonic() - spawned)
        attempted += len(plan["ops"])
        if got is None:  # the interpreter died: count its pass as failed, stop
            failed += len(plan["ops"])
            failures.append(err)
            break
        speed = _speed()  # for a pass too short to be probed
        record = {"pass_s": 0.0, "wall_s": 0.0, "parts": {}, "report_bytes": 0,
                  "rss_mb": got["rss_mb"], "layers": got.get("layers", {})}
        for op, res in zip(plan["ops"], got["ops"]):
            err, size = outputs.check(op, res)
            if err:
                failed += 1
                failures.append(f"{op['id']}: {err}")
            seconds = res["s"] * REF_S / (res["probe"] or speed)
            record["pass_s"] += seconds
            record["wall_s"] += res["s"]
            if op["part"]:
                record["parts"][op["part"]] = record["parts"].get(op["part"], 0.0) + seconds
            if op["kind"] == "cli":
                record["report_bytes"] += size
        passes[traced].append(record)

    plain = passes[False]
    samples: dict[str, tuple[list[float], str]] = {}
    if args.trace:
        metrics, counts_repeat = _per_layer(spec, args.workload, passes, samples)
    else:
        counts_repeat = True
        samples["setup_s"] = (setup, "s")
        samples["pass_s"] = ([p["pass_s"] for p in plain], "s")
        samples["wall_pass_s"] = ([p["wall_s"] for p in plain], "s")
        samples["peak_rss_mb"] = ([p["rss_mb"] for p in plain], "MB")
        for part in sorted({name for p in plain for name in p["parts"]}):
            samples[part] = ([p["parts"].get(part, 0.0) for p in plain], "s")
        metrics = {}
        for m in spec["end_to_end"]:
            values = samples[m["name"]][0]
            metrics[m["name"]] = {"value": statistics.median(values) if values else 0.0,
                                  "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(plain)} untraced and {len(passes[True])} traced passes, "
          f"{attempted} operations, failed_ratio {failed / max(attempted, 1):.4f}")
    for name, (values, unit) in samples.items():
        if values:
            q1, med, q3 = _quartiles(values)
            print(f"  {name:34s} {med:14.6g} {unit:5s} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if not counts_repeat:
        print("  FAILED deterministic counts differ between traced passes")
    print(json.dumps({"correct": failed == 0 and counts_repeat and attempted > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _per_layer(spec: dict, workload: str, passes: dict, samples: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a --trace 1 run, and whether its counts repeat.

    Layer numbers come from the traced passes; the workloads' own pass and
    part seconds come from the untraced ones, and read 0 on other workloads.
    """
    traced, plain = passes[True], passes[False]
    for p in traced:
        p["layers"]["cli.report_bytes"] = p["report_bytes"]
    metrics, counts_repeat = {}, True
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in OVERHEAD:
            continue
        if name in {f"{w}_s" for w in WORKLOADS}:
            values = [p["pass_s"] if name == f"{workload}_s" else 0.0 for p in plain]
        elif name in PARTS:
            values = [p["parts"].get(name, 0.0) for p in plain]
        elif unit == "s":  # calibrated like the pass it was measured in
            values = [p["layers"].get(name, 0.0) * p["pass_s"] / p["wall_s"] for p in traced]
        else:
            values = [p["layers"].get(name, 0) for p in traced]
        if unit in ("count", "B") and len(set(values)) > 1:
            counts_repeat = False
        samples[name] = (values, unit)
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
    on = statistics.median(p["pass_s"] for p in traced) if traced else 0.0
    off = statistics.median(p["pass_s"] for p in plain) if plain else 0.0
    for name, value in zip(OVERHEAD, (on, off, on - off)):
        samples[name] = ([value], "s")
        metrics[name] = {"value": value, "unit": "s"}
    return metrics, counts_repeat


if __name__ == "__main__":
    sys.exit(main())
