"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py <src dir> <plan.json> <trace 0|1> [<trace file>]
       python3 perfbench/child.py <src dir> --setup

Prints one JSON line: the monotonic time at which ``crossfam.cli`` finished
importing (the parent subtracts its spawn time), the seconds of every
operation with the mean probe time measured during it, peak RSS and, when
traced, the per-layer numbers.

While the operations run, a timer signal times ``probe.probe`` every
PROBE_INTERVAL_S.  An operation's seconds exclude the time spent in the
probe.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import crossfam.cli  # noqa: E402  (the import is what set-up time measures)
from crossfam import branching, families, transversals  # noqa: E402

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from probe import probe  # noqa: E402

PROBE_INTERVAL_S = 0.1


class Sampler:
    """Times the probe on every SIGALRM and keeps the time it spent.

    The probe runs once untimed first: right after the program's own work
    its code and data are out of the caches, which would make its speed
    depend on what the program did rather than on the machine.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _bases(op: dict) -> dict:
    """saturate -> basis -> smallest branching level -> text, on one input file."""
    with open(op["input"]) as fh:
        fams = families.families_from_text(fh.read())
    if op["family"] == "cross":
        bases = transversals.basis_pair(*transversals.saturate_pair(*fams))
        r = branching.smallest_branching_level(bases[0])
    else:
        bases = (transversals.basis_t(transversals.saturate_t(fams[0], op["t"]), op["t"]),)
        r = branching.smallest_branching_level(bases[0], op["t"])
    with open(op["output"], "w") as fh:
        fh.write(families.families_to_text(bases))
    return {"r": r}


def run_pass(plan: dict, sampler: Sampler) -> list[dict]:
    results = []
    clock = time.perf_counter
    for op in plan["ops"]:
        out = {"id": op["id"], "error": None}
        n0, spent0 = len(sampler.samples), sampler.spent
        t0 = clock()
        try:
            if op["kind"] == "cli":
                rc = crossfam.cli.main(op["argv"])
                if rc != 0:
                    out["error"] = f"exit code {rc}"
            else:
                out.update(_bases(op))
        except Exception as exc:  # a raised exception is a failed operation
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["s"] = clock() - t0 - (sampler.spent - spent0)
        # an operation shorter than the interval takes the nearest sample
        during = sampler.samples[n0:] or sampler.samples[-1:]
        out["probe"] = sum(during) / len(during) if during else None
        results.append(out)
    for out in results:
        if out["probe"] is None and sampler.samples:
            out["probe"] = sampler.samples[0]
    return results


def main() -> None:
    if sys.argv[2] == "--setup":
        print(json.dumps({"import_done": IMPORT_DONE}))
        return
    with open(sys.argv[2]) as fh:
        plan = json.load(fh)
    tracer = None
    if sys.argv[3] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # the operations' own messages (verify-all's scoreboard) are not ours
    real_stdout, sys.stdout = sys.stdout, sys.stderr
    sampler = Sampler()
    sampler.start()
    try:
        ops = run_pass(plan, sampler)
    finally:
        sampler.stop()
        sys.stdout = real_stdout
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {"import_done": IMPORT_DONE, "ops": ops, "rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        tracer.write(sys.argv[4])
    print(json.dumps(payload))


if __name__ == "__main__":
    main()
