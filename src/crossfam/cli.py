"""Command line front end: reproducible batch runs with machine-readable reports.

Every report embeds the command, parameter set, seed, and tool version;
identical invocations produce byte-identical output except the timestamp
field.  Exit codes: 0 success, 1 a verification failed, 2 bad configuration,
3 a node limit was hit before a verdict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__, acceptance
from .branching import BranchReport, run_branching_cross, run_branching_t, splice_json
from .constructions import CONSTRUCTION_NAMES, construct, verify_construction
from .families import (DomainError, NodeLimitExceeded, VerificationError, families_from_text,
                       families_to_text, family_to_text)
from .formulas import FORMULA_IDS, eval_formula, inequality_grid
from .search import OBJECTIVES, SearchProblem, maximize
import random

_CHECK_SUITES = {
    "inequality_grid": None,  # handled inline
    "oracle_agreement": (1, 2, 3, 4),
    "branching_conservation": (6,),
}


def _resolve_formula_id(raw: str) -> str:
    if raw in FORMULA_IDS:
        return raw
    hits = [f for f in FORMULA_IDS if f.rsplit("_", 1)[0] == raw]
    if len(hits) == 1:
        return hits[0]
    raise DomainError(f"unknown formula id {raw!r}")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise DomainError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_extra_params(pairs: list[str]) -> dict:
    out: dict = {}
    for item in pairs:
        if "=" not in item:
            raise DomainError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        if "," in value:
            out[key] = _int_list(value, f"--param {key}")
        else:
            try:
                out[key] = int(value)
            except ValueError:
                out[key] = value
    return out


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, result) -> str:
    """The report text of result: a JSON-able value or a BranchReport."""
    envelope = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "params": {
            key: getattr(args, key)
            for key in ("n", "k", "t", "l", "nu", "id", "name", "objective",
                        "r", "budget", "workers")
            if getattr(args, key, None) is not None
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if isinstance(result, BranchReport):
        if args.format == "json":
            return splice_json(envelope, "result", result.to_json()) + "\n"
        result = result.to_json_dict()
    envelope["result"] = result
    if args.format == "json":
        return json.dumps(envelope, sort_keys=True) + "\n"
    if args.format == "csv":
        rows = result if isinstance(result, list) else [result]
        if not rows or not isinstance(rows[0], dict):
            rows = [{"value": r} for r in rows]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key) for key in writer.fieldnames})
        return buf.getvalue()
    lines = [f"{args.command} (crossfam {__version__}, seed {args.seed})"]
    if isinstance(result, list):
        lines += [json.dumps(r, sort_keys=True) for r in result]
    else:
        lines += [f"{key}: {value}" for key, value in sorted(result.items())]
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> int:
    params = _parse_extra_params(args.param)
    for key in ("T", "X"):
        if isinstance(params.get(key), int):
            params[key] = [params[key]]
    for key in ("n", "k", "t"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    built = construct(args.name, params)
    check = verify_construction(args.name, params)
    if isinstance(built, tuple):
        _emit(families_to_text(built), args.output)
    else:
        _emit(family_to_text(built), args.output)
    if not check["ok"]:
        print(f"construction predicate failed: {check['witness']}", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    fid = _resolve_formula_id(args.id)
    params = {k: getattr(args, k) for k in ("n", "k", "t", "l", "nu")
              if getattr(args, k) is not None}
    value = eval_formula(fid, **params)
    result = {"id": fid, "params": params, "value": str(value)}
    _emit(_report(args, result), args.output)
    return 0


def _cmd_check(args) -> int:
    if args.name == "inequality_grid":
        rep = inequality_grid(200 if args.n is None else args.n, 20 if args.k is None else args.k)
        result = {
            "suite": "inequality_grid",
            "checked": rep["checked"],
            "total_checked": rep["total_checked"],
            "mode": rep["mode"],
            "passed": rep["all_passed"],
            "failures": [list(f) for f in rep["failures"]],
        }
        _emit(_report(args, result), args.output)
        return 0 if rep["all_passed"] else 1
    if args.name in _CHECK_SUITES:
        results = acceptance.run_all(_CHECK_SUITES[args.name])
        payload = [
            {"criterion": r.index, "name": r.name, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ]
        _emit(_report(args, payload), args.output)
        return 0 if all(r.passed for r in results) else 1
    raise DomainError(f"unknown check suite {args.name!r}; "
                      f"choose from {sorted(_CHECK_SUITES)}")


def _cmd_search(args) -> int:
    # an objective id, or the id without its "max_" or "max_I_" prefix
    objective = next((o for o in OBJECTIVES if args.objective in
                      (o, o.removeprefix("max_"), o.removeprefix("max_I_"))), None)
    if objective is None:
        raise DomainError(f"unknown objective {args.objective!r}")
    problem = SearchProblem(
        objective=objective, n=args.n, k=args.k, t=args.t, seed=args.seed,
        budget=args.budget)
    res = maximize(problem)
    result = {"objective": objective, "seed": args.seed}
    result.update(res.to_json_dict())
    _emit(_report(args, result), args.output)
    return 0


def _cmd_branch(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{args.input} is not UTF-8 text: {exc}") from None
    fams = families_from_text(text)
    rng = random.Random(f"branch:{args.seed}") if args.random_rule else None
    if args.name == "cross":
        if len(fams) != 2:
            raise DomainError("cross branching needs a file with two family blocks")
        rep = run_branching_cross(fams[0], fams[1], k=args.k, r=args.r, rng=rng)
    elif args.name == "t":
        if len(fams) != 1:
            raise DomainError("t branching needs a file with one family block")
        if args.t is None:
            raise DomainError("t branching needs --t")
        rep = run_branching_t(fams[0], t=args.t, k=args.k, r=args.r, rng=rng)
    else:
        raise DomainError("branch --name must be 'cross' or 't'")
    _emit(_report(args, rep), args.output)
    return 0


def _cmd_verify_all(args) -> int:
    indices = _int_list(args.criteria, "--criteria") if args.criteria is not None else None
    results = []
    for res in acceptance.run_all(indices):
        print(res.line(), file=sys.stderr)
        results.append(res)
    payload = [
        {"criterion": r.index, "name": r.name, "passed": r.passed,
         "detail": r.detail, "seconds": round(r.seconds, 2)}
        for r in results
    ]
    _emit(_report(args, payload), args.output)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfam",
        description="Exact computations on cross-intersecting set families",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, ints=(), report: bool = True) -> argparse.ArgumentParser:
        """A subcommand with the integer flags its handler reads, --output and,
        if it writes a report, the flags the report echoes or uses."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in ints:
            p.add_argument(flag, type=int)
        p.add_argument("--output")
        if report:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--format", choices=("json", "csv", "text"), default="json")
            p.add_argument("--workers", type=int, default=1,
                           help="accepted and echoed in the report; has no effect")
        return p

    p = add("construct", "emit a named construction as a family file",
            ("--n", "--k", "--t"), report=False)
    p.add_argument("--name", required=True, choices=CONSTRUCTION_NAMES)
    p.add_argument("--param", action="append", default=[],
                   help="extra KEY=VALUE (lists comma-separated), e.g. T=1,2")

    p = add("eval", "evaluate a catalogued closed form", ("--n", "--k", "--t", "--l", "--nu"))
    p.add_argument("--id", required=True)

    p = add("check", "run a named invariant suite", ("--n", "--k"))
    p.add_argument("--name", required=True)

    p = add("search", "run an exhaustive or budgeted maximizer",
            ("--n", "--k", "--t", "--budget"))
    p.add_argument("--objective", required=True)

    p = add("branch", "run a branching process on families from a file", ("--t",))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--name", required=True, choices=("cross", "t"))
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--random-rule", action="store_true", dest="random_rule",
                   help="use a seeded random selection rule instead of the deterministic one")

    p = add("verify-all", "run the full acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion indices (default: all)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "construct": _cmd_construct,
        "eval": _cmd_eval,
        "check": _cmd_check,
        "search": _cmd_search,
        "branch": _cmd_branch,
        "verify-all": _cmd_verify_all,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
