"""Checks on the package as a whole: its imports, the names the benchmark traces and the
script that writes BENCH_*.json."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "crossfam").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name in an annotation, quoted or not, is read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    trees = [tree] + [ast.parse(node.value, mode="eval") for ann in annotations
                      for node in ast.walk(ann)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_no_line_reads():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from typing import Iterable as It\nfrom .families import Family\n"
              "def f(x: It) -> 'Family':\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_traced_name_is_a_callable_of_its_module(monkeypatch):
    # perfbench/tracer.py looks each name up with getattr and no default, so a
    # renamed or deleted function would break every traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for module, groups in tracer.GROUPS.items()
             for names, _, _ in groups.values() for name in names]
    assert names
    missing = [f"crossfam.{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"crossfam.{module}"), name, None))]
    assert missing == []


def test_bench_script_creates_its_out_dir(monkeypatch, tmp_path):
    # the directory is made before any workload runs, so no run is lost to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out_dir = tmp_path / "new" / "dir"
    ran = []
    monkeypatch.setattr(bench, "run_workload", lambda workload, *_: ran.append(out_dir.is_dir())
                        or {"correct": True, "end_to_end": {}})
    monkeypatch.setattr(sys, "argv", ["bench.py", "--label", "t", "--out-dir", str(out_dir)])
    assert bench.main() == 0
    assert ran == [True] * len(bench.WORKLOADS)
    assert json.loads((out_dir / "BENCH_t.json").read_text())["label"] == "t"
