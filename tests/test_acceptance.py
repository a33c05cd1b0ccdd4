"""Acceptance gate: run every criterion at its stated tolerance.

Each test prints one pass/fail line; `pytest -s tests/test_acceptance.py`
shows the full scoreboard.  The same checks back the `verify-all` CLI
command.
"""

import pytest

from crossfam import acceptance
from crossfam.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1))
def test_criterion(index):
    result = run_criterion(index)
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("index, cell, detail", [
    (1, {"n": 7, "k": 3}, "mismatch at n=7 k=3"),
    (2, {"n": 9, "k": 4, "t": 2}, "mismatch at n=9 k=4 t=2"),
    (3, {"n": 8, "k": 3}, "mismatch at n=8 k=3"),
])
def test_formula_agreement_names_the_first_wrong_cell(monkeypatch, index, cell, detail):
    real = acceptance.eval_formula
    monkeypatch.setattr(acceptance, "eval_formula",
                        lambda fid, **kw: real(fid, **kw) + (kw == cell))
    result = run_criterion(index)
    assert (result.passed, result.detail) == (False, detail)
