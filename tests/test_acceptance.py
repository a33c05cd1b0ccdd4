"""Acceptance gate: run every criterion at its stated tolerance.

Each test prints one pass/fail line; `pytest -s tests/test_acceptance.py`
shows the full scoreboard.  The same checks back the `verify-all` CLI
command.
"""

import hashlib

import pytest

from crossfam import acceptance
from crossfam.acceptance import CRITERIA, run_criterion
from crossfam.families import DomainError


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


def test_c06_sends_the_pinned_inputs_to_the_runners(monkeypatch):
    # sha256 of every (runner, ground, bases, keywords) c06 sends, in order
    calls = []

    def recorded(kind, run):
        def wrapped(*bases, **kw):
            calls.append((kind, bases[0].ground.n, [b.members for b in bases],
                          sorted(kw.items())))
            return run(*bases, **kw)
        return wrapped

    for kind in ("cross", "t"):
        name = f"run_branching_{kind}"
        monkeypatch.setattr(acceptance, name, recorded(kind, getattr(acceptance, name)))
    assert run_criterion(6).passed
    assert len(calls) == 150
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == (
        "fa8a2e1771c0c9ebb26a776ad380affe6e8d8076f6d557b3abcf7e602504767b")


def test_c06_fails_on_a_basis_that_cannot_be_formed(monkeypatch):
    # no draw is skipped: a DomainError from the basis step fails the criterion
    def refuse(f, g):
        raise DomainError("input pair is not saturated")

    monkeypatch.setattr(acceptance, "basis_pair", refuse)
    result = run_criterion(6)
    assert (result.passed, result.detail) == (
        False, "raised DomainError: input pair is not saturated")
