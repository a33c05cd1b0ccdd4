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
from crossfam.transversals import layer_context


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


def test_c05_checks_every_class_at_3_10(monkeypatch):
    # nu is read once per class, on (T(G), G) with G the class's representative
    seen = []
    real = acceptance.realized_corank1_layer
    monkeypatch.setattr(acceptance, "realized_corank1_layer",
                        lambda ctx, fb, gb: seen.append((fb, gb)) or real(ctx, fb, gb))
    result = run_criterion(5)
    assert result.passed
    assert "all 16 relabeling classes of 1 <= |G| <= 3 at (k,n)=(3,10)" in result.detail
    ctx = layer_context(10, 3)
    want = [ctx.bits_of(g) for g in acceptance.small_family_classes(10, 3, 3)]
    assert seen == [(ctx.meet_all(gb), gb) for gb in want]


def test_c05_reports_the_classes_it_was_given(monkeypatch):
    # an enumerator that drops the |G| = 3 classes shows in the count
    real = acceptance.small_family_classes
    monkeypatch.setattr(acceptance, "small_family_classes",
                        lambda n, k, most: [g for g in real(n, k, most) if len(g) < 3])
    result = run_criterion(5)
    assert result.passed
    assert "all 4 relabeling classes" in result.detail


def test_c12_walks_every_rooted_family_and_attains_both_bounds():
    result = run_criterion(12)
    assert result.passed
    assert "all 17938 holding {1,2,3} at (k,n)=(3,10) (EKR 36 attained and HM 22 attained)" in (
        result.detail)
    assert "cannot reach C(9,2)^2" in result.detail


@pytest.mark.parametrize("fid, detail", [
    ("ekr_bound", "EKR fails at (k,n)=(3,10): 36 sets"),
    ("hm_bound", "HM fails at (k,n)=(3,10): 22 sets"),
])
def test_c12_fails_on_a_bound_one_lower(monkeypatch, fid, detail):
    real = acceptance.eval_formula
    monkeypatch.setattr(acceptance, "eval_formula",
                        lambda f, **kw: real(f, **kw) - (f == fid and kw == {"n": 10, "k": 3}))
    result = run_criterion(12)
    assert (result.passed, result.detail) == (False, detail)
