import json
import random
import re
from itertools import combinations

import pytest

import crossfam as cf
from crossfam import __version__, cli
from crossfam.cli import main
from crossfam.families import (Family, GroundSet, NodeLimitExceeded, VerificationError,
                               families_from_text, families_to_text, family_from_text)
from crossfam.transversals import sets_above


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)


def test_eval_command(capsys):
    code, out, _ = run_cli(capsys, "eval", "--id", "I_A1A2", "--n", "7", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == "24"
    assert data["result"]["id"] == "I_A1A2_15"
    assert data["version"]
    assert data["seed"] == 0


def test_eval_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--id", "I_A1A2_15", "--n", "5", "--k", "3")
    assert code == 2
    assert "error" in err


def test_eval_unknown_id(capsys):
    code, _, err = run_cli(capsys, "eval", "--id", "nope", "--n", "5")
    assert code == 2


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "--objective", "cross_sperner",
                           "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == "9"
    assert data["result"]["exhaustive"] is True
    assert data["result"]["objective"] == "max_I_cross_sperner"


def test_construct_command_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "fam.txt"
    code = main(["construct", "--name", "Ankt", "--n", "8", "--k", "3",
                 "--t", "1", "--output", str(out_file)])
    assert code == 0
    fam = family_from_text(out_file.read_text())
    assert fam.uniformity == 3
    assert len(fam) == 16


def test_construct_pair_output(capsys):
    code, out, _ = run_cli(capsys, "construct", "--name", "prop21_tight",
                           "--n", "4", "--k", "2")
    assert code == 0
    fams = families_from_text(out)
    assert len(fams) == 2
    assert fams[0].sets() == ((1, 3), (2, 3), (1, 4))


def test_construct_star_with_param(capsys):
    code, out, _ = run_cli(capsys, "construct", "--name", "star", "--n", "4",
                           "--k", "2", "--param", "T=1")
    assert code == 0
    assert family_from_text(out).sets() == ((1, 2), (1, 3), (1, 4))


def test_check_inequality_grid(capsys):
    code, out, _ = run_cli(capsys, "check", "--name", "inequality_grid",
                           "--n", "40", "--k", "6")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["passed"] is True


@pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "-5"), ("--k", "0"), ("--k", "-2"),
                                  ("--n", "0", "--k", "0")])
def test_check_inequality_grid_bad_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "check", "--name", "inequality_grid", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_check_inequality_grid_defaults(capsys):
    code, out, _ = run_cli(capsys, "check", "--name", "inequality_grid")
    assert code == 0
    data = json.loads(out)["result"]
    assert data["passed"] is True
    assert data["total_checked"] == 684465


def test_check_named_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--name", "oracle_agreement")
    assert code == 0
    data = json.loads(out)
    assert [r["criterion"] for r in data["result"]] == [1, 2, 3, 4]
    code, out, _ = run_cli(capsys, "check", "--name", "branching_conservation")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out)["result"])


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "--name", "nope")
    assert code == 2


def test_branch_command(capsys, tmp_path):
    path = tmp_path / "bases.fam"
    path.write_text(families_to_text(_four_star_bases()))
    code, out, _ = run_cli(capsys, "branch", "--name", "cross", "--input",
                           str(path), "--k", "3", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["total_weight"] == "1/1"
    assert data["result"]["coverage_ok"] is True


def test_branch_malformed_input_exit_2(capsys, tmp_path):
    path = tmp_path / "basis.fam"
    path.write_text("n=6 k=*\n1,x\n")
    code, _, err = run_cli(capsys, "branch", "--name", "t", "--input",
                           str(path), "--t", "1", "--k", "3", "--r", "2")
    assert code == 2
    assert err.startswith("error: ")


def test_branch_t_command(capsys, tmp_path):
    path = tmp_path / "basis.fam"
    path.write_text("n=6 k=*\n1,2\n1,3\n2,3\n")
    code, out, _ = run_cli(capsys, "branch", "--name", "t", "--input",
                           str(path), "--t", "1", "--k", "3", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["lambda"]["2"] == "3/4"


@pytest.mark.parametrize("exc, code, prefix", [
    (NodeLimitExceeded("branching exceeded 5 nodes"), 3, "error: "),
    (VerificationError("live weight is 2 mid-run, expected exactly 1"), 1,
     "verification failed: "),
])
def test_branch_failure_exit_codes(capsys, tmp_path, monkeypatch, exc, code, prefix):
    def runner(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_branching_t", runner)
    path = tmp_path / "basis.fam"
    path.write_text("n=6 k=*\n1,2\n1,3\n2,3\n")
    got, out, err = run_cli(capsys, "branch", "--name", "t", "--input",
                            str(path), "--t", "1", "--k", "3", "--r", "2")
    assert got == code
    assert out == ""
    assert err == f"{prefix}{exc}\n"


def test_verify_all_subset(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--criteria", "1,9")
    assert code == 0
    data = json.loads(out)
    assert [r["criterion"] for r in data["result"]] == [1, 9]
    assert all(r["passed"] for r in data["result"])
    assert "criterion  1 [PASS]" in err


def _four_star_bases():
    return cf.basis_pair(*cf.four_star_pair(8, 3))


def _layer(n, k):
    return Family.from_sets(combinations(range(1, n + 1), k), GroundSet(n), k)


def test_report_determinism_modulo_timestamp(capsys, tmp_path):
    path = tmp_path / "bases.fam"
    path.write_text(families_to_text(_four_star_bases()))
    branch = ("branch", "--name", "cross", "--input", str(path), "--k", "3", "--r", "2")
    for argv in [("eval", "--id", "binom", "--n", "10", "--k", "4"),
                 branch, branch + ("--random-rule", "--seed", "4")]:
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert strip_timestamp(out1) == strip_timestamp(out2), argv


@pytest.mark.parametrize("bases, k, r", [
    pytest.param(_four_star_bases, 3, 2, id="four_star"),
    pytest.param(lambda: (_layer(7, 4), _layer(7, 4)), 4, 4, id="layer_cross_7_4"),
])
@pytest.mark.parametrize("rule", ["det", "random"])
def test_branch_json_matches_envelope_dump(capsys, tmp_path, bases, k, r, rule):
    # the spliced report against json.dumps of the envelope around to_json_dict()
    b1, b2 = bases()
    path = tmp_path / "bases.fam"
    path.write_text(families_to_text([b1, b2]))
    argv = ["branch", "--name", "cross", "--input", str(path), "--k", str(k), "--r", str(r),
            "--seed", "3"] + (["--random-rule"] if rule == "random" else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rng = random.Random("branch:3") if rule == "random" else None
    rep = cf.run_branching_cross(b1, b2, k=k, r=r, rng=rng)
    envelope = {"command": "branch", "version": __version__, "seed": 3,
                "params": {"k": k, "name": "cross", "r": r, "workers": 1},
                "timestamp": "-", "result": rep.to_json_dict()}
    assert strip_timestamp(out) == json.dumps(envelope, sort_keys=True) + "\n"


def test_branch_csv_and_text_use_dict_form(capsys, tmp_path):
    path = tmp_path / "basis.fam"
    path.write_text("n=6 k=*\n1,2\n1,3\n2,3\n")
    argv = ("branch", "--name", "t", "--input", str(path), "--t", "1", "--k", "3", "--r", "2")
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert "total_weight: 1/1" in out.splitlines()
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ("coverage_ok,inequality_lhs,lambda,level_counts,"
                                   "survivors,total_weight,weight_bound_ok")


@pytest.mark.parametrize("argv", [
    ("--objective", "I_antichain", "--n", "5", "--budget", "0"),
    ("--objective", "cross_sperner", "--n", "5", "--budget", "0"),
    ("--objective", "cross_sperner", "--n", "5", "--budget", "-3"),
    ("--objective", "I_cross", "--n", "5", "--k", "-1"),
    ("--objective", "I_cross", "--n", "5", "--k", "6"),
    ("--objective", "I_antichain", "--n", "-1"),
    ("--objective", "I_antichain", "--n", "65"),
    ("--objective", "I_antichain"),
    ("--objective", "I_t_intersecting", "--n", "6", "--k", "2", "--t", "0"),
])
def test_search_bad_budget_or_size_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "search", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_search_budget_still_accepted(capsys):
    code, out, _ = run_cli(capsys, "search", "--objective", "cross_sperner", "--n", "5",
                           "--budget", "2000")
    assert code == 0
    assert json.loads(out)["result"]["nodes"] == 2000


@pytest.mark.parametrize("n,t", [(30, 15), (40, 20)])
def test_search_t_above_k_builds_no_t_set_table(capsys, n, t):
    # no two 2-sets share t elements: every 2-set is its own maximal family
    code, out, _ = run_cli(capsys, "search", "--objective", "I_t_intersecting",
                           "--n", str(n), "--k", "2", "--t", str(t))
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["value"], res["nodes"]) == ("0", n * (n - 1) // 2 + 1)
    assert sets_above(n, 2, t) == {}


def test_search_large_k_small_layer(capsys):
    # 24-sets of [26] share >= 23 elements iff their complements meet, so the
    # best family is a star of complements: C(25, 2) distinct intersections
    code, out, _ = run_cli(capsys, "search", "--objective", "I_t_intersecting",
                           "--n", "26", "--k", "24", "--t", "23")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["value"] == "300"
    assert len(res["witness"]) == 25


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--id", "binom", "--n", "6",
                           "--k", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,params,value"
    assert "20" in lines[1]


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "search", "--objective", "I_t_intersecting",
                           "--n", "6", "--k", "2", "--t", "1", "--format", "text")
    assert code == 0
    assert "value: 3" in out
