import hashlib
import json
import random
import re
import time
from itertools import combinations
from math import comb

import pytest

import crossfam as cf
from crossfam import __version__, acceptance, cli
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


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "is not UTF-8 text"),
    (None, "No such file or directory"),
])
def test_branch_unreadable_input_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "basis.fam"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "branch", "--name", "t", "--input",
                             str(path), "--t", "1", "--k", "3", "--r", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


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
    assert all(r["seconds"] == round(r["seconds"], 4) for r in data["result"])
    assert "criterion  1 [PASS]" in err


def test_verify_all_keeps_four_decimals_of_perf_counter_seconds(capsys, monkeypatch):
    # 0.12 ms would read 0.0 at two decimals
    clock = iter([10.0, 10.00012])
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    code, out, err = run_cli(capsys, "verify-all", "--criteria", "1")
    assert code == 0
    [row] = json.loads(out)["result"]
    assert row["seconds"] == 0.0001
    assert "(0.0s)" in err


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


@pytest.mark.parametrize("name, fams, extra", [
    pytest.param("cross", lambda: (_layer(7, 4), _layer(7, 4)), ("--k", "4", "--r", "4"),
                 id="layer_cross_7_4"),
    pytest.param("t", lambda: (_layer(6, 4),), ("--t", "2", "--k", "4", "--r", "4"),
                 id="layer_t_6_4_2"),
])
@pytest.mark.parametrize("rule", ["det", "random"])
def test_branch_report_same_on_stdout_and_output(capsys, tmp_path, name, fams, extra, rule):
    # the streamed report writes the same bytes to either sink
    path = tmp_path / "in.fam"
    path.write_text(families_to_text(fams()))
    argv = ["branch", "--name", name, "--input", str(path), *extra, "--seed", "5"]
    argv += ["--random-rule"] if rule == "random" else []
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = tmp_path / "report.json"
    code, out_file, _ = run_cli(capsys, *argv, "--output", str(report))
    assert code == 0 and out_file == ""
    with open(report, newline="") as fh:
        written = fh.read()
    assert strip_timestamp(written) == strip_timestamp(out)
    assert json.loads(written)["result"]["total_weight"] == "1/1"


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
    # refused before its 2^n x 2^n incomparability table is built
    ("--objective", "cross_sperner", "--n", "24"),
    ("--objective", "I_antichain", "--n", "14", "--budget", "10"),
    ("--objective", "I_antichain", "--n", "40", "--budget", "10"),
    # refused before the layer or its C(n,k)^2-bit compatibility table is built
    ("--objective", "I_t_intersecting", "--n", "30", "--k", "5", "--t", "1"),
    ("--objective", "I_t_intersecting", "--n", "40", "--k", "20", "--t", "1"),
])
def test_search_bad_budget_or_size_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "search", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, bits", [
    (("I_t_intersecting", "--n", "30", "--k", "5", "--t", "1"), comb(30, 5) ** 2),
    (("I_t_intersecting", "--n", "40", "--k", "20", "--t", "1"), comb(40, 20) ** 2),
    (("I_antichain", "--n", "14", "--budget", "10"), 4 ** 14),
])
def test_oversized_table_is_refused_at_once_with_its_estimate(capsys, argv, bits):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "search", "--objective", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"table of {bits} bits" in err and f"4^13 = {4 ** 13} bits" in err


def test_antichain_budget_bounds_the_run_at_n_13(capsys):
    code, out, _ = run_cli(capsys, "search", "--objective", "I_antichain", "--n", "13",
                           "--budget", "10")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["nodes"], res["exhaustive"]) == (10, False)


@pytest.mark.parametrize("argv", [
    ("--objective", "cross_sperner", "--n", "4", "--budget", "5"),
    ("--objective", "I_t_intersecting", "--n", "8", "--k", "3", "--t", "1", "--budget", "100"),
])
def test_search_budget_cut_is_a_truncated_result(capsys, argv):
    # running out of budget is no bad input: exit 0, and the report says it
    code, out, _ = run_cli(capsys, "search", *argv)
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["nodes"], res["exhaustive"]) == (int(argv[-1]), False)


_UNREAD = "unrecognized arguments"


@pytest.mark.parametrize("argv, message", [
    (("construct", "--name", "star", "--n", "6", "--k", "3", "--param", "T=1,x"),
     "error: --param T expects comma-separated integers, got '1,x'"),
    (("verify-all", "--criteria", "x"),
     "error: --criteria expects comma-separated integers, got 'x'"),
    (("verify-all", "--criteria", "13"), "error: criteria are numbered 1..12, got 13"),
    (("verify-all", "--criteria", "0"), "error: criteria are numbered 1..12, got 0"),
    (("verify-all", "--criteria", "-1"), "error: criteria are numbered 1..12, got -1"),
    (("branch", "--name", "t", "--input", "basis.fam", "--t", "1", "--r", "2"),
     "error: the following arguments are required: --k"),
    # a flag its command does not read
    (("construct", "--name", "A1", "--n", "8", "--k", "3", "--seed", "1"), _UNREAD),
    (("construct", "--name", "A1", "--n", "8", "--k", "3", "--format", "csv"), _UNREAD),
    (("construct", "--name", "A1", "--n", "8", "--k", "3", "--budget", "5"), _UNREAD),
    (("construct", "--name", "A1", "--n", "8", "--k", "3", "--workers", "1"), _UNREAD),
    (("verify-all", "--criteria", "1", "--n", "5"), _UNREAD),
    (("verify-all", "--criteria", "1", "--budget", "5"), _UNREAD),
    (("branch", "--name", "t", "--input", "basis.fam", "--t", "1", "--k", "3", "--r", "2",
      "--budget", "5"), _UNREAD),
    (("eval", "--id", "binom", "--n", "6", "--k", "3", "--budget", "5"), _UNREAD),
    (("check", "--name", "oracle_agreement", "--t", "1"), _UNREAD),
    # no flag is taken from a prefix of its name
    (("search", "--objective", "I_cross", "--n", "5", "--k", "2", "--bud", "3"),
     "unrecognized arguments: --bud 3"),
    (("branch", "--name", "t", "--input", "basis.fam", "--t", "1", "--k", "3", "--r", "2",
      "--n", "6"), "unrecognized arguments: --n 6"),
    (("search", "--obj", "I_cross", "--n", "5", "--k", "2"),
     "the following arguments are required: --objective"),
    (("--he",), "the following arguments are required: command"),
    # every index is checked before any criterion runs
    (("verify-all", "--criteria", "12,13"), "error: criteria are numbered 1..12, got 13"),
    (("verify-all", "--criteria", ","),
     "error: no criterion selected; criteria are numbered 1..12"),
    # a set-valued parameter lists elements of [n]
    (("construct", "--name", "star", "--n", "4", "--k", "2", "--param", "T=abc"),
     "error: star parameter 'T' must be a list of integers in 1..4, got 'abc'"),
    (("construct", "--name", "star", "--n", "4", "--k", "2", "--param", "T=0"),
     "error: star parameter 'T' must be a list of integers in 1..4, got [0]"),
    (("construct", "--name", "star", "--n", "4", "--k", "2", "--param", "T=1,0"),
     "error: star parameter 'T' must be a list of integers in 1..4, got [1, 0]"),
    (("construct", "--name", "star", "--n", "4", "--k", "2", "--param", "T="),
     "error: star parameter 'T' must be a list of integers in 1..4, got ''"),
    (("construct", "--name", "cross_sperner_54", "--n", "4", "--param", "X=a"),
     "error: cross_sperner_54 parameter 'X' must be a list of integers in 1..4, got 'a'"),
    # only inequality_grid reads --n and --k
    (("check", "--name", "oracle_agreement", "--k", "3"),
     "error: check suite 'oracle_agreement' does not read --k"),
    (("check", "--name", "oracle_agreement", "--n", "5"),
     "error: check suite 'oracle_agreement' does not read --n"),
    (("check", "--name", "branching_conservation", "--n", "5", "--k", "3"),
     "error: check suite 'branching_conservation' does not read --n or --k"),
    # cross branching takes no --t
    (("branch", "--name", "cross", "--input", "bases.fam", "--k", "3", "--r", "2", "--t", "2"),
     "error: cross branching does not read --t"),
    # construct takes only the parameters its construction reads
    (("construct", "--name", "A3", "--n", "4", "--k", "2", "--t", "5"),
     "error: A3 does not read parameter 't'"),
    (("construct", "--name", "A3", "--n", "4", "--k", "2", "--param", "T=1"),
     "error: A3 does not read parameter 'T'"),
    (("construct", "--name", "star", "--n", "4", "--k", "2", "--param", "T=1", "--param", "Q=1"),
     "error: star does not read parameter 'Q'"),
])
def test_malformed_cli_input_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("criteria", ["12,13", "1,0", ",", ""])
def test_verify_all_checks_every_index_before_running(capsys, monkeypatch, criteria):
    ran = []
    monkeypatch.setattr(cli.acceptance, "run_criterion", ran.append)
    code, out, err = run_cli(capsys, "verify-all", "--criteria", criteria)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, objective", [
    ("wedge_cross", "max_wedge_cross"),
    ("I_cross", "max_I_cross"),
    ("I_t_intersecting", "max_I_t_intersecting"),
    ("I_antichain", "max_I_antichain"),
    ("cross_sperner", "max_I_cross_sperner"),
    ("max_I_cross", "max_I_cross"),
])
def test_search_objective_names(capsys, name, objective):
    code, out, _ = run_cli(capsys, "search", "--objective", name, "--n", "3", "--k", "1",
                           "--t", "1")
    assert code == 0
    assert json.loads(out)["result"]["objective"] == objective


def test_search_unknown_objective(capsys):
    code, out, err = run_cli(capsys, "search", "--objective", "nope", "--n", "3")
    assert (code, out, err) == (2, "", "error: unknown objective 'nope'\n")


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


def test_search_clique_of_1128_members(capsys):
    # any two 46-sets of [48] share >= 44 elements: one clique, found without
    # recursing once per member; the pairs meet in the 44- and 45-sets
    code, out, _ = run_cli(capsys, "search", "--objective", "I_t_intersecting",
                           "--n", "48", "--k", "46", "--t", "44")
    assert code == 0
    res = json.loads(out)["result"]
    assert (res["value"], res["nodes"], res["exhaustive"]) == ("211876", 1129, True)


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


def strip_timing(text: str) -> str:
    return re.sub(r', "seconds": [0-9.e+-]+', "", strip_timestamp(text))


# sha256 of each report with its timestamp and per-criterion seconds removed;
# a refactor that changes any byte of these reports fails here
GOLDEN_REPORTS = [
    ("construct --name star --n 6 --k 3 --param T=1,2",
     "404daac2a58f72bf827d938c847fded429be3d8dbf60a9c9395d89fe17959414"),
    ("construct --name A1 --n 8 --k 3",
     "f89031c1581e05d40ffe5a820154cee7955df68085e5dbab3198e926d5c63e6e"),
    ("construct --name A2 --n 8 --k 3",
     "a59377a8313cf5951a7fb76f1c0ac1808e7e33542313a997c0e54c04c368caf7"),
    ("construct --name A3 --n 7 --k 3",
     "e9898305d9e3e900a9f5b37a08b22ac75b1af32efb9d3e50a747b759de0c8254"),
    ("construct --name Ankt --n 8 --k 3 --t 1",
     "cf6069b762b64b7945ba6708c0ed8bc6c825928e266cdcf226add466e1c5dece"),
    ("construct --name prop21_tight --n 8 --k 3",
     "ba7e8dae178a68216c4642cd0112aaf397d1b344215f63855c545388abebe541"),
    ("construct --name antichain_52 --n 6",
     "a7ecad8aa99b6aadd9645aef14d9bbc450518e3aff3db22899372ae8d66f4afd"),
    ("construct --name cross_sperner_54 --n 5 --param X=1,2",
     "7812e43bde15e4166ba0f6c0e3b316a019d5fe70cc6b87976e6be2e0f1a49d9b"),
    ("eval --id binom --n 10 --k 4",
     "59936017ac26a9891bf5ab65d474d7e02dc307160d9932d2c6e7e72d4104ddb1"),
    ("eval --id partial_sum --n 10 --k 4",
     "d12650294ed70b6e5a3b69a56e82ba9fe7476927833c83765806bc1921515451"),
    ("eval --id wedge_star_13 --n 8 --k 3",
     "de5a654287f7426f94b2b835a96598855975b054aa02e09e83e95e4e22883862"),
    ("eval --id I_A1A2_15 --n 7 --k 3",
     "2707c14f577f666fcd40e9040927a211a7a3f4d66841e72385a1e7071ff4139b"),
    ("eval --id I_Ankt_17 --n 8 --k 3 --t 1",
     "948e9e889a6d57bab0acf7c02d110da3073f62fc7b1345013748db8445d553f3"),
    ("eval --id I_A3_case31 --n 8 --k 3",
     "3887a9217d253b6349fd706601703f25971e1abfc4c6899b5dd6b2510987e280"),
    ("eval --id lemma22_rhs --n 10 --k 4",
     "d4535dcb3a49f7c3271b6ef0aae24a4aea15a34bd431bd828a549929fb87c333"),
    ("eval --id lemma33_rhs --n 10 --k 4",
     "fe59de61d0faa13e3568c8d0776bc870a5bd4db3fef78f719363b7dc25ecdb42"),
    ("eval --id cor34_rhs --n 10 --k 4",
     "3bf0e618e351f8fbf057ff577991720d7df6e1bae3f19b73959ed2b3129a8c8e"),
    ("eval --id ekr_bound --n 10 --k 3",
     "87e5f98f869a7a418f35a76d6c3a456a540cef237a1ccc99583b9013fe7ef4d9"),
    ("eval --id hm_bound --n 10 --k 3",
     "b26088821d6a569131a4d3bebf3b4583176af34c2d8816b7540f7ee325720ff0"),
    ("eval --id pyber_bound --n 10 --k 3",
     "c1ad1e59d31251ea427f1d55a81e9688dede132858309510e4bc62a9208116a4"),
    ("eval --id emc_bound --n 10 --k 3 --nu 4",
     "b466138f0efc0dff43835522d43150b4bd2c6ae3c13e06f7d033494b541a637f"),
    ("eval --id I_star_t --n 8 --k 3 --t 1",
     "9c2919bb5261a422df313df626fc5a21d3b0267e95179d564b015abbf6747059"),
    ("eval --id f_cross --n 12 --k 4 --l 3",
     "0eb41c21197b1ac8d78e5a5fdd47d1679dbfb9e54f75fcb3f253a36559a8a08a"),
    ("eval --id f_t --n 12 --k 4 --t 1 --l 3",
     "441c4ef86f9179ec6aa78dba600df557afde8d447a0a95fdc2cf9563999c9ac9"),
    ("eval --id m_even_55 --n 6",
     "964c41532e9bdb9a452703cb4515a2c8eb79e2a918a97b7e6d84c0c318510376"),
    ("eval --id example52 --n 9",
     "d7979f986b6c14dade6e187359cc317332531f22b85b70c8d46e6760335461d7"),
    ("eval --id m_odd_conjecture --n 7",
     "36049a1a39f4493e1b8bc92e1007e4afcb09bdd4f075f6bfee9c1998efb9eca5"),
    ("search --objective wedge_cross --n 4 --k 2",
     "eefa80dc737d874871a4c504e99ca52711d92bc593e497208858289e19517924"),
    ("search --objective I_cross --n 5 --k 2",
     "216b914aec9e099ba74360f049d654a208a9f56548e37a25212548bee9e9765a"),
    ("search --objective I_t_intersecting --n 6 --k 2 --t 1",
     "fe477cb134c0a376ddaa0d407402ebfc8102afffb5dede3001011708f535957a"),
    ("search --objective I_t_intersecting --n 7 --k 4 --t 2",
     "a5ecb83d2fde70a89c09ef9873dc5499b1ae3afa37e1d475c0860f20e1155c8e"),
    ("search --objective I_antichain --n 4",
     "7acc57a2dbde76e6b06735eebe3e658d7ed9841b449aee5b103ec0a28ff207be"),
    ("search --objective I_antichain --n 6 --budget 500",
     "dd2f1b55fdf955b17e0f1baf907fc8cd6bc5406372eeb151af1e5670dbac6b01"),
    ("search --objective cross_sperner --n 4",
     "df67cfe91a1843c179d965b91f5178ff2d5d1f2d2b4715dcbcbf1dc9b247e229"),
    ("search --objective cross_sperner --n 5 --budget 2000",
     "8031b6f7d7c56d2531e06d03646cecbc54069d22dfdbc090d26cb71bc4db4ebe"),
    ("check --name inequality_grid --n 30 --k 6",
     "b44a11257a9439fbd467ae59de3014fc12370d545660f13352623d85b0c74b58"),
    ("verify-all --criteria 1,2,3,4",
     "6af3deed26b130dfc90b180c79fb1757944ec2fb998d7ead3d33d8e7647f3a34"),
    ("verify-all --criteria 8,9,10,11",
     "eeac513163946792a29f40113b06d356af0ad0ad2b42c365f62fb6bedc94eb1a"),
    ("verify-all --criteria 6,12",
     "c3e80c9c6b541232e40633b0daf5ba313ff401144aa2fbd40d7f346f1e1f2ad5"),
    ("search --objective I_t_intersecting --n 8 --k 3 --t 1",
     "fb8967b19c3c0cb20da4296552b69e3e583c2eaec3a0eac47a440299967f7071"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS, ids=[a for a, _ in GOLDEN_REPORTS])
def test_golden_report_digests(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(strip_timing(out).encode()).hexdigest() == digest
