import functools
import json
import os
import subprocess
import sys

import pytest

from bkcalc import OracleBudget, cli, verify, weyl
from bkcalc.cli import RunConfig, main
from conftest import run_cli as run


def test_classify_text():
    r = run("classify", "--group", "A2", "--weights", "1,0;0,1;1,1")
    assert r.exit_code == 0
    assert "cohomological: true" in r.output
    assert "witness[cohomological]: e,e,1.2.1" in r.output
    assert "proven_true" in r.output


def test_classify_refuted():
    r = run("classify", "--group", "A2", "--weights", "1,1;1,1;1,1")
    assert r.exit_code == 0
    assert "prv: true" in r.output
    assert "cohomological: false" in r.output
    assert "stable_mult_one: refuted" in r.output


def test_classify_a1_zero():
    r = run("classify", "--group", "A1", "--weights", "0;0;0")
    assert r.exit_code == 0
    assert "prv: true" in r.output
    assert "cohomological: true" in r.output
    assert "regularly_extremal: true" in r.output


def test_classify_json_schema():
    r = run("classify", "--group", "A2",
            "--weights", "1,0;0,1;1,1", "--format", "json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    for key in ("group", "weights", "prv", "cohomological",
                "regularly_extremal", "witnesses", "stable_mult_one",
                "oracle_mults"):
        assert key in data
    assert data["stable_mult_one"]["status"] == "proven_true"
    assert data["oracle_mults"] == [[1, 1], [2, 1], [3, 1]]


def test_classify_parse_error_exit_2():
    r = run("classify", "--group", "A2", "--weights", "1,x;0,1;1,1")
    assert r.exit_code == 2


@pytest.mark.parametrize("coord", [
    "1", " +1\t", "-0", "0_1", "\u0661", "1_", "1__0", "+-1", "1\x1c", "x", "",
])
def test_weight_coordinates_parse_as_int_does(coord):
    try:
        int(coord)
        expected = 0
    except ValueError:
        expected = 2
    r = run("decompose", "--group", "A1", "--weights", f"{coord};0")
    assert r.exit_code == expected
    if expected:
        assert r.stderr == f"error: cannot parse weights {coord + ';0'!r}\n"
        assert r.output == ""


def test_classify_non_dominant_exit_3():
    r = run("classify", "--group", "A2", "--weights", "-1,0;0,1;1,1")
    assert r.exit_code == 3


def test_classify_oracle_budget_exit_4_still_prints():
    r = run("classify", "--group", "A2",
            "--weights", "1,1;1,1;1,1", "--budget", "4")
    assert r.exit_code == 4
    assert "prv: true" in r.output
    assert "oracle_overflow: true" in r.output


def test_unknown_group_exit_2():
    r = run("classify", "--group", "E7", "--weights", "0;0;0")
    assert r.exit_code == 2


def test_bk_table_deterministic_with_digest():
    r1 = run("bk-table", "--group", "A2")
    r2 = run("bk-table", "--group", "A2")
    assert r1.exit_code == 0
    assert r1.output == r2.output
    assert "sha256=" in r1.output
    assert "nonzero=15" in r1.output


def test_bk_table_a1_nonzero_rows():
    r = run("bk-table", "--group", "A1", "--format", "json")
    data = json.loads(r.output)
    nonzero = [row for row in data["rows"] if row[3] == 1]
    assert sorted(tuple(r[:3]) for r in nonzero) == [
        ("1", "1", "e"), ("1", "e", "1"), ("e", "1", "1"),
    ]


def test_bk_table_identity_rows_are_dual_pairs():
    r = run("bk-table", "--group", "B2", "--format", "json")
    data = json.loads(r.output)
    from bkcalc import GroupType, multiply, parse_word, weyl_group

    g = weyl_group(GroupType.parse("B2"))
    for u, v, w, c in data["rows"]:
        if u != "2.1.2.1":  # w0 in B2
            continue
        expected = 1 if parse_word(g, w) is multiply(
            g.w0, parse_word(g, v)
        ) else 0
        assert c == expected


def test_enumerate_counts():
    r = run("enumerate", "--group", "A2", "--s", "3")
    assert r.exit_code == 0
    assert "# count=15" in r.output
    r2 = run("enumerate", "--group", "A1", "--s", "3")
    assert "# count=3" in r2.output


def test_enumerate_s4_flags_extension():
    r = run("enumerate", "--group", "A1", "--s", "4")
    assert "note=extended" in r.output


def test_decompose_rows():
    r = run("decompose", "--group", "A2", "--weights", "1,1;1,1")
    assert r.exit_code == 0
    lines = [l for l in r.output.strip().splitlines()[1:]]
    assert len(lines) == 5
    total = sum(int(l.split(",")[-2]) * int(l.split(",")[-1]) for l in lines)
    assert total == 64


def test_face_listing():
    r = run("face", "--group", "A2", "--witness", "e;e;1.2.1",
            "--bound", "1")
    assert r.exit_code == 0
    assert "1,0;0,1;1,1" in r.output
    assert "lattice_rank=4" in r.output


def test_face_invalid_witness_exit_3():
    r = run("face", "--group", "A2", "--witness", "1;1;1.2.1")
    assert r.exit_code == 3


def test_verify_suites_pass():
    r = run("verify", "--group", "A2", "--suite", "theorem3",
            "--suite", "ring-axioms", "--suite", "partitions")
    assert r.exit_code == 0
    assert r.output.count("[pass]") == 3


VERIFY_ALL = {
    "A1": """\
[pass] theorem3: checked=3 3 Levi-movable triples, all cup coefficients equal 1
[pass] theorem7: checked=6 degenerated coefficients are 1 on the Levi-movable locus, 0 off it
[pass] ring-axioms: checked=13 commutative, associative, Poincare duality holds
[pass] partitions: checked=3 3 ordered 3-part inversion-set partitions
[pass] equivalence: checked=27 desk-scale equivalence holds on the bound-2 box at K=3
[pass] prv-bound: checked=10 10 PRV tuples all have an invariant vector
[pass] oracle: checked=100 100 random pairs pass all oracle identities
""",
    "A2": """\
[pass] theorem3: checked=15 15 Levi-movable triples, all cup coefficients equal 1
[pass] theorem7: checked=50 degenerated coefficients are 1 on the Levi-movable locus, 0 off it
[pass] ring-axioms: checked=267 commutative, associative, Poincare duality holds
[pass] partitions: checked=15 15 ordered 3-part inversion-set partitions
[pass] equivalence: checked=729 desk-scale equivalence holds on the bound-2 box at K=3
[pass] prv-bound: checked=132 132 PRV tuples all have an invariant vector
[pass] oracle: checked=100 100 random pairs pass all oracle identities
""",
}


@pytest.mark.parametrize("label", sorted(VERIFY_ALL))
def test_verify_all_smallest_group(label):
    r = run("verify", "--group", label, "--suite", "all")
    assert r.exit_code == 0
    assert r.output == VERIFY_ALL[label]


def test_verify_unknown_suite_exit_2():
    r = run("verify", "--group", "A2", "--suite", "nope")
    assert r.exit_code == 2


def test_out_file(tmp_path):
    target = tmp_path / "table.csv"
    r = run("bk-table", "--group", "A1", "--out", str(target))
    assert r.exit_code == 0
    assert "sha256=" in target.read_text()


def test_out_file_not_writable_exit_2(tmp_path):
    target = tmp_path / "absent" / "x.txt"
    r = run("enumerate", "--group", "A2", "--out", str(target))
    assert r.exit_code == 2
    assert r.stderr == (
        f"error: [Errno 2] No such file or directory: '{target}'\n")
    assert r.output == ""


def test_run_config_round_trip():
    cfg = RunConfig(group="B3", scaling_depth=5, output_format="json")
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_run_config_env_default(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RunConfig(group="A1").to_dict()))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run("enumerate", "--s", "3")  # group taken from the config
    assert r.exit_code == 0
    assert "# count=3" in r.output


def test_classify_group_cap_exit_5_before_enumeration(monkeypatch):
    def no_enumeration(self):
        raise AssertionError("W was enumerated before the group cap")

    monkeypatch.setattr(weyl.WeylGroup, "_enumerate", no_enumeration)
    r = run("classify", "--group", "A9",
            "--weights", "0,0,0,0,0,0,0,0,0;0,0,0,0,0,0,0,0,0")
    assert r.exit_code == 5
    assert r.stderr == "error: |W| exceeds enumeration cap 1000000 for A9\n"
    assert r.output == ""


def test_classify_size_cap_exit_5_before_prv_search(monkeypatch):
    def no_prv(*args):
        raise AssertionError("PRV search ran before the size cap")

    monkeypatch.setattr(sys.modules["bkcalc.classify"], "prv_witnesses", no_prv)
    r = run("classify", "--group", "A2",
            "--weights", "1,0;0,1;1,1;1,0;0,1;1,0;0,1")
    assert r.exit_code == 5
    assert "exceeds cap 6" in r.stderr
    assert r.output == ""


def test_bk_table_row_cap_exit_5_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built before the row cap")

    monkeypatch.setattr(cli, "BK_TABLE_ROW_CAP", 34)
    monkeypatch.setattr(cli, "bk_partner", no_rows)
    r = run("bk-table", "--group", "A2")
    assert r.exit_code == 5
    assert r.stderr == "error: bk-table of 35 rows exceeds cap 34\n"
    assert r.output == ""


def test_verify_partitions_cap_exit_5_before_any_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("partitions were enumerated before the cap")

    # A2 at s = 3 scans 6^3 = 216 tuples: refused under cap 215 ...
    monkeypatch.setattr(verify, "PARTITION_SWEEP_CAP", 215)
    monkeypatch.setattr(verify, "enumerate_partition_tuples", no_enumeration)
    r = run("verify", "--group", "A2", "--suite", "partitions")
    assert r.exit_code == 5
    assert r.stderr == "error: partitions sweep of 216 tuples exceeds cap 215\n"
    assert r.output == ""
    # ... and run at cap 216
    monkeypatch.undo()
    monkeypatch.setattr(verify, "PARTITION_SWEEP_CAP", 216)
    r = run("verify", "--group", "A2", "--suite", "partitions")
    assert r.exit_code == 0
    assert r.output == ("[pass] partitions: checked=15 15 ordered 3-part "
                        "inversion-set partitions\n")


def test_face_pair_cap_exit_5_before_the_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was walked before the pair cap")

    classify = sys.modules["bkcalc.classify"]
    monkeypatch.setattr(classify, "DEFAULT_FACE_PAIR_CAP", 80)
    monkeypatch.setattr(classify, "add_weights", no_grid)
    r = run("face", "--group", "A2", "--witness", "e;e;1.2.1",
            "--bound", "2")
    assert r.exit_code == 5
    assert r.stderr == "error: face grid of 81 weight pairs exceeds cap 80\n"
    assert r.output == ""


def test_classify_zero_depth_exit_2():
    r = run("classify", "--group", "A2", "--weights", "1,0;0,1;1,1",
            "-K", "0")
    assert r.exit_code == 2


def test_zero_budget_is_not_the_default():
    r = run("classify", "--group", "A2", "--weights", "1,0;0,1;1,1",
            "--budget", "0")
    assert r.exit_code == 4
    assert "oracle_overflow: true" in r.output
    r = run("decompose", "--group", "A2", "--weights", "1,0;0,1",
            "--budget", "0")
    assert r.exit_code == 4


def test_verify_oracle_overflow_exit_4(monkeypatch):
    # the prv-bound sweep does not catch an overflow: at the default budget
    # it reaches one only after a long sweep, so the budget is tightened
    tight = functools.partial(verify.invariant_dim,
                              budget=OracleBudget(dim_cap=2))
    monkeypatch.setattr(verify, "invariant_dim", tight)
    r = run("verify", "--group", "A2", "--suite", "prv-bound",
            "--weight-bound", "1")
    assert r.exit_code == 4
    assert "dim V_(0, 1) = 3 exceeds budget cap 2" in r.stderr
    assert r.output == ""


def test_verify_all_overflow_oracle_is_inconclusive_exit_4(monkeypatch):
    tight = functools.partial(verify.decompose, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "decompose", tight)
    r = run("verify", "--group", "A2", "--suite", "oracle")
    assert r.exit_code == 4
    assert r.output == (
        "[inconclusive] oracle: checked=100 0 random pairs pass all oracle "
        "identities; 100 inconclusive (oracle budget)\n")


def test_verify_all_overflow_equivalence_is_inconclusive_exit_4(monkeypatch):
    tight = functools.partial(verify.classify, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "classify", tight)
    r = run("verify", "--group", "A2", "--suite", "equivalence",
            "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 4
    assert r.output.startswith("[inconclusive] equivalence: checked=64 ")
    assert r.output.endswith("; 64 inconclusive (oracle budget)\n")


def test_verify_one_conclusive_case_passes(monkeypatch):
    # the first triple, (0, 0)^3, gets the default budget; the other 63
    # get none, so the oracle decides exactly one case
    budgets = iter([OracleBudget()] + [OracleBudget(dim_cap=0)] * 63)
    real = verify.classify
    monkeypatch.setattr(verify, "classify", lambda group, weights, K: real(
        group, weights, K=K, budget=next(budgets)))
    r = run("verify", "--group", "A2", "--suite", "equivalence",
            "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 0
    assert r.output == (
        "[pass] equivalence: checked=64 desk-scale equivalence holds on the "
        "bound-1 box at K=2; 63 inconclusive (oracle budget)\n")


def test_verify_failure_outranks_inconclusive(monkeypatch):
    tight = functools.partial(verify.decompose, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "decompose", tight)
    monkeypatch.setattr(verify, "bk_product",
                        lambda u, v: verify.CohomClass.basis(u))
    r = run("verify", "--group", "A1", "--suite", "ring-axioms",
            "--suite", "oracle")
    assert r.exit_code == 1
    assert "[FAIL] ring-axioms" in r.output
    assert "[inconclusive] oracle" in r.output


def test_verify_threads_weight_bound_and_depth():
    r = run("verify", "--group", "A2", "--suite", "equivalence",
            "--suite", "prv-bound", "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 0
    assert "equivalence: checked=64 " in r.output
    assert "bound-1 box at K=2" in r.output
    assert "prv-bound: checked=19 " in r.output


@pytest.mark.parametrize("option", [["--weight-bound", "-1"], ["-K", "0"]])
def test_verify_rejects_bad_sweep_parameters(option):
    r = run("verify", "--group", "A2", "--suite", "prv-bound", *option)
    assert r.exit_code == 2


def test_verify_defaults_come_from_config(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    cfg = RunConfig(group="A2", weight_bound=1, scaling_depth=2)
    path.write_text(json.dumps(cfg.to_dict()))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run("verify", "--suite", "equivalence")
    assert r.exit_code == 0
    assert "checked=64 " in r.output and "K=2" in r.output


def test_config_unknown_key_exit_2(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "A1", "verify_cup": True}))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run("enumerate", "--s", "3")
    assert r.exit_code == 2
    assert "verify_cup" in r.stderr
    assert r.output == ""


def test_config_missing_file_exit_2(tmp_path, monkeypatch):
    monkeypatch.setenv("BKCALC_CONFIG", str(tmp_path / "absent.json"))
    r = run("enumerate", "--s", "3")
    assert r.exit_code == 2


@pytest.mark.parametrize("data,message", [
    ({"group": 5}, "group must be str, not int"),
    ({"scaling_depth": "3"}, "scaling_depth must be int, not str"),
    ({"scaling_depth": True}, "scaling_depth must be int, not bool"),
    ({"output_format": "xml"},
     "output_format must be one of text, json, csv, not 'xml'"),
])
def test_config_bad_value_exit_2(tmp_path, monkeypatch, data, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run("classify", "--weights", "1,0;0,1;1,1")
    assert r.exit_code == 2
    assert r.stderr == f"error: BKCALC_CONFIG: {message}\n"
    assert r.output == ""


# -- the option parser -------------------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.mark.parametrize("options", [
    ["--weight-bound", "1", "-K", "2"],
    ["--weight-bound=1", "-K2"],
    ["--weight-bound", "1", "--scaling-depth=2"],
    ["--weight-bound", "2", "-K", "3", "--weight-bound", "1", "-K2"],
])
def test_option_forms(options):
    r = run("verify", "--group=A2", "--suite", "equivalence", *options)
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.output == (
        "[pass] equivalence: checked=64 desk-scale equivalence holds on the "
        "bound-1 box at K=2\n")


@pytest.mark.parametrize("weights", [
    ["--weights", "-1,0;0,1;1,1"], ["--weights=-1,0;0,1;1,1"],
])
def test_option_value_may_start_with_a_dash(weights):
    r = run("classify", "--group", "A2", *weights)
    assert r.exit_code == 3
    assert r.stderr == "error: weight (-1, 0) is not dominant\n"
    assert r.output == ""


def test_suite_repeats_and_defaults_to_all():
    theorem3, _, _, partitions = VERIFY_ALL["A1"].splitlines(True)[:4]
    r = run("verify", "--group", "A1", "--suite", "partitions",
            "--suite", "theorem3")
    assert (r.exit_code, r.output) == (0, partitions + theorem3)
    r = run("verify", "--group", "A1")
    assert (r.exit_code, r.output) == (0, VERIFY_ALL["A1"])


@pytest.mark.parametrize("args,message", [
    (["classify", "--group", "A2"], "missing option '--weights'"),
    (["classify", "--group", "A2", "--weights", "0,0;0,0", "--bogus", "1"],
     "no such option '--bogus'"),
    (["nope"], "no such command 'nope'"),
    (["enumerate", "--group", "A1", "--s", "x"],
     "invalid value for '--s': 'x' is not a valid integer"),
    (["classify", "--group", "A2", "--weights", "0,0;0,0", "-Kx"],
     "invalid value for '-K': 'x' is not a valid integer"),
    (["bk-table", "--group", "A1", "--format", "xml"],
     "invalid value for '--format': 'xml' is not one of 'text', 'json', "
     "'csv'"),
    (["classify", "--group", "A2", "--weight", "0,0;0,0"],
     "no such option '--weight'"),
    (["bk-table", "--gr", "A1"], "no such option '--gr'"),
    (["verify", "--group", "A1", "--suite"],
     "option '--suite' requires an argument"),
    (["verify", "--group", "A1", "theorem3"],
     "unexpected extra argument 'theorem3'"),
    (["--bogus"], "no such option '--bogus'"),
    (["bk-table", "--version"], "no such option '--version'"),
])
def test_usage_error_is_one_line_exit_2(args, message):
    assert run(*args) == (2, "", f"error: {message}\n")


def test_bare_command_line_exits_2():
    r = run()
    assert (r.exit_code, r.output) == (2, "")
    assert r.stderr.startswith("error: missing command")
    assert r.stderr.count("\n") == 1


def test_version_line(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--version"], prog_name="bkcalc")
    assert exited.value.code == 0
    assert capsys.readouterr() == ("bkcalc, version 0.1.0\n", "")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "bkcalc.cli", "--version"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "python -m bkcalc.cli, version 0.1.0\n", "")


@pytest.mark.parametrize("command", [
    None, "bk-table", "classify", "decompose", "enumerate", "face", "verify",
])
def test_help_exits_0(command):
    r = run("--help") if command is None else run(command, "--help")
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.output.startswith("Usage: ")
    if command is None:
        for name in ("bk-table", "classify", "decompose", "enumerate", "face",
                     "verify"):
            assert f"\n  {name} " in r.output
    else:
        assert "\n  --group TEXT " in r.output


@pytest.mark.parametrize("args,code", [
    (["enumerate", "--group", "A1", "--s", "2"], 0),
    (["classify", "--group", "A2", "--weights", "1,1;1,1;1,1",
      "--budget", "4"], 4),
    (["classify", "--group", "A2", "--weights", "-1,0;0,1;1,1"], 3),
    (["nope"], 2),
])
def test_main_ends_in_system_exit_with_the_command_code(args, code, capsys):
    # the call perfbench/clitrace.py makes
    with pytest.raises(SystemExit) as exited:
        main(args=args, prog_name="bkcalc")
    assert exited.value.code == code


def test_interrupt_exits_1(monkeypatch):
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    options = cli._COMMANDS["bk-table"][1]
    monkeypatch.setitem(cli._COMMANDS, "bk-table", (interrupted, options))
    assert run("bk-table") == (1, "", "\nAborted!\n")
