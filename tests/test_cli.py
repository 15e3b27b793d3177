import functools
import json
import sys

import pytest
from click.testing import CliRunner

from bkcalc import OracleBudget, cli, verify, weyl
from bkcalc.cli import RunConfig, main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


def test_classify_text(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "1,0;0,1;1,1")
    assert r.exit_code == 0
    assert "cohomological: true" in r.output
    assert "witness[cohomological]: e,e,1.2.1" in r.output
    assert "proven_true" in r.output


def test_classify_refuted(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "1,1;1,1;1,1")
    assert r.exit_code == 0
    assert "prv: true" in r.output
    assert "cohomological: false" in r.output
    assert "stable_mult_one: refuted" in r.output


def test_classify_a1_zero(runner):
    r = run(runner, "classify", "--group", "A1", "--weights", "0;0;0")
    assert r.exit_code == 0
    assert "prv: true" in r.output
    assert "cohomological: true" in r.output
    assert "regularly_extremal: true" in r.output


def test_classify_json_schema(runner):
    r = run(runner, "classify", "--group", "A2",
            "--weights", "1,0;0,1;1,1", "--format", "json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    for key in ("group", "weights", "prv", "cohomological",
                "regularly_extremal", "witnesses", "stable_mult_one",
                "oracle_mults"):
        assert key in data
    assert data["stable_mult_one"]["status"] == "proven_true"
    assert data["oracle_mults"] == [[1, 1], [2, 1], [3, 1]]


def test_classify_parse_error_exit_2(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "1,x;0,1;1,1")
    assert r.exit_code == 2


@pytest.mark.parametrize("coord", [
    "1", " +1\t", "-0", "0_1", "\u0661", "1_", "1__0", "+-1", "1\x1c", "x", "",
])
def test_weight_coordinates_parse_as_int_does(runner, coord):
    try:
        int(coord)
        expected = 0
    except ValueError:
        expected = 2
    r = run(runner, "decompose", "--group", "A1", "--weights", f"{coord};0")
    assert r.exit_code == expected
    if expected:
        assert r.output == f"error: cannot parse weights {coord + ';0'!r}\n"


def test_classify_non_dominant_exit_3(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "-1,0;0,1;1,1")
    assert r.exit_code == 3


def test_classify_oracle_budget_exit_4_still_prints(runner):
    r = run(runner, "classify", "--group", "A2",
            "--weights", "1,1;1,1;1,1", "--budget", "4")
    assert r.exit_code == 4
    assert "prv: true" in r.output
    assert "oracle_overflow: true" in r.output


def test_unknown_group_exit_2(runner):
    r = run(runner, "classify", "--group", "E7", "--weights", "0;0;0")
    assert r.exit_code == 2


def test_bk_table_deterministic_with_digest(runner):
    r1 = run(runner, "bk-table", "--group", "A2")
    r2 = run(runner, "bk-table", "--group", "A2")
    assert r1.exit_code == 0
    assert r1.output == r2.output
    assert "sha256=" in r1.output
    assert "nonzero=15" in r1.output


def test_bk_table_a1_nonzero_rows(runner):
    r = run(runner, "bk-table", "--group", "A1", "--format", "json")
    data = json.loads(r.output)
    nonzero = [row for row in data["rows"] if row[3] == 1]
    assert sorted(tuple(r[:3]) for r in nonzero) == [
        ("1", "1", "e"), ("1", "e", "1"), ("e", "1", "1"),
    ]


def test_bk_table_identity_rows_are_dual_pairs(runner):
    r = run(runner, "bk-table", "--group", "B2", "--format", "json")
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


def test_enumerate_counts(runner):
    r = run(runner, "enumerate", "--group", "A2", "--s", "3")
    assert r.exit_code == 0
    assert "# count=15" in r.output
    r2 = run(runner, "enumerate", "--group", "A1", "--s", "3")
    assert "# count=3" in r2.output


def test_enumerate_s4_flags_extension(runner):
    r = run(runner, "enumerate", "--group", "A1", "--s", "4")
    assert "note=extended" in r.output


def test_decompose_rows(runner):
    r = run(runner, "decompose", "--group", "A2", "--weights", "1,1;1,1")
    assert r.exit_code == 0
    lines = [l for l in r.output.strip().splitlines()[1:]]
    assert len(lines) == 5
    total = sum(int(l.split(",")[-2]) * int(l.split(",")[-1]) for l in lines)
    assert total == 64


def test_face_listing(runner):
    r = run(runner, "face", "--group", "A2", "--witness", "e;e;1.2.1",
            "--bound", "1")
    assert r.exit_code == 0
    assert "1,0;0,1;1,1" in r.output
    assert "lattice_rank=4" in r.output


def test_face_invalid_witness_exit_3(runner):
    r = run(runner, "face", "--group", "A2", "--witness", "1;1;1.2.1")
    assert r.exit_code == 3


def test_verify_suites_pass(runner):
    r = run(runner, "verify", "--group", "A2", "--suite", "theorem3",
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
def test_verify_all_smallest_group(runner, label):
    r = run(runner, "verify", "--group", label, "--suite", "all")
    assert r.exit_code == 0
    assert r.output == VERIFY_ALL[label]


def test_verify_unknown_suite_exit_2(runner):
    r = run(runner, "verify", "--group", "A2", "--suite", "nope")
    assert r.exit_code == 2


def test_out_file(runner, tmp_path):
    target = tmp_path / "table.csv"
    r = run(runner, "bk-table", "--group", "A1", "--out", str(target))
    assert r.exit_code == 0
    assert "sha256=" in target.read_text()


def test_out_file_not_writable_exit_2(runner, tmp_path):
    target = tmp_path / "absent" / "x.txt"
    r = run(runner, "enumerate", "--group", "A2", "--out", str(target))
    assert r.exit_code == 2
    assert r.output == (
        f"error: [Errno 2] No such file or directory: '{target}'\n")


def test_run_config_round_trip():
    cfg = RunConfig(group="B3", scaling_depth=5, output_format="json")
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_run_config_env_default(runner, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RunConfig(group="A1").to_dict()))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run(runner, "enumerate", "--s", "3")  # group taken from the config
    assert r.exit_code == 0
    assert "# count=3" in r.output


def test_classify_group_cap_exit_5_before_enumeration(runner, monkeypatch):
    def no_enumeration(self):
        raise AssertionError("W was enumerated before the group cap")

    monkeypatch.setattr(weyl.WeylGroup, "_enumerate", no_enumeration)
    r = run(runner, "classify", "--group", "A9",
            "--weights", "0,0,0,0,0,0,0,0,0;0,0,0,0,0,0,0,0,0")
    assert r.exit_code == 5
    assert r.output == "error: |W| exceeds enumeration cap 1000000 for A9\n"


def test_classify_size_cap_exit_5_before_prv_search(runner, monkeypatch):
    def no_prv(*args):
        raise AssertionError("PRV search ran before the size cap")

    monkeypatch.setattr(sys.modules["bkcalc.classify"], "prv_witnesses", no_prv)
    r = run(runner, "classify", "--group", "A2",
            "--weights", "1,0;0,1;1,1;1,0;0,1;1,0;0,1")
    assert r.exit_code == 5
    assert "exceeds cap 6" in r.output


def test_bk_table_row_cap_exit_5_before_any_row(runner, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was built before the row cap")

    monkeypatch.setattr(cli, "BK_TABLE_ROW_CAP", 34)
    monkeypatch.setattr(cli, "bk_partner", no_rows)
    r = run(runner, "bk-table", "--group", "A2")
    assert r.exit_code == 5
    assert r.output == "error: bk-table of 35 rows exceeds cap 34\n"


def test_face_pair_cap_exit_5_before_the_grid(runner, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was walked before the pair cap")

    classify = sys.modules["bkcalc.classify"]
    monkeypatch.setattr(classify, "DEFAULT_FACE_PAIR_CAP", 80)
    monkeypatch.setattr(classify, "add_weights", no_grid)
    r = run(runner, "face", "--group", "A2", "--witness", "e;e;1.2.1",
            "--bound", "2")
    assert r.exit_code == 5
    assert r.output == "error: face grid of 81 weight pairs exceeds cap 80\n"


def test_classify_zero_depth_exit_2(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "1,0;0,1;1,1",
            "-K", "0")
    assert r.exit_code == 2


def test_zero_budget_is_not_the_default(runner):
    r = run(runner, "classify", "--group", "A2", "--weights", "1,0;0,1;1,1",
            "--budget", "0")
    assert r.exit_code == 4
    assert "oracle_overflow: true" in r.output
    r = run(runner, "decompose", "--group", "A2", "--weights", "1,0;0,1",
            "--budget", "0")
    assert r.exit_code == 4


def test_verify_oracle_overflow_exit_4(runner, monkeypatch):
    # the prv-bound sweep does not catch an overflow: at the default budget
    # it reaches one only after a long sweep, so the budget is tightened
    tight = functools.partial(verify.invariant_dim,
                              budget=OracleBudget(dim_cap=2))
    monkeypatch.setattr(verify, "invariant_dim", tight)
    r = run(runner, "verify", "--group", "A2", "--suite", "prv-bound",
            "--weight-bound", "1")
    assert r.exit_code == 4
    assert "dim V_(0, 1) = 3 exceeds budget cap 2" in r.output


def test_verify_all_overflow_oracle_is_inconclusive_exit_4(runner, monkeypatch):
    tight = functools.partial(verify.decompose, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "decompose", tight)
    r = run(runner, "verify", "--group", "A2", "--suite", "oracle")
    assert r.exit_code == 4
    assert r.output == (
        "[inconclusive] oracle: checked=100 0 random pairs pass all oracle "
        "identities; 100 inconclusive (oracle budget)\n")


def test_verify_all_overflow_equivalence_is_inconclusive_exit_4(
        runner, monkeypatch):
    tight = functools.partial(verify.classify, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "classify", tight)
    r = run(runner, "verify", "--group", "A2", "--suite", "equivalence",
            "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 4
    assert r.output.startswith("[inconclusive] equivalence: checked=64 ")
    assert r.output.endswith("; 64 inconclusive (oracle budget)\n")


def test_verify_one_conclusive_case_passes(runner, monkeypatch):
    # the first triple, (0, 0)^3, gets the default budget; the other 63
    # get none, so the oracle decides exactly one case
    budgets = iter([OracleBudget()] + [OracleBudget(dim_cap=0)] * 63)
    real = verify.classify
    monkeypatch.setattr(verify, "classify", lambda group, weights, K: real(
        group, weights, K=K, budget=next(budgets)))
    r = run(runner, "verify", "--group", "A2", "--suite", "equivalence",
            "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 0
    assert r.output == (
        "[pass] equivalence: checked=64 desk-scale equivalence holds on the "
        "bound-1 box at K=2; 63 inconclusive (oracle budget)\n")


def test_verify_failure_outranks_inconclusive(runner, monkeypatch):
    tight = functools.partial(verify.decompose, budget=OracleBudget(dim_cap=0))
    monkeypatch.setattr(verify, "decompose", tight)
    monkeypatch.setattr(verify, "bk_product",
                        lambda u, v: verify.CohomClass.basis(u))
    r = run(runner, "verify", "--group", "A1", "--suite", "ring-axioms",
            "--suite", "oracle")
    assert r.exit_code == 1
    assert "[FAIL] ring-axioms" in r.output
    assert "[inconclusive] oracle" in r.output


def test_verify_threads_weight_bound_and_depth(runner):
    r = run(runner, "verify", "--group", "A2", "--suite", "equivalence",
            "--suite", "prv-bound", "--weight-bound", "1", "-K", "2")
    assert r.exit_code == 0
    assert "equivalence: checked=64 " in r.output
    assert "bound-1 box at K=2" in r.output
    assert "prv-bound: checked=19 " in r.output


@pytest.mark.parametrize("option", [["--weight-bound", "-1"], ["-K", "0"]])
def test_verify_rejects_bad_sweep_parameters(runner, option):
    r = run(runner, "verify", "--group", "A2", "--suite", "prv-bound", *option)
    assert r.exit_code == 2


def test_verify_defaults_come_from_config(runner, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    cfg = RunConfig(group="A2", weight_bound=1, scaling_depth=2)
    path.write_text(json.dumps(cfg.to_dict()))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run(runner, "verify", "--suite", "equivalence")
    assert r.exit_code == 0
    assert "checked=64 " in r.output and "K=2" in r.output


def test_config_unknown_key_exit_2(runner, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": "A1", "verify_cup": True}))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run(runner, "enumerate", "--s", "3")
    assert r.exit_code == 2
    assert "verify_cup" in r.output


def test_config_missing_file_exit_2(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("BKCALC_CONFIG", str(tmp_path / "absent.json"))
    r = run(runner, "enumerate", "--s", "3")
    assert r.exit_code == 2


@pytest.mark.parametrize("data,message", [
    ({"group": 5}, "group must be str, not int"),
    ({"scaling_depth": "3"}, "scaling_depth must be int, not str"),
    ({"scaling_depth": True}, "scaling_depth must be int, not bool"),
    ({"output_format": "xml"},
     "output_format must be one of text, json, csv, not 'xml'"),
])
def test_config_bad_value_exit_2(runner, tmp_path, monkeypatch, data, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("BKCALC_CONFIG", str(path))
    r = run(runner, "classify", "--weights", "1,0;0,1;1,1")
    assert r.exit_code == 2
    assert r.output == f"error: BKCALC_CONFIG: {message}\n"
