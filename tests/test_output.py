"""The streamed CLI outputs equal the outputs built whole.

Each reference below builds its output the direct way: every row in one
list, ``bk_coefficient`` on every triple, ``json.dumps(indent=2,
sort_keys=True)`` over the whole payload and ``csv.writer`` over every row.
"""

import csv
import hashlib
import io
import json

import pytest

from bkcalc import (
    GroupType,
    OracleBudget,
    bk_coefficient,
    classify,
    enumerate_partition_tuples,
    format_word,
    weyl_group,
)
from conftest import run_cli

# the ROADMAP regression anchors: sha256 of each bk-table's CSV rows
BK_TABLE_DIGESTS = {
    "A2": "189de95badd9a15ac68ece18bd4f6da12ac477f01ab0ae129b6931317c9cc659",
    "B2": "c2ca2fbce67ceb34bd9c63ff23a8040339bd1a2a181e96e08da40785b4a6183c",
    "G2": "f67b17567b570360e9235ddb7a5956611b3e1e0afc8821016f0f7e1ae77d156f",
    "A3": "458a2dc34d5b07ba3a723b617a050e2a90e6a2327b04b2a65f50f879939e2171",
    "B3": "e60349bb3a6e13f7b50e20e755ebce7bd2300ab565932e60e747afc711e475fd",
}


def _cli(*args):
    """Exit code and stdout of a run that writes nothing to stderr."""
    r = run_cli(*args)
    assert r.stderr == ""
    return r.exit_code, r.output


def _group(label):
    return weyl_group(GroupType.parse(label))


def _bk_table_reference(label, fmt):
    g = _group(label)
    n = g.w0.length
    rows = [
        (format_word(u), format_word(v), format_word(w), bk_coefficient(u, v, w))
        for u in g.elements for v in g.elements
        for w in g.by_length(2 * n - u.length - v.length)
    ]
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["u", "v", "w", "coefficient"])
    wr.writerows(rows)
    table = buf.getvalue()
    digest = hashlib.sha256(table.encode()).hexdigest()
    nonzero = sum(1 for r in rows if r[3])
    if fmt == "json":
        return json.dumps({
            "group": label,
            "rows": [list(r) for r in rows],
            "row_count": len(rows),
            "nonzero_count": nonzero,
            "digest": digest,
        }, indent=2, sort_keys=True) + "\n"
    return table + f"# rows={len(rows)} nonzero={nonzero} sha256={digest}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3"])
def test_bk_table_equals_whole_reference(label, fmt):
    assert _cli("bk-table", "--group", label, "--format", fmt) == (
        0, _bk_table_reference(label, fmt))


@pytest.mark.parametrize("label", sorted(BK_TABLE_DIGESTS))
def test_bk_table_digests(label):
    code, out = _cli("bk-table", "--group", label, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["digest"] == BK_TABLE_DIGESTS[label]
    # the digest is that of the CSV rows, which the text format prints
    code, text = _cli("bk-table", "--group", label)
    table, _, trailer = text.rpartition("# ")
    assert hashlib.sha256(table.encode()).hexdigest() == data["digest"]
    assert trailer == (f"rows={data['row_count']} "
                       f"nonzero={data['nonzero_count']} sha256={data['digest']}\n")


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_bk_table_coefficient_is_bk_coefficient_on_every_row(label):
    g = _group(label)
    element = {format_word(w): w for w in g.elements}
    code, out = _cli("bk-table", "--group", label, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))[1:-1]  # header, trailer
    n = g.w0.length
    assert len(rows) == sum(
        len(g.by_length(2 * n - u.length - v.length))
        for u in g.elements for v in g.elements)
    for u, v, w, c in rows:
        assert int(c) == bk_coefficient(element[u], element[v], element[w])


def _classify_reference(label, weights, fmt, budget=10**5):
    g = _group(label)
    ws = tuple(tuple(int(c) for c in part.split(","))
               for part in weights.split(";"))
    result = classify(g, ws, K=3, budget=OracleBudget(dim_cap=budget))
    payload = {
        "group": label,
        "weights": [list(w) for w in result.weights],
        "prv": result.prv,
        "cohomological": result.cohomological,
        "regularly_extremal": result.regularly_extremal,
        "witnesses": {
            "prv": [[format_word(w) for w in t] for t in result.prv_witnesses],
            "cohomological": [
                [format_word(w) for w in t] for t in result.coh_witnesses],
            "regularly_extremal": [
                [format_word(w) for w in t] for t in result.reg_witnesses],
        },
        "stable_mult_one": {
            "status": result.stable_mult_one.kind,
            "refuted_k": result.stable_mult_one.refuted_k,
            "refuted_dim": result.stable_mult_one.refuted_dim,
            "probed_depth": result.stable_mult_one.probed_depth,
            "provenance": result.stable_mult_one.provenance,
        },
        "oracle_mults": [list(km) for km in result.oracle_mults],
        "oracle_overflow": result.oracle_overflow,
    }
    if result.extended:
        payload["note"] = "s > 3: extended beyond the three-factor statements"
    code = 4 if result.oracle_overflow else 0
    if fmt == "json":
        return code, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["key", "value"])
        for k in ("group", "weights", "prv", "cohomological",
                  "regularly_extremal"):
            wr.writerow([k, json.dumps(payload[k])])
        wr.writerow(["stable_mult_one", payload["stable_mult_one"]["status"]])
        wr.writerow(["oracle_mults", json.dumps(payload["oracle_mults"])])
        return code, buf.getvalue()
    lines = [
        f"group: {label}",
        f"weights: {weights}",
        f"prv: {str(result.prv).lower()}",
        f"cohomological: {str(result.cohomological).lower()}",
        f"regularly_extremal: {str(result.regularly_extremal).lower()}",
        f"stable_mult_one: {result.stable_mult_one.kind}"
        f" ({result.stable_mult_one.provenance})",
        f"oracle_mults: {payload['oracle_mults']}",
    ]
    for kind in ("prv", "cohomological", "regularly_extremal"):
        for t in payload["witnesses"][kind]:
            lines.append(f"witness[{kind}]: {','.join(t)}")
    if result.oracle_overflow:
        lines.append("oracle_overflow: true")
    return code, "\n".join(lines) + "\n"


CLASSIFY_CASES = [
    ("A2", "1,0;0,1;1,1", 10**5),  # every witness list nonempty
    ("A2", "1,1;1,1;1,1", 10**5),  # empty cohomological and extremal lists
    ("A2", "1,1;1,1;1,1", 4),  # oracle overflow: exit 4, payload printed
    ("A2", "1,0;0,1;1,0;0,1", 10**5),  # s = 4, with the note
    ("B2", "1,0;0,1;1,1", 10**5),
    ("G2", "1,0;1,0;1,0", 10**5),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("label,weights,budget", CLASSIFY_CASES)
def test_classify_equals_whole_reference(label, weights, budget, fmt):
    got = _cli("classify", "--group", label, "--weights", weights,
               "--budget", str(budget), "--format", fmt)
    assert got == _classify_reference(label, weights, fmt, budget)


def _enumerate_reference(label, s, fmt):
    g = _group(label)
    tuples = enumerate_partition_tuples(g, s)
    note = "extended beyond the three-factor statements" if s > 3 else ""
    if fmt == "json":
        payload = {
            "group": label,
            "s": s,
            "count": len(tuples),
            "tuples": [[format_word(w) for w in t] for t in tuples],
        }
        if note:
            payload["note"] = note
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [";".join(format_word(w) for w in t) for t in tuples]
    lines.append(f"# count={len(tuples)}" + (f" note={note}" if note else ""))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("label,s", [("A1", 2), ("A2", 3), ("B2", 4), ("G2", 3)])
def test_enumerate_equals_whole_reference(label, s, fmt):
    assert _cli("enumerate", "--group", label, "--s", str(s),
                "--format", fmt) == (0, _enumerate_reference(label, s, fmt))


@pytest.mark.parametrize("args", [
    ["bk-table", "--group", "A2", "--format", "json"],
    ["bk-table", "--group", "B2"],
    ["classify", "--group", "A2", "--weights", "1,0;0,1;1,1",
     "--format", "json"],
    ["classify", "--group", "A2", "--weights", "1,1;1,1;1,1",
     "--budget", "4"],
    ["enumerate", "--group", "A2", "--s", "4", "--format", "json"],
    ["face", "--group", "A2", "--witness", "e;e;1.2.1", "--format", "json"],
    ["decompose", "--group", "A2", "--weights", "1,1;1,1"],
    ["verify", "--group", "A1", "--suite", "theorem7"],
])
def test_out_file_has_the_stdout_bytes(args, tmp_path):
    code, out = _cli(*args)
    target = tmp_path / "out"
    assert _cli(*args, "--out", str(target)) == (code, "")
    assert target.read_bytes() == out.encode()


def test_refused_run_creates_no_out_file(tmp_path, monkeypatch):
    monkeypatch.setattr("bkcalc.cli.BK_TABLE_ROW_CAP", 34)
    target = tmp_path / "out"
    assert run_cli("bk-table", "--group", "A2", "--out", str(target)) == (
        5, "", "error: bk-table of 35 rows exceeds cap 34\n")
    assert not target.exists()
