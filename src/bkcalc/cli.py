"""Batch command-line surface.

Wire formats:
  * weights: semicolon-separated weights, comma-separated integer
    coordinates, no spaces, e.g. ``"1,0;0,1;1,1"``;
  * Weyl elements: dot-separated 1-based simple-reflection indices
    (``"1.2.1"``), with ``"e"`` for the identity.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 domain error,
4 oracle budget exceeded, 5 size cap exceeded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields

import click

from . import __version__
from .bkring import bk_coefficient, enumerate_partition_tuples
from .classify import classify as classify_tuple
from .classify import face_sample
from .errors import (
    GroupTooLarge,
    InvalidWitness,
    NonDominantInput,
    OracleOverflow,
    RankMismatch,
    UnsupportedType,
)
from .rootsys import GroupType, build_root_system
from .tensoracle import OracleBudget, decompose, weyl_dim
from .verify import run_suites
from .weyl import enumerate_weyl, format_word, parse_word

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_ORACLE = 4
EXIT_TOO_LARGE = 5

BK_TABLE_ROW_CAP = 2 * 10**6  # rows bk-table may build

CONFIG_ENV_VAR = "BKCALC_CONFIG"
OUTPUT_FORMATS = ("text", "json", "csv")

# every library error a command can meet, by the exit code it maps to
_EXIT_CODES = {
    UnsupportedType: EXIT_PARSE,
    RankMismatch: EXIT_PARSE,
    ValueError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    NonDominantInput: EXIT_DOMAIN,
    InvalidWitness: EXIT_DOMAIN,
    OracleOverflow: EXIT_ORACLE,
    GroupTooLarge: EXIT_TOO_LARGE,
}

# the strings int() accepts, so bad input is refused before any int() call;
# int() strips whitespace other than the separators \x1c-\x1f
_INT = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")


@dataclass
class RunConfig:
    """Defaults shared by all subcommands; JSON round-trippable."""

    group: str = "A2"
    scaling_depth: int = 3
    weight_bound: int = 2
    oracle_dim_cap: int = 10**5
    output_format: str = "text"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls(**data)
        for f in fields(cls):
            value, kind = getattr(cfg, f.name), type(f.default)
            if type(value) is not kind:
                raise TypeError(f"{f.name} must be {kind.__name__}, "
                                f"not {type(value).__name__}")
        if cfg.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of "
                             f"{', '.join(OUTPUT_FORMATS)}, "
                             f"not {cfg.output_format!r}")
        return cfg

    @classmethod
    def load_default(cls) -> "RunConfig":
        """Read the file named by $BKCALC_CONFIG; the defaults if unset."""
        path = os.environ.get(CONFIG_ENV_VAR)
        if not path:
            return cls()
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config() -> RunConfig:
    try:
        return RunConfig.load_default()
    except (OSError, TypeError, ValueError) as exc:
        # unreadable file, bad JSON, or a key or value RunConfig rejects
        _fail(EXIT_PARSE, f"{CONFIG_ENV_VAR}: {exc}")


def _given_or(value, default):
    """An explicit option value, even 0 or "", wins over the config."""
    return default if value is None else value


def _parse_group(label: str):
    return enumerate_weyl(build_root_system(GroupType.parse(label)))


def _parse_weights(text: str, rank: int):
    parts = [part.split(",") for part in text.strip().split(";")]
    if not all(_INT.fullmatch(c) for part in parts for c in part):
        _fail(EXIT_PARSE, f"cannot parse weights {text!r}")
    weights = tuple(tuple(int(c) for c in part) for part in parts)
    for w in weights:
        if len(w) != rank:
            _fail(EXIT_PARSE, f"weight {w} has length {len(w)}, expected {rank}")
    return weights


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


class _Main(click.Group):
    def invoke(self, ctx):
        """Run a command; a library error becomes its exit code."""
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            code = next(_EXIT_CODES[t] for t in type(exc).__mro__
                        if t in _EXIT_CODES)
            _fail(code, str(exc))


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Exact tensor-cone classification and the degenerated Schubert product."""


_group_opt = click.option("--group", "group_label", default=None,
                          help="Group type label, e.g. A2, B3, G2.")
_format_opt = click.option("--format", "fmt", default=None,
                           type=click.Choice(OUTPUT_FORMATS),
                           help="Output format.")
_out_opt = click.option("--out", default=None, help="Write output to a file.")


@main.command("classify")
@_group_opt
@click.option("--weights", required=True, help='e.g. "1,0;0,1;1,1"')
@click.option("-K", "--scaling-depth", "depth", type=int, default=None)
@click.option("--budget", type=int, default=None,
              help="Dimension cap on the tabulated (smaller) factor.")
@_format_opt
@_out_opt
def cmd_classify(group_label, weights, depth, budget, fmt, out):
    """Classify a dominant weight tuple (PRV / cohomological / extremal)."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    ws = _parse_weights(weights, group.rs.rank)
    oracle_budget = OracleBudget(dim_cap=_given_or(budget, cfg.oracle_dim_cap))
    result = classify_tuple(
        group, ws, K=_given_or(depth, cfg.scaling_depth), budget=oracle_budget,
    )

    payload = {
        "group": str(group.rs.group_type),
        "weights": [list(w) for w in result.weights],
        "prv": result.prv,
        "cohomological": result.cohomological,
        "regularly_extremal": result.regularly_extremal,
        "witnesses": {
            "prv": [[format_word(w) for w in t] for t in result.prv_witnesses],
            "cohomological": [
                [format_word(w) for w in t] for t in result.coh_witnesses
            ],
            "regularly_extremal": [
                [format_word(w) for w in t] for t in result.reg_witnesses
            ],
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

    fmt = _given_or(fmt, cfg.output_format)
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["key", "value"])
        for k in ("group", "weights", "prv", "cohomological",
                  "regularly_extremal"):
            wr.writerow([k, json.dumps(payload[k])])
        wr.writerow(["stable_mult_one", payload["stable_mult_one"]["status"]])
        wr.writerow(["oracle_mults", json.dumps(payload["oracle_mults"])])
        text = buf.getvalue()
    else:
        lines = [
            f"group: {payload['group']}",
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
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if result.oracle_overflow:
        sys.exit(EXIT_ORACLE)


@main.command("bk-table")
@_group_opt
@_format_opt
@_out_opt
def cmd_bk_table(group_label, fmt, out):
    """Full multiplication table of the degenerated product."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    n = group.w0.length
    # one row per (u, v, w) with l(u) + l(v) + l(w) = 2 l(w0)
    sizes = [len(group.by_length(k)) for k in range(n + 1)]
    row_count = sum(sizes[a] * sizes[b] * sizes[2 * n - a - b]
                    for a in range(n + 1) for b in range(n - a, n + 1))
    if row_count > BK_TABLE_ROW_CAP:
        raise GroupTooLarge(f"bk-table of {row_count} rows exceeds cap "
                            f"{BK_TABLE_ROW_CAP}")
    rows = []
    for u in group.elements:
        for v in group.elements:
            target = 2 * n - u.length - v.length
            for w in group.by_length(target):
                rows.append(
                    (format_word(u), format_word(v), format_word(w),
                     bk_coefficient(u, v, w))
                )
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["u", "v", "w", "coefficient"])
    wr.writerows(rows)
    table = buf.getvalue()
    digest = hashlib.sha256(table.encode()).hexdigest()

    fmt = _given_or(fmt, cfg.output_format)
    nonzero = sum(1 for r in rows if r[3])
    if fmt == "json":
        text = json.dumps(
            {
                "group": str(group.rs.group_type),
                "rows": [list(r) for r in rows],
                "row_count": len(rows),
                "nonzero_count": nonzero,
                "digest": digest,
            },
            indent=2, sort_keys=True,
        ) + "\n"
    else:
        text = table + f"# rows={len(rows)} nonzero={nonzero} sha256={digest}\n"
    _emit(text, out)


@main.command("enumerate")
@_group_opt
@click.option("--s", "s", type=int, default=3, help="Number of tuple slots.")
@_format_opt
@_out_opt
def cmd_enumerate(group_label, s, fmt, out):
    """Ordered tuples of inversion sets partitioning the positive roots."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    tuples = enumerate_partition_tuples(group, s)
    fmt = _given_or(fmt, cfg.output_format)
    note = "extended beyond the three-factor statements" if s > 3 else ""
    if fmt == "json":
        payload = {
            "group": str(group.rs.group_type),
            "s": s,
            "count": len(tuples),
            "tuples": [[format_word(w) for w in t] for t in tuples],
        }
        if note:
            payload["note"] = note
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [";".join(format_word(w) for w in t) for t in tuples]
        lines.append(f"# count={len(tuples)}" + (f" note={note}" if note else ""))
        text = "\n".join(lines) + "\n"
    _emit(text, out)


@main.command("decompose")
@_group_opt
@click.option("--weights", required=True, help='Two weights, e.g. "1,1;1,1"')
@click.option("--budget", type=int, default=None,
              help="Dimension cap on the tabulated (smaller) factor.")
@_format_opt
@_out_opt
def cmd_decompose(group_label, weights, budget, fmt, out):
    """Decompose a tensor product of two irreducibles (exact oracle)."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    ws = _parse_weights(weights, group.rs.rank)
    if len(ws) != 2:
        _fail(EXIT_PARSE, "decompose takes exactly two weights")
    oracle_budget = OracleBudget(dim_cap=_given_or(budget, cfg.oracle_dim_cap))
    dec = decompose(group.rs, ws[0], ws[1], oracle_budget)
    fmt = _given_or(fmt, cfg.output_format)
    rows = [
        (",".join(map(str, w)), m, weyl_dim(group.rs, w)) for w, m in dec.terms
    ]
    if fmt == "json":
        text = json.dumps(
            {
                "group": str(group.rs.group_type),
                "weights": [list(w) for w in ws],
                "terms": [
                    {"weight": list(w), "multiplicity": m} for w, m in dec.terms
                ],
            },
            indent=2, sort_keys=True,
        ) + "\n"
    else:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["weight", "multiplicity", "dim"])
        wr.writerows(rows)
        text = buf.getvalue()
    _emit(text, out)


@main.command("face")
@_group_opt
@click.option("--witness", required=True, help='e.g. "e;e;1.2.1"')
@click.option("--bound", type=int, default=1)
@_format_opt
@_out_opt
def cmd_face(group_label, witness, bound, fmt, out):
    """Sample the minimal regular face attached to a partition witness."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    parts = witness.split(";")
    if len(parts) != 3:
        raise ValueError("witness needs three elements")
    tup = tuple(parse_word(group, p) for p in parts)
    sample = face_sample(group, tup, bound)
    fmt = _given_or(fmt, cfg.output_format)
    if fmt == "json":
        text = json.dumps(
            {
                "group": str(group.rs.group_type),
                "witness": [format_word(w) for w in tup],
                "bound": bound,
                "lattice_rank": sample.lattice_rank,
                "triples": [[list(w) for w in t] for t in sample.triples],
            },
            indent=2, sort_keys=True,
        ) + "\n"
    else:
        lines = [
            ";".join(",".join(map(str, w)) for w in t) for t in sample.triples
        ]
        lines.append(
            f"# count={len(sample.triples)} lattice_rank={sample.lattice_rank}"
        )
        text = "\n".join(lines) + "\n"
    _emit(text, out)


@main.command("verify")
@_group_opt
@click.option("--suite", "suites", multiple=True, default=("all",),
              help="Suite name or 'all'; repeatable.")
@click.option("--weight-bound", type=int, default=None)
@click.option("-K", "--scaling-depth", type=int, default=None)
@_out_opt
def cmd_verify(group_label, suites, weight_bound, scaling_depth, out):
    """Run the exhaustive verification sweeps; exit 0 iff all pass."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    results = run_suites(
        group, list(suites),
        weight_bound=_given_or(weight_bound, cfg.weight_bound),
        K=_given_or(scaling_depth, cfg.scaling_depth),
    )
    lines = []
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: checked={r.checked} {r.detail}")
        if not r.passed:
            failed = True
            lines.append(
                "counterexample: " + json.dumps(r.counterexample, sort_keys=True)
            )
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
