"""Batch command-line surface.

Wire formats:
  * weights: semicolon-separated weights, comma-separated integer
    coordinates, no spaces, e.g. ``"1,0;0,1;1,1"``;
  * Weyl elements: dot-separated 1-based simple-reflection indices
    (``"1.2.1"``), with ``"e"`` for the identity.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 domain error,
4 oracle budget exceeded (for ``verify``: a suite none of whose cases the
budget let it decide), 5 size cap exceeded.

One table, ``_COMMANDS``, names each command's function and its options;
:func:`main` parses argv against it with the standard library alone.  A
usage error, like every other error, is one ``error: ...`` line on stderr.

Every command writes through one writer, :func:`_emit`.  It takes the output
as a stream of string chunks and writes them in batches, after the command's
caps and computation have passed.  The bytes are those of building the whole
text first: JSON is exactly ``json.dumps(payload, indent=2, sort_keys=True)
+ "\\n"`` (see :func:`_json`), CSV is what ``csv.writer`` writes, and text
is one line per row.  The outputs that grow with |W|^k (the ``bk-table``
rows, the ``classify`` witnesses and the ``enumerate`` tuples) are
formatted row by row as they are written, so no command holds them as text.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys

from . import __version__
from .bkring import bk_partner, enumerate_partition_tuples
from .classify import classify as classify_tuple
from .classify import DEFAULT_SCALING_DEPTH, DEFAULT_WEIGHT_BOUND, face_sample
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
# imported here, not in cmd_verify: perfbench's tracer wraps only modules
# already imported when it is installed
from .verify import run_suites
from .weyl import enumerate_weyl, format_word, parse_word

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_ORACLE = 4
EXIT_TOO_LARGE = 5

BK_TABLE_ROW_CAP = 2 * 10**6  # rows bk-table may build
_BATCH = 1 << 16  # characters per write

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


class RunConfig:
    """Defaults shared by all subcommands; JSON round-trippable."""

    __slots__ = ("group", "scaling_depth", "weight_bound", "oracle_dim_cap",
                 "output_format")

    def __init__(
        self,
        group: str = "A2",
        scaling_depth: int = DEFAULT_SCALING_DEPTH,
        weight_bound: int = DEFAULT_WEIGHT_BOUND,
        oracle_dim_cap: int = OracleBudget.dim_cap,
        output_format: str = "text",
    ):
        self.group = group
        self.scaling_depth = scaling_depth
        self.weight_bound = weight_bound
        self.oracle_dim_cap = oracle_dim_cap
        self.output_format = output_format

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not RunConfig:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg, default = cls(**data), cls()
        for name in cls.__slots__:
            value, kind = getattr(cfg, name), type(getattr(default, name))
            if type(value) is not kind:
                raise TypeError(f"{name} must be {kind.__name__}, "
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
    print(f"error: {message}", file=sys.stderr)
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


def _emit(chunks, out: str | None):
    """Write the chunks in batches to the file ``out``, or to stdout.

    Called once the command's caps and computation have passed, so a refused
    run creates no file; the chunks themselves only format."""
    if out:
        with open(out, "w") as fh:
            _write(chunks, fh)
    else:
        _write(chunks, sys.stdout)
        sys.stdout.flush()


def _write(chunks, fh):
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH:
            fh.write("".join(batch))
            batch, size = [], 0
    fh.write("".join(batch))


class _Rows:
    """A list of flat rows in a JSON payload, which :func:`_json` writes row
    by row.  Each row is a sequence of JSON scalars, already encoded."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


class _Quoted(dict):
    """Weyl element -> its word as a JSON string, built on first use.  A
    word is digits and dots, or "e", so quoting it needs no escapes."""

    def __missing__(self, w):
        text = self[w] = f'"{format_word(w)}"'
        return text


def _word_rows(tuples) -> _Rows:
    """Tuples of Weyl elements as JSON rows of their words."""
    quoted = _Quoted()
    return _Rows([quoted[w] for w in t] for t in tuples)


def _json(payload):
    """The chunks of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    json.dumps writes the envelope with a marker string in place of each
    :class:`_Rows` value.  The rows are then written where the marker was,
    laid out as json.dumps lays out a list of lists, or as ``[]``.
    """
    streams = []

    def mark(value: _Rows):
        streams.append(value.rows)
        return f"\0{len(streams) - 1}"

    text = json.dumps(payload, indent=2, sort_keys=True, default=mark) + "\n"
    parts = re.split(r'"\\u0000(\d+)"', text)
    yield parts[0]
    for k in range(1, len(parts), 2):
        key_line = parts[k - 1].rpartition("\n")[2]
        pad = " " * (len(key_line) - len(key_line.lstrip(" ")))
        head, sep = f"\n{pad}  [\n{pad}    ", f",\n{pad}    "
        tail = f"\n{pad}  ]"
        lead = "["
        for row in streams[int(parts[k])]:
            yield lead + head + sep.join(row) + tail
            lead = ","
        yield "[]" if lead == "[" else f"\n{pad}]"
        yield parts[k + 1]


def cmd_classify(group_label, weights, depth, budget, fmt, out):
    """Classify a dominant weight tuple (PRV / cohomological / extremal)."""
    cfg = _load_config()
    group = _parse_group(_given_or(group_label, cfg.group))
    ws = _parse_weights(weights, group.rs.rank)
    oracle_budget = OracleBudget(dim_cap=_given_or(budget, cfg.oracle_dim_cap))
    result = classify_tuple(
        group, ws, K=_given_or(depth, cfg.scaling_depth), budget=oracle_budget,
    )

    witnesses = {
        "prv": result.prv_witnesses,
        "cohomological": result.coh_witnesses,
        "regularly_extremal": result.reg_witnesses,
    }
    payload = {
        "group": str(group.rs.group_type),
        "weights": [list(w) for w in result.weights],
        "prv": result.prv,
        "cohomological": result.cohomological,
        "regularly_extremal": result.regularly_extremal,
        "witnesses": {
            kind: _word_rows(tuples) for kind, tuples in witnesses.items()
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
        chunks = _json(payload)
    elif fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["key", "value"])
        for k in ("group", "weights", "prv", "cohomological",
                  "regularly_extremal"):
            wr.writerow([k, json.dumps(payload[k])])
        wr.writerow(["stable_mult_one", payload["stable_mult_one"]["status"]])
        wr.writerow(["oracle_mults", json.dumps(payload["oracle_mults"])])
        chunks = [buf.getvalue()]
    else:
        chunks = _classify_text(payload, weights, result, witnesses)
    _emit(chunks, out)
    if result.oracle_overflow:
        sys.exit(EXIT_ORACLE)


def _classify_text(payload, weights, result, witnesses):
    yield "\n".join([
        f"group: {payload['group']}",
        f"weights: {weights}",
        f"prv: {str(result.prv).lower()}",
        f"cohomological: {str(result.cohomological).lower()}",
        f"regularly_extremal: {str(result.regularly_extremal).lower()}",
        f"stable_mult_one: {result.stable_mult_one.kind}"
        f" ({result.stable_mult_one.provenance})",
        f"oracle_mults: {payload['oracle_mults']}",
    ]) + "\n"
    for kind, tuples in witnesses.items():
        for t in tuples:
            yield f"witness[{kind}]: {','.join(map(format_word, t))}\n"
    if result.oracle_overflow:
        yield "oracle_overflow: true\n"


def cmd_bk_table(group_label, fmt, out):
    """Full multiplication table of the degenerated product."""
    import hashlib  # only this command hashes; OpenSSL is slow to load

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
    # csv.writer's bytes: no word needs quoting, and rows end in \r\n
    header = "u,v,w,coefficient\r\n"
    row_end = ({w: f"{format_word(w)},0\r\n" for w in group.elements},
               {w: f"{format_word(w)},1\r\n" for w in group.elements})

    def csv_block(u, v, ws, partner):
        """The CSV rows of one (u, v); row_end[c][w] ends the row of w with
        coefficient c."""
        head = f"{format_word(u)},{format_word(v)},"
        return "".join([head + row_end[w is partner][w] for w in ws])

    # pass 1: the digest and the nonzero count, which lead the sorted JSON
    sha = hashlib.sha256(header.encode())
    nonzero = 0
    for block in _bk_blocks(group):
        nonzero += block[3] is not None
        sha.update(csv_block(*block).encode())
    digest = sha.hexdigest()

    # pass 2: the rows, formatted as they are written
    blocks = _bk_blocks(group)
    fmt = _given_or(fmt, cfg.output_format)
    if fmt == "json":
        quoted = _Quoted()
        rows = ((quoted[u], quoted[v], quoted[w], "1" if w is partner else "0")
                for u, v, ws, partner in blocks for w in ws)
        chunks = _json({
            "group": str(group.rs.group_type),
            "rows": _Rows(rows),
            "row_count": row_count,
            "nonzero_count": nonzero,
            "digest": digest,
        })
    else:
        def table():
            yield header
            for block in blocks:
                yield csv_block(*block)
            yield f"# rows={row_count} nonzero={nonzero} sha256={digest}\n"
        chunks = table()
    _emit(chunks, out)


def _bk_blocks(group):
    """(u, v, ws, partner) for each (u, v) in table order: ws are the w with
    l(u) + l(v) + l(w) = 2 l(w0), one row each, and partner is the only w
    with coefficient 1, or None."""
    n = group.w0.length
    for u in group.elements:
        for v in group.elements:
            ws = group.by_length(2 * n - u.length - v.length)
            if ws:
                yield u, v, ws, bk_partner(u, v)


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
            "tuples": _word_rows(tuples),
        }
        if note:
            payload["note"] = note
        chunks = _json(payload)
    else:
        chunks = _enumerate_text(tuples, note)
    _emit(chunks, out)


def _enumerate_text(tuples, note):
    for t in tuples:
        yield ";".join(map(format_word, t)) + "\n"
    yield f"# count={len(tuples)}" + (f" note={note}" if note else "") + "\n"


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
        chunks = _json({
            "group": str(group.rs.group_type),
            "weights": [list(w) for w in ws],
            "terms": [
                {"weight": list(w), "multiplicity": m} for w, m in dec.terms
            ],
        })
    else:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["weight", "multiplicity", "dim"])
        wr.writerows(rows)
        chunks = [buf.getvalue()]
    _emit(chunks, out)


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
        chunks = _json({
            "group": str(group.rs.group_type),
            "witness": [format_word(w) for w in tup],
            "bound": bound,
            "lattice_rank": sample.lattice_rank,
            "triples": [[list(w) for w in t] for t in sample.triples],
        })
    else:
        lines = [
            ";".join(",".join(map(str, w)) for w in t) for t in sample.triples
        ]
        lines.append(
            f"# count={len(sample.triples)} lattice_rank={sample.lattice_rank}"
        )
        chunks = ["\n".join(lines) + "\n"]
    _emit(chunks, out)


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
    for r in results:
        lines.append(f"[{r.status}] {r.name}: checked={r.checked} {r.detail}")
        if not r.passed:
            lines.append(
                "counterexample: " + json.dumps(r.counterexample, sort_keys=True)
            )
    _emit(["\n".join(lines) + "\n"], out)
    statuses = {r.status for r in results}
    if "FAIL" in statuses:
        sys.exit(EXIT_VERIFY_FAILED)
    if "inconclusive" in statuses:
        sys.exit(EXIT_ORACLE)


class _Option:
    """One option of a command: its names, the keyword argument it fills,
    how its value is read (``str``, ``int`` or a tuple of choices), its
    default, and whether it is required or repeats.  Every option takes a
    value."""

    __slots__ = ("names", "dest", "kind", "default", "required", "repeat",
                 "help")

    def __init__(self, *names, dest=None, kind=str, default=None,
                 required=False, repeat=False, help=""):
        self.names = names
        self.dest = dest or names[-1].lstrip("-").replace("-", "_")
        self.kind = kind
        self.default = default
        self.required = required
        self.repeat = repeat
        self.help = help

    def convert(self, name: str, text: str):
        if self.kind is int:
            try:
                return int(text)
            except ValueError:
                _fail(EXIT_PARSE, f"invalid value for {name!r}: {text!r} "
                                  f"is not a valid integer")
        if self.kind is not str and text not in self.kind:
            _fail(EXIT_PARSE, f"invalid value for {name!r}: {text!r} is not "
                              f"one of {', '.join(map(repr, self.kind))}")
        return text

    def label(self) -> str:
        """The names and the value's form, as ``--help`` lists them."""
        if self.kind in (str, int):
            metavar = "TEXT" if self.kind is str else "INTEGER"
        else:
            metavar = f"[{'|'.join(self.kind)}]"
        return f"{', '.join(self.names)} {metavar}"


_GROUP = _Option("--group", dest="group_label",
                 help="Group type label, e.g. A2, B3, G2.")
_BUDGET = _Option("--budget", kind=int,
                  help="Dimension cap on the tabulated (smaller) factor.")
_FORMAT = _Option("--format", dest="fmt", kind=OUTPUT_FORMATS,
                  help="Output format.")
_OUT = _Option("--out", help="Write output to a file.")

# every command: the function it runs and the options it takes
_COMMANDS = {
    "classify": (cmd_classify, (
        _GROUP,
        _Option("--weights", required=True, help='e.g. "1,0;0,1;1,1"'),
        _Option("-K", "--scaling-depth", dest="depth", kind=int),
        _BUDGET, _FORMAT, _OUT,
    )),
    "bk-table": (cmd_bk_table, (_GROUP, _FORMAT, _OUT)),
    "enumerate": (cmd_enumerate, (
        _GROUP,
        _Option("--s", kind=int, default=3, help="Number of tuple slots."),
        _FORMAT, _OUT,
    )),
    "decompose": (cmd_decompose, (
        _GROUP,
        _Option("--weights", required=True, help='Two weights, e.g. "1,1;1,1"'),
        _BUDGET, _FORMAT, _OUT,
    )),
    "face": (cmd_face, (
        _GROUP,
        _Option("--witness", required=True, help='e.g. "e;e;1.2.1"'),
        _Option("--bound", kind=int, default=1),
        _FORMAT, _OUT,
    )),
    "verify": (cmd_verify, (
        _GROUP,
        _Option("--suite", dest="suites", default=("all",), repeat=True,
                help="Suite name or 'all'; repeatable."),
        _Option("--weight-bound", kind=int),
        _Option("-K", "--scaling-depth", kind=int),
        _OUT,
    )),
}


def _summary(func) -> str:
    return (func.__doc__ or "").partition("\n")[0]


def _help(prog: str, command: str | None = None) -> str:
    if command is None:
        usage, heading = f"{prog} [--version] [--help] COMMAND [OPTIONS]", main
        rows = [(name, _summary(_COMMANDS[name][0]))
                for name in sorted(_COMMANDS)]
    else:
        func, options = _COMMANDS[command]
        usage, heading = f"{prog} {command} [OPTIONS]", func
        rows = [(opt.label(),
                 opt.help + ("  [required]" if opt.required else ""))
                for opt in options]
        rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows)
    lines = [f"Usage: {usage}", "", _summary(heading), "",
             "Commands:" if command is None else "Options:"]
    lines += [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]
    return "\n".join(lines)


def _prog_name() -> str:
    """``python -m bkcalc.cli`` under ``-m``, else the script's file name."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    if spec is not None:
        return f"python -m {spec.name.removesuffix('.__main__')}"
    return os.path.basename(sys.argv[0])


def _parse(argv: list[str], prog: str):
    """The function of the command that ``argv`` names, and its keyword
    arguments.

    An option's value is the next item, whatever it starts with (so
    ``--weights -1,0;0,1;1,1`` reaches the domain check), or follows ``=``
    (``--s=3``) or the letter of a short name (``-K3``).  Names are never
    abbreviated.  An option given twice keeps its last value, unless it
    repeats; a repeated option's default applies only when it is not given.
    """
    args = iter(argv)
    command = next(args, None)
    if command in ("--version", "--help"):
        print(f"{prog}, version {__version__}" if command == "--version"
              else _help(prog))
        sys.exit(0)
    if command is None:
        _fail(EXIT_PARSE, f"missing command; try '{prog} --help'")
    if command.startswith("-"):
        _fail(EXIT_PARSE, f"no such option {command!r}")
    if command not in _COMMANDS:
        _fail(EXIT_PARSE, f"no such command {command!r}")
    func, options = _COMMANDS[command]
    by_name = {name: opt for opt in options for name in opt.names}
    given = {}
    for arg in args:
        if arg == "--help":
            print(_help(prog, command))
            sys.exit(0)
        if not arg.startswith("-"):
            _fail(EXIT_PARSE, f"unexpected extra argument {arg!r}")
        if arg.startswith("--"):
            name, inline, value = arg.partition("=")
        else:
            name, value = arg[:2], arg[2:]
            inline = value
        opt = by_name.get(name)
        if opt is None:
            _fail(EXIT_PARSE, f"no such option {name!r}")
        if not inline:
            value = next(args, None)
            if value is None:
                _fail(EXIT_PARSE, f"option {name!r} requires an argument")
        value = opt.convert(name, value)
        if opt.repeat:
            value = given.get(opt.dest, ()) + (value,)
        given[opt.dest] = value
    for opt in options:
        if opt.required and opt.dest not in given:
            _fail(EXIT_PARSE, f"missing option {opt.names[-1]!r}")
    return func, {opt.dest: given.get(opt.dest, opt.default) for opt in options}


def main(args=None, prog_name=None):
    """Exact tensor-cone classification and the degenerated Schubert product.

    Runs the command that ``args`` (``sys.argv[1:]`` by default) names and
    exits with its code; a library error becomes its exit code and one
    ``error:`` line on stderr.  ``prog_name`` names the program in
    ``--version`` and ``--help``.
    """
    argv = sys.argv[1:] if args is None else list(args)
    func, kwargs = _parse(argv, prog_name or _prog_name())
    try:
        func(**kwargs)
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[t] for t in type(exc).__mro__
                    if t in _EXIT_CODES)
        _fail(code, str(exc))
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
