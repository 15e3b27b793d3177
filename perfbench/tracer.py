"""Per-layer tracing of bkcalc from outside the program.

``install()`` replaces public functions and methods of the bkcalc modules
with wrappers.  A function imported with ``from ... import`` is bound under
its own name in every importing module, so each binding of the original
object is replaced.  The classify module is reached through
``sys.modules["bkcalc.classify"]`` because ``bkcalc.classify`` is the
function of that name.

Wrappers come in three kinds:

* ``span``: timed, and each call kept as a span record
  ``(id, name, start_ns, end_ns, parent_id, op)``;
* ``frame``: timed, but only aggregated, for functions called in hot loops;
* ``count``: calls counted, not timed.

Self time is a call's duration minus the durations of the timed calls made
directly inside it.  Counts taken from arguments and results are attached
through hooks.  Everything stays in memory until ``snapshot()``.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns


class _Frame:
    __slots__ = ("name", "span_id", "child_ns", "lookups")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_ns = 0
        self.lookups = 0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self.op = "setup"
        self._next_id = 0

    # -- bookkeeping ------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def first_time(self, name: str, key) -> bool:
        seen = self.seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def parent_name(self) -> str | None:
        """Inside a hook: the name of the timed call enclosing this one."""
        return self.stack[-2].name if len(self.stack) >= 2 else None

    def snapshot(self) -> dict:
        return {
            "agg": self.agg,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.seen.items()},
            "spans": self.spans,
        }

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, record, on_result=None, on_error=None):
        stack = self.stack
        agg = self.agg.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            else:
                if on_result is not None:
                    on_result(self, frame, args, kwargs, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame.child_ns
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_ns += dur
                if record:
                    self.spans.append((
                        span_id, name, start, end,
                        parent.span_id if parent is not None else None, self.op,
                    ))

        return wrapper

    def counted(self, name, fn, on_result=None):
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack = self.stack
        mark = name == "bkring.from_inversion_set"

        def wrapper(*args, **kwargs):
            agg[0] += 1
            if mark and stack:
                stack[-1].lookups += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, None, args, kwargs, result)
            return result

        return wrapper


# -- hooks: counts taken from arguments and results --------------------------


def _partitions(t, frame, args, kwargs, result):
    # a call that looked up inversion sets enumerated; others hit the cache
    if frame.lookups:
        t.add("bkring.partition_tuples", len(result))
    if t.parent_name() == "classify.cohomological_witnesses":
        t.add("classify.coh.candidates", len(result))


def _prv(t, frame, args, kwargs, result):
    group, weights = args[0], args[1]
    t.add("classify.prv.tuples_scanned", len(group.elements) ** (len(weights) - 1))
    t.add("classify.prv.witnesses", len(result))


def _coh(t, frame, args, kwargs, result):
    t.add("classify.coh.witnesses", len(result))


def _oracle_error(t, exc):
    # count an overflow once, where it leaves the oracle
    if type(exc).__name__ == "OracleOverflow":
        outer = t.parent_name()
        if outer is None or not outer.startswith("tensoracle."):
            t.add("tensoracle.overflows")


def _decompose(t, frame, args, kwargs, result):
    rs, lam, mu = args[0], args[1], args[2]
    t.first_time("tensoracle.decompose", (str(rs.group_type), tuple(lam), tuple(mu)))


def _freudenthal(t, frame, args, kwargs, result):
    rs, lam = args[0], args[1]
    if t.first_time("tensoracle.weight_multiplicities", (str(rs.group_type), tuple(lam))):
        t.add("tensoracle.weight_multiplicities.weights", len(result))
    if t.parent_name() == "tensoracle.decompose":
        # the weights of the smaller factor are the Klimyk terms
        t.add("tensoracle.klimyk_terms", len(result))


def _poly_mul(t, frame, args, kwargs, result):
    t.add("cupcalc.poly_mul.term_pairs", len(args[0]) * len(args[1]))


def _representative(t, frame, args, kwargs, result):
    calc, w = args[0], args[1]
    if t.first_time("cupcalc.representative", (id(calc), w.word)):
        t.add("cupcalc.representative_terms", len(result))


# (name, module, attribute or Class.method, kind, on_result, on_error)
TARGETS = [
    ("rootsys.build_root_system", "bkcalc.rootsys", "build_root_system", "span", None, None),
    ("weyl.enumerate_weyl", "bkcalc.weyl", "enumerate_weyl", "span", None, None),
    ("weyl.multiply", "bkcalc.weyl", "multiply", "count", None, None),
    ("weyl.inverse", "bkcalc.weyl", "WeylGroup.inverse", "count", None, None),
    ("bkring.from_inversion_set", "bkcalc.weyl", "WeylGroup.from_inversion_set", "count", None, None),
    ("bkring.enumerate_partition_tuples", "bkcalc.bkring", "enumerate_partition_tuples", "span", _partitions, None),
    ("classify.classify", "bkcalc.classify", "classify", "span", None, None),
    ("classify.prv_witnesses", "bkcalc.classify", "prv_witnesses", "span", _prv, None),
    ("classify.cohomological_witnesses", "bkcalc.classify", "cohomological_witnesses", "span", _coh, None),
    ("classify.regularly_extremal_witnesses", "bkcalc.classify", "regularly_extremal_witnesses", "span", None, None),
    ("tensoracle.stable_mult_probe", "bkcalc.tensoracle", "stable_mult_probe", "span", None, _oracle_error),
    ("tensoracle.invariant_dim", "bkcalc.tensoracle", "invariant_dim", "span", None, _oracle_error),
    ("tensoracle.decompose", "bkcalc.tensoracle", "decompose", "span", _decompose, _oracle_error),
    ("tensoracle.weight_multiplicities", "bkcalc.tensoracle", "weight_multiplicities", "span", _freudenthal, _oracle_error),
    ("cupcalc.cup_product", "bkcalc.cupcalc", "SchubertCalculus.cup_product", "span", None, None),
    ("cupcalc.cup_coefficient", "bkcalc.cupcalc", "SchubertCalculus.cup_coefficient", "span", None, None),
    ("cupcalc.eval_against_point", "bkcalc.cupcalc", "SchubertCalculus.eval_against_point", "span", None, None),
    ("cupcalc.divided_difference", "bkcalc.cupcalc", "SchubertCalculus.divided_difference", "frame", None, None),
    ("cupcalc.poly_mul", "bkcalc.cupcalc", "poly_mul", "frame", _poly_mul, None),
    ("cupcalc.representative", "bkcalc.cupcalc", "SchubertCalculus.representative", "count", _representative, None),
    ("verify.run_suites", "bkcalc.verify", "run_suites", "span", None, None),
]


def install() -> Tracer:
    """Wrap every target whose module is imported; return the tracer."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "bkcalc" or n.startswith("bkcalc.")]
    for name, modname, attr, kind, on_result, on_error in TARGETS:
        module = sys.modules.get(modname)
        if module is None:
            continue
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fname)
        if kind == "count":
            wrapper = tracer.counted(name, original, on_result)
        else:
            wrapper = tracer.timed(name, original, kind == "span", on_result, on_error)
        if owner_name:
            setattr(owner, fname, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return tracer
