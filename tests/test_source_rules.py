"""Source-level guards for the exactness and independence rules of the
package.

Arithmetic is exact integer arithmetic throughout, so ``src/bkcalc`` holds
no float literal, no true division and no ``float`` or ``Fraction``; every
runtime invariant is a real check, so it holds no ``assert``, which
``python -O`` would strip.

Every fresh process imports the package, so no module of it imports
``dataclasses``, which loads ``inspect`` and generates code at import, or
``click``, which loads ``inspect`` as well: the CLI parses its command line
with the standard library.

The two oracles check the inversion-set product from outside, so neither
may read what it checks: the tensor oracle imports nothing of the package
but its errors and the root system, so it cannot consult a Weyl element or
a witness, and the cup oracle takes only ``CohomClass`` from the BK ring
and reads no inversion set.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bkcalc"
FORBIDDEN_NAMES = {"float", "Fraction"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.alias) and node.name in FORBIDDEN_NAMES:
            yield node.lineno, f"import of {node.name}"


def test_source_is_exact_and_assert_free():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in _violations(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_guard_catches_each_rule():
    planted = ("assert x\ny = 0.5\nz = a / b\nz /= 2\nfloat(1)\n"
               "from fractions import Fraction\nfractions.Fraction(1)\n")
    assert sorted(line for line, _ in _violations(ast.parse(planted))) == [
        1, 2, 3, 4, 5, 6, 7,
    ]


def _import_violations(tree, banned):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.partition(".")[0] in banned:
                yield node.lineno, f"import of {module}"


def _package_import_violations(banned):
    return [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _import_violations(ast.parse(path.read_text()),
                                             banned)
    ]


def test_no_module_imports_dataclasses():
    assert _package_import_violations({"dataclasses"}) == []


def test_import_guard_catches_dataclasses():
    planted = ("import dataclasses\nfrom dataclasses import dataclass\n"
               "import os, dataclasses as dc\nfrom . import dataclasses\n"
               "import functools\n\ndef f():\n    import dataclasses\n")
    assert [line for line, _ in _import_violations(ast.parse(planted),
                                                   {"dataclasses"})] == [
        1, 2, 3, 8,
    ]


def test_no_module_imports_click():
    assert _package_import_violations({"click"}) == []


def test_import_guard_catches_click():
    planted = ("import click\nfrom click.testing import CliRunner\n"
               "import clickhouse\nfrom . import click\n"
               "def main():\n    import os, click as c\n")
    assert [line for line, _ in _import_violations(ast.parse(planted),
                                                   {"click"})] == [1, 2, 6]


def _package_imports(tree):
    """(line, submodule, imported names) for each import from bkcalc."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level:
                if node.module is None:  # from . import x
                    for name in names:
                        yield node.lineno, name, []
                else:
                    yield node.lineno, node.module, names
            elif (node.module or "").startswith("bkcalc."):
                yield node.lineno, node.module[len("bkcalc."):], names
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("bkcalc."):
                    yield node.lineno, a.name[len("bkcalc."):], []


def _tensoracle_violations(tree):
    for line, module, _ in _package_imports(tree):
        if module not in ("errors", "rootsys"):
            yield line, f"import of bkcalc.{module}"


CUP_FORBIDDEN = {"inversions", "from_inversion_set"}


def _cupcalc_violations(tree):
    for line, module, names in _package_imports(tree):
        if module == "bkring" and names != ["CohomClass"]:
            yield line, f"import of {names} from bkcalc.bkring"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CUP_FORBIDDEN:
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.Name) and node.id in CUP_FORBIDDEN:
            yield node.lineno, f"name {node.id}"


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def test_oracles_read_nothing_they_check():
    assert list(_tensoracle_violations(_parse("tensoracle.py"))) == []
    assert list(_cupcalc_violations(_parse("cupcalc.py"))) == []


def test_independence_guards_catch_each_rule():
    planted = ("from .weyl import multiply\nfrom . import classify\n"
               "import bkcalc.bkring\nfrom bkcalc.cupcalc import x\n"
               "from .rootsys import Weight\nfrom .errors import E\n")
    assert [line for line, _ in _tensoracle_violations(ast.parse(planted))] == [
        1, 2, 3, 4,
    ]
    planted = ("from .bkring import CohomClass, bk_coefficient\n"
               "m = w.inversions\ng.from_inversion_set(m)\n"
               "from_inversion_set = 0\nfrom .bkring import CohomClass\n")
    assert sorted(line for line, _ in _cupcalc_violations(ast.parse(planted))) == [
        1, 2, 3, 4,
    ]
