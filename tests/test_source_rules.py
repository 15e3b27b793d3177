"""Source-level guards for the exactness rules of the package.

Arithmetic is exact integer arithmetic throughout, so ``src/bkcalc`` holds
no float literal, no true division and no ``float`` or ``Fraction``; every
runtime invariant is a real check, so it holds no ``assert``, which
``python -O`` would strip.
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
