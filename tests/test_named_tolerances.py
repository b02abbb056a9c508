"""Every small tolerance in ``src/`` has a name.

A float literal below 1e-5 is a threshold or a guard, so it is written once,
as the whole right side of a module-level ``NAME = value`` line with a
comment that says why, and code uses the name.
"""

import ast
from pathlib import Path

import phasepulse

SRC = Path(phasepulse.__file__).resolve().parent


def _bare_small_floats(tree: ast.Module) -> list[tuple[int, float]]:
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < node.value < 1e-5 and id(node) not in named
    )


def test_small_float_literals_are_named():
    bare = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _bare_small_floats(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert bare == {}


def test_the_check_finds_a_bare_tolerance():
    # a tuple, a default, a local name and an expression are all bare
    tree = ast.parse(
        "TOL = 1e-9\nX = (1e-9,)\n\ndef f(x, tol=1e-8):\n    LOCAL = 1e-12\n    return x < 2e-6\n"
    )
    assert _bare_small_floats(tree) == [(2, 1e-9), (4, 1e-8), (5, 1e-12), (6, 2e-6)]
