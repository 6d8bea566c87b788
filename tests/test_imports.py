"""No module of froblocus imports another module's private names, and none
rests an invariant on ``assert``, which ``python -O`` strips.

The three imports listed here predate the rule; the benchmark traces
``criterion._colon_ideal_raw`` and ``locus._criterion`` by those bindings.
The list may shrink, never grow.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "froblocus"

ALLOWED = {
    ("criterion", "_colon_ideal_raw"),
    ("criterion", "_minimalize"),
    ("locus", "_criterion"),
}


def test_no_new_private_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    (path.stem, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
