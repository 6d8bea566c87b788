"""No module of froblocus imports another module's private names, none
rests an invariant on ``assert``, which ``python -O`` strips, and no public
function or method exists only for the tests.

The three imports listed here predate the rule; the benchmark traces
``criterion._colon_ideal_raw`` and ``locus._criterion`` by those bindings.
The list may shrink, never grow.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "froblocus"

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


def _public_defs(tree):
    """(label, is_method) for each public top-level function and each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def _references(trees, names, attrs, strings):
    """Add the bare names and attribute names read in the trees; with
    ``strings``, also each part of a dotted string constant such as
    ``"Class.method"``."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
                    attrs.update(parts)


def test_no_public_api_only_tests_call():
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    bench = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    ]
    names, attrs = set(), set()
    # __init__.py re-exports every public name, so its imports call nothing
    _references(
        [t for name, t in modules.items() if name != "__init__.py"], names, attrs, False
    )
    _references(bench, names, attrs, True)
    unused = sorted(
        label
        for tree in modules.values()
        for label, is_method in _public_defs(tree)
        if label.rpartition(".")[2] not in attrs and (is_method or label not in names)
    )
    assert not unused, unused
