"""Golden bytes of the command line on every complex on at most 4 vertices.

``data/cli_digests.json`` maps each run, named by its input and arguments,
to the sha256 of its exit code and standard output.  Each complex is given
as ``facets:`` text and as ``ideal:`` text (the irrelevant complex has no
``facets:`` line) and run through ``locus --format json`` with each
``--method``, through ``locus``, ``nci`` and ``oracle`` in text and JSON,
and through ``check`` and ``link`` at the empty face and at vertex 1 in text
and JSON.  Vertex 1 is a face of some inputs and a non-face of others; the
full simplex, whose ideal is zero, is among the first.  A change that
declares new output regenerates the file with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from froblocus.cli import _RUNNERS, main
from helpers import exhaustive_complexes

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"

COMMANDS = tuple(
    ["locus", "--format", "json", "--method", method]
    for method in ("algebraic", "combinatorial", "both")
) + (
    ["locus"],
    ["nci"],
    ["nci", "--format", "json"],
    ["oracle"],
    ["oracle", "--format", "json"],
    ["link", "--face", ""],
    ["link", "--face", "", "--format", "json"],
    ["check", "--face", ""],
    ["check", "--face", "", "--format", "json"],
    ["check", "--face", "1"],
    ["check", "--face", "1", "--format", "json"],
    ["link", "--face", "1"],
    ["link", "--face", "1", "--format", "json"],
)


def _problem_texts():
    """(label, problem text) for each complex on 1-4 vertices and form."""
    for ctx, delta in exhaustive_complexes(4):
        head = "vars: " + ", ".join(ctx.names) + "\n"
        bodies = ["ideal: " + ", ".join(map(str, delta.to_ideal(ctx).generators))]
        if delta.facets != (frozenset(),):
            bodies.insert(0, "facets: " + "; ".join(
                " ".join(str(v + 1) for v in sorted(f)) for f in delta.facets
            ))
        for body in bodies:
            yield f"n={ctx.n} {body}", head + body + "\n"


def _run(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and standard output of one in-process run."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main([*argv, "-"])
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _digest(argv: list[str], text: str) -> str:
    code, out = _run(argv, text)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def cli_digests() -> dict[str, str]:
    return {
        f"{label} | {shlex.join(argv)}": _digest(argv, text)
        for label, text in _problem_texts()
        for argv in COMMANDS
    }


def test_cli_bytes_unchanged():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = cli_digests()
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, changed


def test_text_is_rendered_from_the_json_payload():
    # each command's text output is its renderer applied to the parsed JSON
    # output of the same run; a failing run prints neither
    commands = {tuple(a for a in argv if a not in ("--format", "json")) for argv in COMMANDS}
    for _, text in _problem_texts():
        for argv in sorted(commands):
            code, out = _run([*argv, "--format", "text"], text)
            json_code, json_out = _run([*argv, "--format", "json"], text)
            assert json_code == code, (argv, text)
            if code:
                assert out == json_out == "", (argv, text)
            else:
                render_text = _RUNNERS[argv[0]][1]
                assert out == render_text(json.loads(json_out)) + "\n", (argv, text)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(cli_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
