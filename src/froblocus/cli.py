"""Command line front end.

Subcommands: ``locus`` (default), ``check``, ``link``, ``oracle``, ``nci``.
Input comes from a file argument or stdin.  Exit codes: 0 success, 1 input
error or closed output pipe, 2 method disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from .criterion import OracleParams, criterion_witness, degreewise_report
from .locus import (
    METHODS,
    LocusResult,
    MethodDisagreementError,
    is_nci,
    nci_locus,
    non_fg_locus,
)
from .monomials import Monomial, MonomialIdeal
from .parsing import ParseError, ProblemInput, parse_face, parse_problem
from .simplicial import format_face


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit code 2 reserved for disagreement
        raise UsageError(message)


def _mono_json(m: Monomial) -> dict[str, Any]:
    return {"text": str(m), "exponents": list(m.exponents)}


def _ideal_json(ideal: MonomialIdeal) -> list[dict[str, Any]]:
    return [_mono_json(g) for g in ideal.generators]


def _face_json(face: frozenset[int]) -> list[int]:
    return [v + 1 for v in sorted(face)]


def _witness_json(w: Monomial | frozenset[int]) -> dict[str, Any]:
    if isinstance(w, Monomial):
        return {"kind": "colon_generator", "monomial": _mono_json(w)}
    return {"kind": "free_face", "face": _face_json(w)}


def _locus_payload(result: LocusResult) -> dict:
    return {
        "igl": [
            {"face": _face_json(f), "witness": [_witness_json(w) for w in result.maximal[f]]}
            for f in result.maximal_faces
        ],
        "igl_maximal": [_face_json(f) for f in result.maximal_faces],
        "j_ideal": _ideal_json(result.defining_ideal),
        "empty_locus": result.empty,
        "method": result.method,
    }


def _render_locus_text(data: dict[str, Any]) -> str:
    lines = [
        "vars: " + ", ".join(data["vars"]),
        "I = " + _gen_list_text(data["ideal"]),
        "method: " + data["method"],
    ]
    if data["empty_locus"]:
        lines.append("locus: empty")
    else:
        maximal = ", ".join(_face_text(f) for f in data["igl_maximal"])
        lines.append(f"IGL maximal faces: {maximal}")
        for entry in data["igl"]:
            for w in entry["witness"]:
                lines.append(
                    f"  {_face_text(entry['face'])}: {_witness_text(w)}"
                )
    lines.append("J = " + _gen_list_text(data["j_ideal"]))
    return "\n".join(lines)


def _gen_list_text(gens: list[dict[str, Any]]) -> str:
    if not gens:
        return "(0)"
    return "(" + ", ".join(g["text"] for g in gens) + ")"


def _face_text(face: list[int]) -> str:
    return "{" + ",".join(str(v) for v in face) + "}"


def _witness_text(w: dict[str, Any]) -> str:
    if w["kind"] == "colon_generator":
        return f"colon generator {w['monomial']['text']}"
    return f"free face {_face_text(w['face'])}"


def _run_locus(problem: ProblemInput, ns: argparse.Namespace) -> dict[str, Any]:
    return {
        "vars": list(problem.context.names),
        "ideal": _ideal_json(problem.ideal),
        **_locus_payload(non_fg_locus(problem, method=ns.method)),
    }


def _run_check(problem: ProblemInput, ns: argparse.Namespace) -> dict[str, Any]:
    context = problem.context
    face = parse_face(ns.face, context.n)
    ideal = problem.ideal
    colon = ideal.colon(context.squarefree(face))
    if colon.is_unit:
        raise ParseError(f"{format_face(face)} is not a face")
    offender = criterion_witness(colon)
    return {
        "vars": list(context.names),
        "ideal": _ideal_json(ideal),
        "face": _face_json(face),
        "colon_ideal": _ideal_json(colon),
        "finitely_generated": offender is None,
        "witness": None if offender is None else _mono_json(offender),
    }


def _render_check_text(data: dict[str, Any]) -> str:
    verdict = "finitely generated" if data["finitely_generated"] else "not finitely generated"
    lines = [
        "vars: " + ", ".join(data["vars"]),
        "face: " + _face_text(data["face"]),
        "colon ideal: " + _gen_list_text(data["colon_ideal"]),
        "result: " + verdict,
    ]
    if data["witness"] is not None:
        lines.append("witness: " + data["witness"]["text"])
    return "\n".join(lines)


def _run_link(problem: ProblemInput, ns: argparse.Namespace) -> dict[str, Any]:
    context = problem.context
    face = parse_face(ns.face, context.n)
    link = problem.complex.link(face)
    return {
        "vars": list(context.names),
        "face": _face_json(face),
        "facets": [_face_json(f) for f in link.facets],
    }


def _render_link_text(data: dict[str, Any]) -> str:
    facets = ", ".join(_face_text(f) for f in data["facets"]) or "(void)"
    lines = [
        "vars: " + ", ".join(data["vars"]),
        "face: " + _face_text(data["face"]),
        "link facets: " + facets,
    ]
    return "\n".join(lines)


def _run_oracle(problem: ProblemInput, ns: argparse.Namespace) -> dict[str, Any]:
    ideal = problem.ideal
    params = OracleParams(p=ns.char, e_max=ns.emax)
    table = degreewise_report(ideal, params)
    return {
        "vars": list(problem.context.names),
        "ideal": _ideal_json(ideal),
        "char": params.p,
        "table": [{"e": e, "vanishes": ok} for e, ok in table],
        "generated_up_to": all(ok for _, ok in table),
    }


def _render_oracle_text(data: dict[str, Any]) -> str:
    lines = [
        "vars: " + ", ".join(data["vars"]),
        "I = " + _gen_list_text(data["ideal"]),
        f"char: {data['char']}",
    ]
    for row in data["table"]:
        verdict = "yes" if row["vanishes"] else "no"
        lines.append(f"degree {row['e']}: no new generators: {verdict}")
    lines.append(f"generated up to degree 1: {'yes' if data['generated_up_to'] else 'no'}")
    return "\n".join(lines)


def _run_nci(problem: ProblemInput, ns: argparse.Namespace) -> dict[str, Any]:
    ideal = problem.ideal
    nci = is_nci(ideal)
    return {
        "vars": list(problem.context.names),
        "ideal": _ideal_json(ideal),
        "is_nci": nci,
        "locus": _locus_payload(nci_locus(ideal)) if nci else None,
    }


def _render_nci_text(data: dict[str, Any]) -> str:
    lines = [
        "vars: " + ", ".join(data["vars"]),
        "I = " + _gen_list_text(data["ideal"]),
        "nearly complete intersection: " + ("yes" if data["is_nci"] else "no"),
    ]
    locus = data["locus"]
    if locus is not None:
        lines.append("J = " + _gen_list_text(locus["j_ideal"]))
        if locus["empty_locus"]:
            lines.append("locus: empty")
    return "\n".join(lines)


_RUNNERS = {
    "locus": (_run_locus, _render_locus_text),
    "check": (_run_check, _render_check_text),
    "link": (_run_link, _render_link_text),
    "oracle": (_run_oracle, _render_oracle_text),
    "nci": (_run_nci, _render_nci_text),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = _Parser(prog="froblocus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="problem file or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_locus = sub.add_parser("locus", help="compute the non-finitely-generated locus")
    common(p_locus)
    p_locus.add_argument("--method", choices=METHODS, default="both")

    p_check = sub.add_parser("check", help="finite-generation test at one face")
    common(p_check)
    p_check.add_argument("--face", default="", help="1-based vertex list, e.g. '1 3'")

    p_link = sub.add_parser("link", help="facets of the link of a face")
    common(p_link)
    p_link.add_argument("--face", default="", help="1-based vertex list, e.g. '1 3'")

    p_oracle = sub.add_parser("oracle", help="degree-wise generation table")
    common(p_oracle)
    p_oracle.add_argument("--char", type=int, default=2)
    p_oracle.add_argument("--emax", type=int, default=3)

    p_nci = sub.add_parser("nci", help="nearly-complete-intersection shortcut")
    common(p_nci)

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or (args[0] not in _RUNNERS and args[0] not in ("-h", "--help")):
        args.insert(0, "locus")
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload, render_text = _RUNNERS[ns.command]
    try:
        data = payload(parse_problem(_read_input(ns.input)), ns)
    except MethodDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if ns.format == "json":
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(render_text(data))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; keep the interpreter's exit flush quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
