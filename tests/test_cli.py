"""Input grammar, problem files and the command line surface."""

import json
import time
from pathlib import Path

import pytest

from froblocus import (
    ParseError,
    ProblemInput,
    RingContext,
    parse_face,
    parse_monomial,
    parse_problem,
)
from froblocus.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def ctx6():
    return RingContext(("x", "y", "z", "w", "a", "b"))


class TestMonomialGrammar:
    def test_star_separated_products(self, ctx6):
        assert parse_monomial("x*w", ctx6).exponents == (1, 0, 0, 1, 0, 0)
        assert parse_monomial(" y * a ", ctx6).exponents == (0, 1, 0, 0, 1, 0)

    def test_underscored_names(self):
        ctx = RingContext(("x_1", "x_2", "x_3", "x_4", "x_5"))
        assert parse_monomial("x_1*x_2*x_5", ctx).exponents == (1, 1, 0, 0, 1)

    def test_constant(self, ctx6):
        assert parse_monomial("1", ctx6) == ctx6.monomial((0,) * 6)

    def test_powers(self, ctx6):
        assert parse_monomial("x^2*z", ctx6).exponents == (2, 0, 1, 0, 0, 0)
        assert parse_monomial("x*x", ctx6).exponents == (2, 0, 0, 0, 0, 0)

    def test_errors(self, ctx6):
        for bad in ("q", "x**y", "x^", "x^-1", "", "x^99999999", "x^²"):
            with pytest.raises(ParseError):
                parse_monomial(bad, ctx6)

    def test_print_parse_fixed_point(self, ctx6):
        for text in ("x*w", "x^2*b", "1", "z*w*a"):
            m = parse_monomial(text, ctx6)
            assert parse_monomial(str(m), ctx6) == m


class TestFaceGrammar:
    def test_faces(self):
        assert parse_face("", 5) == frozenset()
        assert parse_face("1 3", 5) == {0, 2}
        assert parse_face("2, 4", 5) == {1, 3}
        with pytest.raises(ParseError):
            parse_face("0", 5)
        with pytest.raises(ParseError):
            parse_face("6", 5)
        with pytest.raises(ParseError):
            parse_face("x", 5)
        with pytest.raises(ParseError, match="bad vertex index"):
            parse_face("²", 3)


class TestProblemFiles:
    def test_ideal_form(self):
        problem = parse_problem(DATA.joinpath("ex1.txt").read_text())
        assert problem.context.names == ("x", "y", "z", "w", "a", "b")
        assert problem.ideal is not None and len(problem.ideal) == 7

    def test_facet_form(self):
        problem = parse_problem(DATA.joinpath("ex2.txt").read_text())
        assert problem.complex is not None
        assert len(problem.complex.facets) == 3

    # the first fault wins: a body line is checked for vars, then for an
    # earlier body, and only then is its value read
    ERRORS = [
        ("nonsense: 3\nvars: x, y", "line 1: unknown key 'nonsense'"),
        ("vars: x, y\nnonsense: 3", "line 2: unknown key 'nonsense'"),
        ("ideal: x*y", "line 1: vars must come before ideal"),
        ("facets: 1 2", "line 1: vars must come before facets"),
        ("ideal: q\nvars: x", "line 1: vars must come before ideal"),
        ("vars: x, y\nvars: x, y", "line 2: duplicate vars declaration"),
        ("vars: x, y\nideal: x\nvars: x", "line 3: duplicate vars declaration"),
        ("vars: x, y\nideal: x\nideal: y", "line 3: duplicate problem body"),
        ("vars: x, y\nideal: x\nfacets: 1", "line 3: duplicate problem body"),
        ("vars: x, y\nfacets: 1\nideal: x", "line 3: duplicate problem body"),
        ("vars: x, y\nideal: x\nideal: q", "line 3: duplicate problem body"),
        ("vars: x, y\nideal: x\nfacets: 5", "line 3: duplicate problem body"),
        ("# c\nvars: x\n\nfacets: 1\nIdeal: x", "line 5: duplicate problem body"),
        ("vars: x, y\nfacets: ;", "line 2: no facets given"),
        ("vars: x, y\nfacets: 1 3", "vertex 3 outside 1..2"),
        ("vars: x, y\nideal x*y", "line 2: expected 'key: value', got 'ideal x*y'"),
        ("", "missing vars declaration"),
        ("# only a comment\n", "missing vars declaration"),
        ("vars: x, y", "missing ideal or facets declaration"),
        ("vars: x, y\n  # only a comment", "missing ideal or facets declaration"),
    ]

    def test_errors(self):
        for text, message in self.ERRORS:
            with pytest.raises(ParseError) as info:
                parse_problem(text)
            assert str(info.value) == message, text

    def test_no_variable_names(self):
        with pytest.raises(ParseError, match="^no variable names given$"):
            parse_problem("vars: ,\nideal: x")

    def test_huge_exponent(self):
        # past 4,300 digits int() refuses the text; the digits are not shown
        with pytest.raises(ParseError, match="^exponent of 5000 digits exceeds limit 65536$"):
            parse_problem("vars: x\nideal: x^" + "9" * 5000)
        leading_zeros = parse_problem("vars: x, y\nideal: x^" + "0" * 5000 + "1*y")
        assert str(leading_zeros.ideal) == "(x*y)"


class TestCliGolden:
    def test_example_one_text(self, capsys):
        code = main(["locus", str(DATA / "ex1.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "J = (x, y, w, a, b)" in out
        assert "method: both" in out

    def test_default_subcommand(self, capsys):
        code = main([str(DATA / "ex3.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "J = (x_1, x_2, x_3)" in out

    def test_example_two_facets_json(self, capsys):
        code = main(["locus", str(DATA / "ex2.txt"), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [g["text"] for g in data["ideal"]] == [
            "x_2*x_3",
            "x_3*x_4",
            "x_4*x_5",
        ]
        assert [g["text"] for g in data["j_ideal"]] == ["x_2", "x_3", "x_4", "x_5"]
        assert data["empty_locus"] is False
        assert data["igl_maximal"] == [[1]]
        assert data["method"] == "both"
        assert set(data["igl"][0]) == {"face", "witness"}

    def test_example_four(self, capsys):
        code = main(["locus", str(DATA / "ex4.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "J = (x_1*x_2, x_3, x_4)" in out


class TestCliSubcommands:
    def test_check_empty_face(self, capsys):
        code = main(["check", str(DATA / "ex3.txt"), "--face", ""])
        out = capsys.readouterr().out
        assert code == 0
        assert "not finitely generated" in out

    def test_check_vertex(self, capsys):
        code = main(["check", str(DATA / "ex3.txt"), "--face", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: finitely generated" in out

    def test_check_rejects_non_face(self, capsys):
        code = main(["check", str(DATA / "ex3.txt"), "--face", "1 2"])
        assert code == 1
        assert "not a face" in capsys.readouterr().err

    def test_check_on_many_facets_builds_no_complex(self, capsys, tmp_path, derivations):
        # 12 disjoint edges: the complex has 2^12 facets, but a face is x_F
        # outside I, which the colon (I : x_F) already shows
        names = [f"x{i}" for i in range(1, 25)]
        edges = [f"{a}*{b}" for a, b in zip(names[::2], names[1::2])]
        problem = tmp_path / "edges.txt"
        problem.write_text(f"vars: {', '.join(names)}\nideal: {', '.join(edges)}\n")
        start = time.perf_counter()
        code = main(["check", str(problem), "--face", "1"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out == (
            f"vars: {', '.join(names)}\nface: {{1}}\n"
            f"colon ideal: ({', '.join(['x2'] + edges[1:])})\n"
            "result: finitely generated\n"
        )
        assert elapsed < 0.1
        assert main(["check", str(problem), "--face", "1 2"]) == 1
        assert capsys.readouterr() == ("", "error: {1,2} is not a face\n")
        assert derivations["from_ideal"] == 0

    def test_link(self, capsys):
        code = main(["link", str(DATA / "ex1.txt"), "--face", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "link facets: {1,2}, {4,5}" in out

    def test_oracle_on_complete_intersection(self, capsys, tmp_path):
        problem = tmp_path / "ci.txt"
        problem.write_text("vars: x, y, z, w\nideal: x*y, z*w\n")
        code = main(["oracle", str(problem), "--char", "2", "--emax", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degree 2: no new generators: yes" in out
        assert "degree 3: no new generators: yes" in out

    def test_oracle_json(self, capsys):
        code = main(["oracle", str(DATA / "ex3.txt"), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["table"] == [
            {"e": 2, "vanishes": False},
            {"e": 3, "vanishes": False},
        ]
        assert data["generated_up_to"] is False

    def test_oracle_on_full_simplex(self, capsys, tmp_path):
        # the full simplex has the zero ideal, which the oracle's input rule rejects
        problem = tmp_path / "simplex.txt"
        problem.write_text("vars: x, y\nfacets: 1 2\n")
        assert main(["oracle", str(problem)]) == 1
        assert capsys.readouterr() == ("", "error: oracle ideals must be nonzero\n")

    def test_oracle_degree_four_on_complete_graph(self, tmp_path):
        import subprocess
        import sys

        # the ten edges on five vertices: a product per composition of each
        # degree takes over a minute here, the two-part sum under a second
        edges = ", ".join(f"x{i}*x{j}" for i in range(1, 6) for j in range(i + 1, 6))
        problem = tmp_path / "k5.txt"
        problem.write_text(f"vars: x1, x2, x3, x4, x5\nideal: {edges}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "froblocus.cli", "oracle", "--emax", "4", str(problem)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "vars: x1, x2, x3, x4, x5\n"
            f"I = ({edges})\n"
            "char: 2\n"
            "degree 2: no new generators: yes\n"
            "degree 3: no new generators: yes\n"
            "degree 4: no new generators: yes\n"
            "generated up to degree 1: yes\n"
        )

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ("locus", ["--method", "both", "--format", "text"]),
            ("oracle", ["--char", "2", "--emax", "3"]),
            ("check", ["--face", ""]),
            ("link", ["--face", ""]),
        ],
    )
    def test_defaults_spelled_out(self, capsys, command, defaults):
        path = str(DATA / "ex1.txt")
        bare = main([command, path]), capsys.readouterr().out
        spelled = main([command, path, *defaults]), capsys.readouterr().out
        assert bare[0] == 0
        assert spelled == bare

    def test_nci(self, capsys):
        code = main(["nci", str(DATA / "ex3.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "nearly complete intersection: yes" in out
        assert "J = (x_1, x_2, x_3)" in out

    def test_single_method_runs(self, capsys):
        for method in ("algebraic", "combinatorial"):
            assert main(["locus", str(DATA / "ex3.txt"), "--method", method]) == 0
            out = capsys.readouterr().out
            assert f"method: {method}" in out
            assert "J = (x_1, x_2, x_3)" in out

    def test_locus_lists_only_maximal_faces(self, capsys, tmp_path):
        # facets 1..20 and 5..24 on 24 vertices: the locus is closed under
        # subfaces, so its 2^16 faces are given by their maximal one
        problem = tmp_path / "overlap.txt"
        names = ", ".join(f"x{i}" for i in range(1, 25))
        facets = " ".join(map(str, range(1, 21))) + "; " + " ".join(map(str, range(5, 25)))
        problem.write_text(f"vars: {names}\nfacets: {facets}\n")
        start = time.perf_counter()
        code = main(["locus", "--format", "json", str(problem)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.encode()) < 16_000
        assert elapsed < 1.0
        data = json.loads(out)
        assert data["igl_maximal"] == [list(range(5, 21))]
        assert [e["face"] for e in data["igl"]] == data["igl_maximal"]

    def test_empty_locus_output(self, capsys, tmp_path):
        problem = tmp_path / "ci.txt"
        problem.write_text("vars: x, y, z, w\nideal: x*y, z*w\n")
        assert main(["locus", str(problem)]) == 0
        out = capsys.readouterr().out
        assert "locus: empty" in out
        assert "J = (1)" in out


class TestCliDerivations:
    """Each subcommand converts between ideal and complex only as needed."""

    def test_ideal_only_commands_build_no_complex(self, capsys, derivations):
        for command in ("nci", "oracle"):
            assert main([command, str(DATA / "ex1.txt")]) == 0
        assert derivations["from_ideal"] == 0

    def test_facets_locus_derives_the_ideal_once(self, capsys, derivations):
        assert main(["locus", str(DATA / "ex2.txt")]) == 0
        assert derivations["from_ideal"] == 0
        assert derivations["to_ideal"] == 1


class TestCliErrors:
    def test_missing_file(self, capsys):
        assert main(["locus", "/nonexistent/file.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("vars: x, y\nideal: q*w\n")
        assert main(["locus", str(bad)]) == 1

    def test_non_squarefree_input(self, capsys, tmp_path):
        bad = tmp_path / "sq.txt"
        bad.write_text("vars: x, y\nideal: x^2\n")
        assert main(["locus", str(bad)]) == 1

    def test_unit_ideal_input(self, capsys, tmp_path):
        bad = tmp_path / "unit.txt"
        bad.write_text("vars: x, y\nideal: 1\n")
        assert main(["locus", str(bad)]) == 1

    @pytest.mark.parametrize(
        "text, face, message",
        [
            ("vars: x, y\nideal: x^²*y\n", None, "error: bad exponent in 'x^²'"),
            ("vars: x, y, z\nfacets: 1 ²\n", None, "error: bad vertex index '²'"),
            ("vars: x, y, z\nfacets: 1 2\n", "¹", "error: bad vertex index '¹'"),
        ],
        ids=["ideal-exponent", "facet-vertex", "check-face"],
    )
    def test_non_ascii_digits(self, capsys, tmp_path, text, face, message):
        bad = tmp_path / "digits.txt"
        bad.write_text(text, encoding="utf-8")
        args = ["locus", str(bad)] if face is None else ["check", str(bad), "--face", face]
        assert main(args) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_huge_exponent(self, capsys, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("vars: x\nideal: x^" + "9" * 5000 + "\n")
        assert main(["locus", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exponent of 5000 digits exceeds limit 65536\n"

    def test_bad_flag(self, capsys):
        assert main(["locus", "--method", "psychic"]) == 1
        capsys.readouterr()
        # the oracle tests every degree from 2 and has no threshold to set
        assert main(["oracle", str(DATA / "ex1.txt"), "--k", "5"]) == 1
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --k 5\n")

    def test_parser_reused_after_usage_error(self, capsys):
        args = ["locus", "--method", "combinatorial", str(DATA / "ex1.txt")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(["locus", "--method", "psychic"]) == 1
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("vars: x, y, z\nideal: x*y, y*z\n"))
        assert main(["locus"]) == 0
        assert "J = (x, y, z)" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "froblocus.cli", "locus", str(DATA / "ex2.txt")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "J = (x_2, x_3, x_4, x_5)" in proc.stdout

    def test_optimized_interpreter(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-O", "-m", "froblocus.cli", "locus", str(DATA / "ex1.txt")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "J = (x, y, w, a, b)" in proc.stdout

    def test_closed_output_pipe(self, tmp_path):
        import subprocess
        import sys

        # the edge ideal of K_26: about 115 KB of JSON, more than a pipe
        # buffer holds; the combinatorial route answers it at once
        problem = tmp_path / "big.txt"
        names = [f"x{i}" for i in range(1, 27)]
        edges = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i + 1:]]
        problem.write_text(f"vars: {', '.join(names)}\nideal: {', '.join(edges)}\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "froblocus.cli", "locus", "--format", "json",
             "--method", "combinatorial", str(problem)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err

    def test_problem_without_ideal_or_facets(self, ctx6):
        with pytest.raises(ParseError):
            ProblemInput(ctx6)

    def test_disagreement_exit_code(self, capsys, monkeypatch, tmp_path):
        from froblocus import LocusResult
        from froblocus import locus as locus_module

        real = locus_module.locus_combinatorial

        def broken(source):
            result = real(source)
            kept = dict(list(result.maximal.items())[1:])
            return LocusResult(result.context, kept, result.method)

        monkeypatch.setattr(locus_module, "locus_combinatorial", broken)
        assert main(["locus", str(DATA / "ex3.txt")]) == 2
        assert "differ" in capsys.readouterr().err
