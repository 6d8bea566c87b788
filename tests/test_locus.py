"""Locus computation: golden examples, invariants, the shortcut for
nearly complete intersections, and the two-route cross-check."""

import random
import re
import time
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from froblocus import (
    LocusResult,
    MethodDisagreementError,
    Monomial,
    ParseError,
    ProblemInput,
    RingContext,
    SimplicialComplex,
    face_key,
    is_nci,
    locus_algebraic,
    locus_combinatorial,
    nci_locus,
    non_fg_locus,
)
from froblocus import locus as locus_module
from froblocus.locus import METHODS
from helpers import (
    all_antichains,
    brute_force_locus,
    context,
    exhaustive_complexes,
    face,
    ideal_of,
    random_complex,
    reference_criterion,
    reference_is_nci,
)

README = Path(__file__).parent.parent / "README.md"


@pytest.fixture
def example_one():
    ctx = RingContext(("x", "y", "z", "w", "a", "b"))
    delta = SimplicialComplex(6, [face(1, 2, 3), face(1, 2, 6), face(3, 4, 5)])
    return ctx, delta, delta.to_ideal(ctx)


class TestGoldenExamples:
    def test_example_one(self, example_one):
        ctx, delta, ideal = example_one
        result = non_fg_locus(ideal, method="both")
        assert result.defining_ideal == ctx.ideal(
            [ctx.squarefree([i]) for i in (0, 1, 3, 4, 5)]
        )
        assert result.faces == (frozenset(), face(3))
        assert result.maximal_faces == (face(3),)
        assert str(result.defining_ideal) == "(x, y, w, a, b)"

    def test_example_two(self):
        ctx = context(5)
        delta = SimplicialComplex(5, [face(1, 2, 5), face(1, 3, 5), face(1, 2, 4)])
        ideal = delta.to_ideal(ctx)
        assert ideal == ideal_of(ctx, (2, 3), (3, 4), (4, 5))
        result = non_fg_locus(ideal, method="both")
        assert result.defining_ideal == ideal_of(ctx, (2,), (3,), (4,), (5,))
        assert result.faces == (frozenset(), face(1))

    def test_example_three(self):
        ctx = context(3)
        ideal = ideal_of(ctx, (1, 2), (2, 3))
        result = non_fg_locus(ideal, method="both")
        assert result.defining_ideal == ideal_of(ctx, (1,), (2,), (3,))
        assert result.faces == (frozenset(),)

    def test_example_four(self):
        ctx = context(4)
        ideal = ideal_of(ctx, (1, 2, 3), (3, 4))
        result = non_fg_locus(ideal, method="both")
        assert result.defining_ideal == ideal_of(ctx, (1, 2), (3,), (4,))
        assert result.faces == (frozenset(), face(1), face(2))
        assert result.maximal_faces == (face(1), face(2))

    def test_readme_library_example(self, capsys):
        # example one in its own variables, as the README's Library section runs it
        library = README.read_text().split("## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("```", 1)[0]
        exec(code, {})
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["(x, y, w, a, b)", "(frozenset({2}),)"]
        assert printed == re.findall(r"# (.*)", code)


class TestEdgeCases:
    def test_zero_ideal(self):
        ctx = context(3)
        result = non_fg_locus(ctx.zero_ideal())
        assert result.empty
        assert result.defining_ideal.is_unit

    def test_unit_rejected(self):
        ctx = context(3)
        with pytest.raises(ValueError):
            non_fg_locus(ctx.unit_ideal())
        with pytest.raises(ValueError):
            locus_algebraic(ctx.ideal([ctx.monomial((2, 0, 0))]))

    def test_triangle_boundary_empty(self):
        delta = SimplicialComplex(3, [face(1, 2), face(2, 3), face(1, 3)])
        result = non_fg_locus(delta)
        assert result.empty
        assert result.defining_ideal.is_unit

    def test_full_simplex_on_two_vertices(self):
        # ideal is zero, so the locus is empty; both routes agree
        delta = SimplicialComplex(2, [face(1, 2)])
        result = non_fg_locus(delta)
        assert result.empty
        comb = locus_combinatorial(delta)
        assert comb.empty

    def test_maximal_ideal_is_fine(self):
        ctx = context(3)
        result = non_fg_locus(ideal_of(ctx, (1,), (2,), (3,)))
        assert result.empty

    def test_complex_dispatch_with_default_context(self):
        delta = SimplicialComplex(3, [face(2), face(1, 3)])
        result = non_fg_locus(delta)
        assert result.defining_ideal.context.names == ("x1", "x2", "x3")
        assert [str(g) for g in result.defining_ideal.generators] == [
            "x1",
            "x2",
            "x3",
        ]


class TestProblemNormalForm:
    """Every entry point validates and converts its input the same way."""

    ENTRY_POINTS = [
        locus_algebraic,
        locus_combinatorial,
        *(partial(non_fg_locus, method=method) for method in METHODS),
    ]

    @pytest.mark.parametrize(
        "source, message",
        [
            (SimplicialComplex(3, []), "the void complex is not a valid input"),
            (context(3).unit_ideal(), "the unit ideal is not a valid input"),
            (
                context(3).ideal([context(3).monomial((2, 0, 0))]),
                "generators must be squarefree",
            ),
        ],
    )
    def test_invalid_input_rejected_alike(self, source, message):
        for entry in self.ENTRY_POINTS:
            with pytest.raises(ValueError) as caught:
                entry(source)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "ctx, source, message",
        [
            (
                RingContext(("a", "b", "c")),
                {"ideal": ideal_of(context(3), (1, 2))},
                "explicit context conflicts with the ideal's",
            ),
            (
                context(4),
                {"complex": SimplicialComplex(3, [face(1, 2)])},
                "context size does not match the complex",
            ),
        ],
    )
    def test_ring_that_does_not_fit_rejected(self, ctx, source, message):
        with pytest.raises(ParseError) as caught:
            ProblemInput(ctx, **source)
        assert str(caught.value) == message

    def test_ideal_and_complex_rejected(self):
        ideal = ideal_of(context(3), (1, 2))
        with pytest.raises(ParseError, match="^the problem gives both an ideal and facets$"):
            ProblemInput(ideal=ideal, complex=SimplicialComplex.from_ideal(ideal))

    def test_source_type_checked(self):
        with pytest.raises(
            TypeError,
            match="^source must be a MonomialIdeal, SimplicialComplex or ProblemInput$",
        ):
            ProblemInput.of(42)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^method must be one of"):
            non_fg_locus(ideal_of(context(3), (1, 2)), method="fast")

    def test_combinatorial_route_needs_no_ideal(self, derivations):
        delta = SimplicialComplex(4, [face(1, 2, 3), face(3, 4)])
        assert not non_fg_locus(delta, method="combinatorial").empty
        assert derivations["to_ideal"] == 0
        simplex = SimplicialComplex(2, [face(1, 2)])
        assert non_fg_locus(simplex, method="combinatorial").empty
        assert derivations["to_ideal"] == 0

    def test_ideal_converted_once(self, derivations):
        ctx = context(4)
        non_fg_locus(ideal_of(ctx, (1, 2, 3), (3, 4)))
        assert derivations["from_ideal"] == 1


class TestLinks:
    """A link is an ordinary problem: its locus is the locus of its ideal on
    all n variables, and its problem complex is coned over the linked face."""

    @staticmethod
    def _check(ctx, link, methods):
        ideal = link.to_ideal(ctx)
        assert ProblemInput(ctx, complex=link).complex == SimplicialComplex.from_ideal(ideal)
        for method in methods:
            got = non_fg_locus(link, method=method)
            expected = non_fg_locus(ideal, method=method)
            assert got.maximal == expected.maximal, (link, method)
            assert got.defining_ideal == expected.defining_ideal, (link, method)

    def test_link_of_a_vertex(self):
        ctx = context(5)
        delta = SimplicialComplex(5, [face(1, 2, 3), face(1, 3, 4), face(1, 4, 5)])
        link = delta.link(face(1))
        assert link.to_ideal(ctx) == ideal_of(ctx, (2, 4), (2, 5), (3, 5))
        result = non_fg_locus(link)
        assert result.maximal_faces == (face(1),)
        assert result.defining_ideal == ideal_of(ctx, (2,), (3,), (4,), (5,))

    def test_every_link_on_four_vertices(self):
        for ctx, delta in exhaustive_complexes(4):
            for f in delta.faces():
                self._check(ctx, delta.link(f), METHODS)

    def test_random_links_on_twenty_to_twenty_nine_vertices(self):
        rng = random.Random(2020)
        for _ in range(200):
            n = rng.randint(20, 29)
            delta = random_complex(rng, n)
            h = rng.choice(delta.facets)
            f = frozenset(rng.sample(sorted(h), rng.randint(0, len(h))))
            self._check(context(n), delta.link(f), ["combinatorial"])


class TestResultInvariants:
    def test_downward_closure_and_squarefree(self, example_one):
        _, _, ideal = example_one
        result = non_fg_locus(ideal)
        members = set(result.faces)
        for f in members:
            for v in f:
                assert f - {v} in members
        assert result.defining_ideal.is_squarefree

    def test_defining_ideal_over_all_faces(self, example_one):
        ctx, _, ideal = example_one
        from froblocus import face_prime

        result = non_fg_locus(ideal)
        full = ctx.unit_ideal()
        for f in result.faces:
            full = full.intersection(face_prime(f, ctx))
        assert full == result.defining_ideal

    def test_determinism(self, example_one):
        _, _, ideal = example_one
        assert non_fg_locus(ideal) == non_fg_locus(ideal)

    def test_witnesses_present(self, example_one):
        _, _, ideal = example_one
        result = non_fg_locus(ideal, method="both")
        for f in result.maximal_faces:
            assert [type(w) for w in result.maximal[f]] == [Monomial, frozenset]

    def test_method_tags(self, example_one):
        _, delta, ideal = example_one
        assert locus_algebraic(ideal).method == "algebraic"
        assert locus_combinatorial(delta).method == "combinatorial"
        assert non_fg_locus(ideal).method == "both"

    def test_disagreement_aborts(self, example_one, monkeypatch):
        _, _, ideal = example_one
        real = locus_module.locus_combinatorial

        def broken(source):
            result = real(source)
            kept = dict(list(result.maximal.items())[1:])
            return LocusResult(result.context, kept, result.method)

        monkeypatch.setattr(locus_module, "locus_combinatorial", broken)
        with pytest.raises(
            MethodDisagreementError,
            match=r"only algebraic \['\{3\}'\], only combinatorial \[\]",
        ):
            locus_module.non_fg_locus(ideal, method="both")

    def test_views_are_read_only(self, example_one):
        _, _, ideal = example_one
        result = non_fg_locus(ideal)
        with pytest.raises(AttributeError):
            result.faces = ()

    @pytest.mark.parametrize("method", METHODS)
    def test_large_locus_is_not_expanded(self, method):
        # the locus is the 20-simplex {3..22}: about a million faces, which
        # a reader of maximal_faces and defining_ideal never needs
        ctx = context(24)
        delta = SimplicialComplex(24, [range(22), range(2, 24)])
        start = time.perf_counter()
        result = non_fg_locus(delta, method=method)
        assert result.maximal_faces == (frozenset(range(2, 22)),)
        assert result.defining_ideal == ideal_of(ctx, (1,), (2,), (23,), (24,))
        assert time.perf_counter() - start < 1.0


class TestManyFacets:
    """Inputs whose intersections of facets or link faces are exponential in
    number: the routes test only the meets of two facets, and the
    combinatorial one builds no link."""

    def test_combinatorial_route_builds_no_link(self, monkeypatch):
        # nor runs the criterion: the two routes cross-check each other
        def refuse(*args, **kwargs):
            raise AssertionError("the combinatorial route left the facets")

        for name in ("link", "faces", "free_faces"):
            monkeypatch.setattr(SimplicialComplex, name, refuse)
        monkeypatch.setattr(locus_module, "_criterion", refuse)
        delta = SimplicialComplex(4, [face(1, 2, 3), face(3, 4)])
        assert locus_combinatorial(delta).maximal == {
            face(3): (face(1),)
        }

    def test_algebraic_route_searches_no_free_face(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the algebraic route searched for a free face")

        monkeypatch.setattr(locus_module, "_smallest_free_face", refuse)
        delta = SimplicialComplex(4, [face(1, 2, 3), face(3, 4)])
        assert locus_algebraic(delta).maximal_faces == (face(3),)

    def test_transversals_only_in_facets_with_a_free_ridge(self, monkeypatch):
        # the boundary of the 10-simplex has no free ridge; in {123, 126, 345}
        # the meet {1, 2} has none, and {3} has one in each of its facets
        calls = []
        transversals = locus_module.minimal_transversals

        def counting(edges):
            calls.append(edges)
            return transversals(edges)

        monkeypatch.setattr(locus_module, "minimal_transversals", counting)
        boundary = SimplicialComplex(11, [set(range(11)) - {v} for v in range(11)])
        assert locus_combinatorial(boundary).empty
        assert len(calls) == 0
        readme = SimplicialComplex(6, [face(1, 2, 3), face(1, 2, 6), face(3, 4, 5)])
        assert locus_combinatorial(readme).maximal_faces == (face(3),)
        assert len(calls) == 2

    def test_witness_search_without_free_face_returns_none(self):
        triangle = [face(1, 2), face(2, 3), face(1, 3)]
        assert locus_module._smallest_free_face(triangle, frozenset()) is None

    @pytest.mark.parametrize("method", METHODS)
    def test_boundary_of_simplex(self, method):
        # the boundary of the 25-simplex: 26 facets, 2^26 - 1 intersections of
        # facets; no free ridge
        n = 26
        delta = SimplicialComplex(n, [set(range(n)) - {v} for v in range(n)])
        start = time.perf_counter()
        result = non_fg_locus(delta, method=method)
        assert result.empty
        assert time.perf_counter() - start < 1.0

    def test_two_disjoint_simplices_as_an_ideal(self):
        # 144 generators x_i * y_j, whose supports have only two minimal
        # transversals among thousands of hitting sets
        n = 24
        ctx = context(n)
        left, right = frozenset(range(12)), frozenset(range(12, n))
        ideal = ctx.ideal(ctx.squarefree((i, j)) for i in left for j in right)
        start = time.perf_counter()
        delta = SimplicialComplex.from_ideal(ideal)
        assert delta.facets == (left, right)
        assert delta.to_ideal(ctx) == ideal
        result = non_fg_locus(ideal, method="combinatorial")
        assert result.maximal == {
            frozenset(): (frozenset({0}),)
        }
        assert time.perf_counter() - start < 1.0

    def test_two_disjoint_simplices_algebraic(self):
        # 64 generators x_i * y_j: the criterion on (I : 1) = I forms only the
        # colon generators outside I^[2] + (lcm), not the whole colon
        n = 16
        ctx = context(n)
        delta = SimplicialComplex(n, [range(8), range(8, n)])
        start = time.perf_counter()
        result = non_fg_locus(delta, method="algebraic")
        elapsed = time.perf_counter() - start
        witness = ctx.monomial((2,) + (0,) * 7 + (1,) * 8)
        assert result.maximal == {
            frozenset(): (witness,)
        }
        assert elapsed < 2.0

    @pytest.mark.parametrize("method", METHODS)
    def test_simplex_plus_two_points(self, method):
        # link(cl {}) is the whole complex, with 2^18 faces
        n = 20
        ctx = context(n)
        delta = SimplicialComplex(n, [range(18), {18}, {19}])
        start = time.perf_counter()
        result = non_fg_locus(delta, method=method)
        elapsed = time.perf_counter() - start
        assert result.maximal_faces == (frozenset(),)
        assert result.defining_ideal == ctx.ideal(ctx.squarefree([i]) for i in range(n))
        if method == "combinatorial":
            assert result.maximal[frozenset()] == (face(1),)
            assert elapsed < 1.0


def _random_corpus(count: int = 300, seed: int = 6309):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 9)
        out.append((context(n), random_complex(rng, n)))
    return out


class TestBruteForceOracle:
    """The closed-face routes against testing every face of the complex."""

    @staticmethod
    def _check(ctx, delta):
        for method in METHODS:
            got = non_fg_locus(delta, method=method)
            expected = brute_force_locus(delta, ctx, method)
            assert got.faces == expected.faces, (delta, method)
            assert got.maximal_faces == expected.maximal_faces, (delta, method)
            assert got.defining_ideal == expected.defining_ideal, (delta, method)
            assert got.maximal == expected.witnesses, (delta, method)

    def test_exhaustive_small_complexes(self):
        for ctx, delta in exhaustive_complexes(5):
            self._check(ctx, delta)

    def test_random_complexes(self):
        for ctx, delta in _random_corpus():
            self._check(ctx, delta)

    def test_every_face_tested(self):
        for ctx, delta in exhaustive_complexes(4) + _random_corpus():
            got = non_fg_locus(delta, method="both")
            full = brute_force_locus(delta, ctx, "both", prune=False)
            assert got.faces == full.faces
            assert got.maximal_faces == full.maximal_faces
            assert got.defining_ideal == full.defining_ideal
            assert full.witnesses.keys() == set(full.faces)
            for f in got.maximal_faces:
                assert got.maximal[f] == full.witnesses[f]


class TestNci:
    def test_path_is_nci(self):
        ctx = context(3)
        assert is_nci(ideal_of(ctx, (1, 2), (2, 3)))

    def test_exclusions(self):
        ctx = context(4)
        assert not is_nci(ideal_of(ctx, (1, 2), (3, 4)))  # complete intersection
        assert not is_nci(ideal_of(ctx, (1,)))  # degree one
        assert not is_nci(ctx.zero_ideal())
        assert not is_nci(ctx.unit_ideal())

    def test_more_nci_families(self):
        ctx = context(4)
        assert is_nci(ideal_of(ctx, (1, 2), (2, 3), (3, 4)))
        assert is_nci(ideal_of(ctx, (1, 2), (1, 3), (1, 4)))
        ctx3 = context(3)
        assert is_nci(ideal_of(ctx3, (1, 2), (2, 3), (1, 3)))

    def test_nci_locus_path(self):
        ctx = context(3)
        result = nci_locus(ideal_of(ctx, (1, 2), (2, 3)))
        assert result.defining_ideal == ideal_of(ctx, (1,), (2,), (3,))
        assert result.faces == (frozenset(),)
        assert result.method == "nci"

    def test_nci_locus_empty_branch(self):
        # the triangle of edges is nearly complete and finitely generated
        ctx = context(3)
        triangle = ideal_of(ctx, (1, 2), (2, 3), (1, 3))
        result = nci_locus(triangle)
        assert result.empty

    def test_nci_locus_with_spare_vertex(self):
        ctx = context(4)
        ideal = ideal_of(ctx, (1, 2), (2, 3))
        result = nci_locus(ideal)
        assert result.defining_ideal == ideal_of(ctx, (1,), (2,), (3,))
        assert result.faces == (frozenset(), face(4))
        assert result.maximal_faces == (face(4),)
        direct = locus_algebraic(ideal)
        assert result.faces == direct.faces
        assert result.defining_ideal == direct.defining_ideal

    @staticmethod
    def _matches_reference(ideal) -> bool:
        """is_nci against reference_is_nci, and nci_locus (faces, J, witness)
        against the reference criterion; True when the ideal is NCI."""
        nci = reference_is_nci(ideal)
        assert is_nci(ideal) == nci, ideal
        if not nci:
            with pytest.raises(ValueError, match="not a nearly complete"):
                nci_locus(ideal)
            return False
        ctx = ideal.context
        result = nci_locus(ideal)
        offender = reference_criterion(ideal)
        if offender is None:
            assert result.empty and result.faces == (), ideal
            assert result.defining_ideal == ctx.unit_ideal()
            return True
        support = {i for g in ideal.generators for i, x in enumerate(g.exponents) if x}
        base = sorted(set(range(ctx.n)) - support)
        subfaces = [frozenset(c) for k in range(len(base) + 1) for c in combinations(base, k)]
        assert result.maximal == {
            frozenset(base): (offender,)
        }, ideal
        assert result.faces == tuple(sorted(subfaces, key=face_key))
        assert result.defining_ideal == ctx.ideal(ctx.squarefree([i]) for i in support)
        return True

    def test_every_squarefree_ideal_on_five_variables(self):
        found = 0
        for n in range(1, 6):
            ctx = context(n)
            found += self._matches_reference(ctx.zero_ideal())
            for supports in all_antichains(n):
                found += self._matches_reference(ctx.ideal(map(ctx.squarefree, supports)))
        assert found > 600

    def test_random_ideals_on_six_to_nine_variables(self):
        rng = random.Random(19)
        found = 0
        for _ in range(3000):
            n = rng.randint(6, 9)
            ctx = context(n)
            ideal = ctx.ideal(
                ctx.squarefree(rng.sample(range(n), rng.randint(2, 3)))
                for _ in range(rng.randint(2, 4))
            )
            found += self._matches_reference(ideal)
        assert found > 200

    def test_requires_nci(self):
        ctx = context(4)
        with pytest.raises(ValueError):
            nci_locus(ideal_of(ctx, (1, 2), (3, 4)))

    def test_agreement_with_algebraic_on_random_ncis(self):
        import random

        rng = random.Random(31)
        found = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            ctx = context(n)
            gens = [
                ctx.squarefree(rng.sample(range(n), rng.randint(2, n)))
                for _ in range(rng.randint(2, 4))
            ]
            ideal = ctx.ideal(gens)
            if ideal.is_unit or ideal.is_zero or not ideal.is_squarefree:
                continue
            if any(sum(g.exponents) < 2 for g in ideal.generators):
                continue
            if not is_nci(ideal):
                continue
            found += 1
            shortcut = nci_locus(ideal)
            direct = locus_algebraic(ideal)
            assert shortcut.faces == direct.faces
            assert shortcut.defining_ideal == direct.defining_ideal
        assert found >= 5
