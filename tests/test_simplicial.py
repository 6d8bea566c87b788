"""Complexes, the squarefree correspondence, links and free faces."""

import gc

import pytest

from froblocus import RingContext, SimplicialComplex
from helpers import context, core, face, face_prime, ideal_of, unit_ideal


@pytest.fixture
def paths():
    # path 1-2, 2-3
    return SimplicialComplex(3, [face(1, 2), face(2, 3)])


class TestConstruction:
    def test_facet_pruning(self):
        delta = SimplicialComplex(3, [face(1), face(1, 2)])
        assert delta.facets == (face(1, 2),)

    def test_void_vs_irrelevant(self):
        void = SimplicialComplex(3, [])
        irrelevant = SimplicialComplex(3, [frozenset()])
        assert void.is_void and not irrelevant.is_void
        assert irrelevant.facets == (frozenset(),)
        assert void != irrelevant

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, [face(3)])
        with pytest.raises(ValueError):
            SimplicialComplex(3, [face(1, 2)], vertices={0})

    def test_no_vertex_slot_rejected(self):
        with pytest.raises(ValueError, match="^need at least one vertex slot$"):
            SimplicialComplex(0)


class TestFaces:
    def test_single_edge(self):
        delta = SimplicialComplex(2, [face(1, 2)])
        assert delta.faces() == (frozenset(), face(1), face(2), face(1, 2))

    def test_void_has_no_faces(self):
        assert SimplicialComplex(2, []).faces() == ()

    def test_path_has_six_faces(self, paths):
        assert len(paths.faces()) == 6

    def test_count_matches_brute_force(self):
        import itertools
        import random

        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 8)
            facets = [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 4))
            ]
            delta = SimplicialComplex(n, facets)
            brute = {
                frozenset(c)
                for k in range(n + 1)
                for c in itertools.combinations(range(n), k)
                if any(frozenset(c) <= h for h in delta.facets)
            }
            assert set(delta.faces()) == brute

    def test_faces_closed_under_subsets(self, paths):
        all_faces = set(paths.faces())
        for f in all_faces:
            for v in f:
                assert f - {v} in all_faces


class TestStanleyCorrespondence:
    def test_to_ideal_example_two(self):
        ctx = context(5)
        delta = SimplicialComplex(5, [face(1, 2, 5), face(1, 3, 5), face(1, 2, 4)])
        assert delta.to_ideal(ctx) == ideal_of(ctx, (2, 3), (3, 4), (4, 5))

    def test_to_ideal_example_one(self):
        ctx = RingContext(("x", "y", "z", "w", "a", "b"))
        delta = SimplicialComplex(6, [face(1, 2, 3), face(1, 2, 6), face(3, 4, 5)])
        expected = ctx.ideal(
            [
                ctx.squarefree((0, 3)),
                ctx.squarefree((1, 3)),
                ctx.squarefree((0, 4)),
                ctx.squarefree((1, 4)),
                ctx.squarefree((2, 5)),
                ctx.squarefree((3, 5)),
                ctx.squarefree((4, 5)),
            ]
        )
        assert delta.to_ideal(ctx) == expected

    def test_full_simplex_and_edge_cases(self):
        ctx = context(3)
        assert SimplicialComplex(3, [face(1, 2, 3)]).to_ideal(ctx).is_zero
        assert SimplicialComplex(3, []).to_ideal(ctx).is_unit
        assert SimplicialComplex(3, [frozenset()]).to_ideal(ctx) == ideal_of(
            ctx, (1,), (2,), (3,)
        )

    def test_from_ideal_example_three(self):
        ctx = context(3)
        delta = SimplicialComplex.from_ideal(ideal_of(ctx, (1, 2), (2, 3)))
        assert delta.facets == (face(2), face(1, 3))

    def test_from_ideal_edge_cases(self):
        ctx = context(3)
        assert SimplicialComplex.from_ideal(ctx.ideal()).facets == (
            face(1, 2, 3),
        )
        with pytest.raises(ValueError):
            SimplicialComplex.from_ideal(unit_ideal(ctx))
        with pytest.raises(ValueError):
            SimplicialComplex.from_ideal(ctx.ideal([ctx.monomial((2, 0, 0))]))

    def test_from_ideal_frees_its_work_at_once(self):
        # a reference cycle would keep every transversal alive until the
        # cyclic collector runs
        ideal = ideal_of(context(5), (2, 3), (3, 4), (4, 5))
        gc.collect()
        gc.disable()
        try:
            SimplicialComplex.from_ideal(ideal)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_round_trip_example_two(self):
        ctx = context(5)
        ideal = ideal_of(ctx, (2, 3), (3, 4), (4, 5))
        delta = SimplicialComplex.from_ideal(ideal)
        assert delta.facets == (face(1, 2, 4), face(1, 2, 5), face(1, 3, 5))
        assert delta.to_ideal(ctx) == ideal

    def test_unused_variable_becomes_generator(self):
        ctx = context(3)
        delta = SimplicialComplex(3, [face(1, 2)])
        assert delta.to_ideal(ctx) == ideal_of(ctx, (3,))

    def test_to_ideal_context_size_checked(self):
        delta = SimplicialComplex(3, [face(1, 2)])
        with pytest.raises(ValueError, match="^context has 2 variables, complex expects 3$"):
            delta.to_ideal(context(2))


class TestLink:
    def test_link_example_one(self):
        delta = SimplicialComplex(6, [face(1, 2, 3), face(1, 2, 6), face(3, 4, 5)])
        link = delta.link(face(3))
        assert link.facets == (face(1, 2), face(4, 5))
        assert link.vertices == frozenset(range(6)) - face(3)

    def test_link_of_empty_face(self, paths):
        assert paths.link(frozenset()) == paths

    def test_link_in_path(self, paths):
        assert paths.link(face(2)).facets == (face(1), face(3))

    def test_link_requires_face(self, paths):
        with pytest.raises(ValueError):
            paths.link(face(1, 3))

    def test_link_colon_identity(self):
        ctx = RingContext(("x", "y", "z", "w", "a", "b"))
        delta = SimplicialComplex(6, [face(1, 2, 3), face(1, 2, 6), face(3, 4, 5)])
        ideal = delta.to_ideal(ctx)
        for f in delta.faces():
            assert delta.link(f).to_ideal(ctx) == ideal.colon(
                ctx.squarefree(f)
            )


class TestFreeFaces:
    def test_path(self, paths):
        assert paths.free_faces() == (face(1), face(3))

    def test_triangle_boundary(self):
        delta = SimplicialComplex(3, [face(1, 2), face(2, 3), face(1, 3)])
        assert delta.free_faces() == ()

    def test_single_facet(self):
        delta = SimplicialComplex(2, [face(1, 2)])
        assert delta.free_faces() == (face(1), face(2))

    def test_free_faces_lie_in_exactly_one_facet(self, paths):
        for f in paths.free_faces():
            assert f in paths.faces()
            holders = [h for h in paths.facets if f <= h]
            assert len(holders) == 1 and f != holders[0]


class TestCore:
    """The reference's ``core``, used by the brute-force locus."""

    def test_cone_is_stripped(self, paths):
        # 1-3, 2-3 path is a cone with apex 3
        delta = SimplicialComplex(3, [face(1, 3), face(2, 3)])
        stripped = core(delta)
        assert stripped.facets == (face(1), face(2))
        assert stripped.free_faces() == ()

    def test_core_of_simplex_is_irrelevant(self):
        delta = SimplicialComplex(2, [face(1, 2)])
        assert core(delta).facets == (frozenset(),)

    def test_path_cones_over_middle_vertex(self, paths):
        # 1-2, 2-3 shares vertex 2 between both facets
        assert core(paths).facets == (face(1), face(3))

    def test_no_cone_points_is_identity(self):
        delta = SimplicialComplex(3, [face(2), face(1, 3)])
        assert core(delta) == delta


class TestFacePrimitives:
    def test_face_prime_example(self):
        ctx = RingContext(("x", "y", "z", "w", "a", "b"))
        prime = face_prime(face(3), ctx)
        assert prime == ctx.ideal(
            [ctx.squarefree([i]) for i in (0, 1, 3, 4, 5)]
        )

    def test_empty_and_full(self):
        ctx = context(3)
        assert face_prime(frozenset(), ctx) == ideal_of(ctx, (1,), (2,), (3,))
        assert face_prime(face(1, 2, 3), ctx).is_zero
        assert ctx.squarefree(frozenset()) == ctx.monomial((0, 0, 0))

    def test_vertex_out_of_range(self):
        ctx = context(2)
        with pytest.raises(ValueError, match="out of range"):
            ctx.squarefree(frozenset({2}))

    def test_sandwich(self):
        # I is contained in (I : x_F), contained in the face prime
        import random

        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            ctx = context(n)
            gens = [
                ctx.squarefree(rng.sample(range(n), rng.randint(1, n - 1)))
                for _ in range(rng.randint(1, 5))
            ]
            ideal = ctx.ideal(gens)
            if ideal.is_unit or ideal.is_zero:
                continue
            delta = SimplicialComplex.from_ideal(ideal)
            for f in delta.faces():
                colon = ideal.colon(ctx.squarefree(f))
                assert ideal + colon == colon
                prime = face_prime(f, ctx)
                assert colon + prime == prime
