"""Property suites tying the modules together on randomized inputs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from froblocus import (
    SimplicialComplex,
    face_monomial,
    face_prime,
    is_finitely_generated,
    locus_algebraic,
    locus_combinatorial,
    new_generators_vanish,
    non_fg_locus,
)
from froblocus.criterion import degree_generation_ideal, frobenius_colon
from helpers import context, random_complex


@st.composite
def squarefree_ideals(draw, max_n=6, max_gens=4, proper=True):
    n = draw(st.integers(min_value=2, max_value=max_n))
    ctx = context(n)
    count = draw(st.integers(min_value=1, max_value=max_gens))
    gens = []
    for _ in range(count):
        support = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        )
        gens.append(ctx.squarefree(support))
    ideal = ctx.ideal(gens)
    if proper and ideal.is_unit:
        ideal = ctx.ideal(
            [ctx.monomial((g.exponents[0] + 1, *g.exponents[1:])) for g in gens]
        )
    return ideal


@st.composite
def complexes(draw, max_n=6, max_facets=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=1, max_value=max_facets))
    facets = []
    for _ in range(count):
        facets.append(
            draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        )
    return SimplicialComplex(n, facets)


@given(squarefree_ideals())
def test_round_trip_ideal(ideal):
    delta = SimplicialComplex.from_ideal(ideal)
    assert delta.to_ideal(ideal.context) == ideal


@given(complexes())
def test_round_trip_complex(delta):
    ctx = context(delta.n)
    ideal = delta.to_ideal(ctx)
    if ideal.is_unit:
        return
    assert SimplicialComplex.from_ideal(ideal) == delta


@given(complexes())
def test_link_colon_identity(delta):
    ctx = context(delta.n)
    ideal = delta.to_ideal(ctx)
    if ideal.is_unit:
        return
    for f in delta.faces():
        assert delta.link(f).to_ideal(ctx) == ideal.colon(face_monomial(f, ctx))


@given(complexes())
def test_sandwich(delta):
    ctx = context(delta.n)
    ideal = delta.to_ideal(ctx)
    if ideal.is_unit:
        return
    for f in delta.faces():
        colon = ideal.colon(face_monomial(f, ctx))
        assert ideal + colon == colon
        prime = face_prime(f, ctx)
        assert colon + prime == prime


@given(complexes())
def test_method_agreement(delta):
    ctx = context(delta.n)
    ideal = delta.to_ideal(ctx)
    if ideal.is_unit:
        return
    if ideal.is_zero:
        assert locus_combinatorial(delta).empty
        return
    result = non_fg_locus(ideal, method="both")
    comb = locus_combinatorial(delta)
    assert result.faces == comb.faces


@given(complexes())
def test_downward_closure(delta):
    ctx = context(delta.n)
    ideal = delta.to_ideal(ctx)
    if ideal.is_unit or ideal.is_zero:
        return
    result = locus_algebraic(ideal)
    members = set(result.faces)
    for f in members:
        for v in f:
            assert f - {v} in members


@settings(max_examples=25)
@given(squarefree_ideals(max_n=5, max_gens=4), st.sampled_from([2, 3]))
def test_oracle_agrees_with_criterion(ideal, p):
    if ideal.is_zero:
        return
    expected = is_finitely_generated(ideal)
    for e in (2, 3):
        assert new_generators_vanish(ideal, p, e) == expected, (
            f"oracle mismatch at p={p}, e={e} for {ideal}"
        )


@settings(max_examples=25)
@given(squarefree_ideals(max_n=5, max_gens=4), st.sampled_from([2, 3]))
def test_generated_part_inside_colon(ideal, p):
    if ideal.is_zero:
        return
    for e in (2, 3):
        colon = frobenius_colon(ideal, p, e)
        generated = degree_generation_ideal(ideal, p, e)
        assert generated + colon == colon
        assert ideal.bracket(p**e) + colon == colon


@given(squarefree_ideals())
def test_locus_idempotent(ideal):
    if ideal.is_zero:
        return
    first = locus_algebraic(ideal)
    second = locus_algebraic(ideal)
    assert first == second


@st.composite
def relabelled_complexes(draw, max_n=7):
    delta = draw(complexes(max_n=max_n))
    perm = draw(st.permutations(range(delta.n)))
    return delta, perm


@given(relabelled_complexes())
def test_vertex_permutation_equivariance(case):
    delta, perm = case
    ctx = context(delta.n)
    if delta.to_ideal(ctx).is_unit:
        return
    moved = SimplicialComplex(delta.n, [{perm[v] for v in f} for f in delta.facets])
    before = non_fg_locus(delta)
    after = non_fg_locus(moved)
    assert set(after.maximal_faces) == {
        frozenset(perm[v] for v in f) for f in before.maximal_faces
    }

    def relabel(exponents):
        out = [0] * delta.n
        for i, e in enumerate(exponents):
            out[perm[i]] = e
        return tuple(out)

    assert {g.exponents for g in after.defining_ideal.generators} == {
        relabel(g.exponents) for g in before.defining_ideal.generators
    }


def test_cone_over_complex_cones_its_locus():
    """The locus of the cone over a complex is the cone over its locus.

    The cone's facets are h + a for the facets h and the apex a, so their
    meets are (h & g) + a, the apex is never in (h + a) - (g + a), and
    (h + a) - v lies in g + a exactly when h - v lies in g.  By the
    free-ridge formula the maximal locus faces of the cone are those of the
    complex with a added.  Checked where no brute force can go.
    """
    rng = random.Random(4406)
    for _ in range(300):
        n = rng.randint(20, 29)
        delta = random_complex(rng, n)
        cone = SimplicialComplex(n + 1, [h | {n} for h in delta.facets])
        expected = {f | {n} for f in locus_combinatorial(delta).maximal_faces}
        assert set(locus_combinatorial(cone).maximal_faces) == expected, delta
