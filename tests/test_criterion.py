"""The degree-two finite-generation test and the degree-wise oracle."""

import random

import pytest

from froblocus import (
    ExponentLimitError,
    OracleParams,
    criterion_witness,
    degree_generation_ideal,
    degreewise_report,
    frobenius_colon,
    generated_up_to,
    is_finitely_generated,
    new_generators_vanish,
)
from froblocus.criterion import _criterion_sides
from helpers import (
    _compositions,
    all_antichains,
    composition_generation_ideal,
    context,
    exhaustive_complexes,
    ideal_of,
    mono,
    random_squarefree_ideal,
)


@pytest.fixture
def ctx3():
    return context(3)


@pytest.fixture
def path_ideal(ctx3):
    return ideal_of(ctx3, (1, 2), (2, 3))


class TestCriterion:
    def test_path_fails(self, path_ideal):
        assert not is_finitely_generated(path_ideal)
        witness = criterion_witness(path_ideal)
        assert witness is not None
        # the witness really separates the two sides
        colon = path_ideal.bracket(2).colon(path_ideal)
        rhs = path_ideal.bracket(2) + path_ideal.context.ideal(
            [path_ideal.context.monomial(map(max, *(g.exponents for g in path_ideal)))]
        )
        assert witness in colon and witness not in rhs

    def test_hand_computed_sides(self, ctx3, path_ideal):
        colon = path_ideal.bracket(2).colon(path_ideal)
        assert colon == ctx3.ideal(
            [mono(ctx3, 2, 1, 0), mono(ctx3, 1, 1, 1), mono(ctx3, 0, 1, 2)]
        )

    def test_complete_intersections_pass(self):
        ctx = context(4)
        assert is_finitely_generated(ideal_of(ctx, (1, 2), (3, 4)))
        assert is_finitely_generated(ideal_of(ctx, (1,), (2,), (3,)))
        assert is_finitely_generated(ideal_of(ctx, (1,)))
        assert is_finitely_generated(ideal_of(ctx, (1, 2)))

    def test_zero_passes_unit_rejected(self, ctx3):
        assert is_finitely_generated(ctx3.zero_ideal())
        with pytest.raises(ValueError):
            is_finitely_generated(ctx3.unit_ideal())
        with pytest.raises(ValueError):
            is_finitely_generated(ctx3.ideal([mono(ctx3, 2, 0, 0)]))

    def test_principal_survives_spare_variables(self):
        # a principal ideal stays finitely generated however many unused
        # variables surround it; its complex is a cone over two points
        assert is_finitely_generated(ideal_of(context(2), (1, 2)))
        assert is_finitely_generated(ideal_of(context(3), (1, 2)))
        assert is_finitely_generated(ideal_of(context(5), (1, 2)))

    def test_five_cycle_passes(self):
        # edge non-faces of the pentagon; no free faces anywhere
        ctx = context(5)
        pentagon = ideal_of(ctx, (1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
        assert is_finitely_generated(pentagon)

    def test_witness_none_when_generated(self):
        ctx = context(4)
        assert criterion_witness(ideal_of(ctx, (1, 2), (3, 4))) is None


class TestFrobeniusColon:
    def test_principal(self):
        ctx = context(2)
        principal = ideal_of(ctx, (1,))
        for p, e in ((2, 1), (2, 3), (3, 2)):
            q = p**e
            assert frobenius_colon(principal, p, e) == ctx.ideal(
                [mono(ctx, q - 1, 0)]
            )

    def test_path_degree_one(self, ctx3, path_ideal):
        assert frobenius_colon(path_ideal, 2, 1) == ctx3.ideal(
            [mono(ctx3, 2, 1, 0), mono(ctx3, 1, 1, 1), mono(ctx3, 0, 1, 2)]
        )

    def test_zero_rejected(self, ctx3):
        with pytest.raises(ValueError):
            frobenius_colon(ctx3.zero_ideal(), 2, 1)
        with pytest.raises(ValueError):
            frobenius_colon(ctx3.unit_ideal(), 2, 1)


class TestLevelKernel:
    """frobenius_colon against the exponent-tuple colon I^[q].colon(I)."""

    @staticmethod
    def _check(ideal, degrees):
        for p, e in degrees:
            assert frobenius_colon(ideal, p, e) == ideal.bracket(p**e).colon(ideal), (ideal, p, e)
        # the criterion's colon is the same ideal at q = 2
        assert frobenius_colon(ideal, 2, 1)._vecs == _criterion_sides(ideal)[0], ideal

    def test_every_ideal_on_four_variables(self):
        degrees = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]
        checked = 0
        for n in range(1, 5):
            ctx = context(n)
            for supports in all_antichains(n):
                if supports == [frozenset()]:
                    continue
                self._check(ctx.ideal([ctx.squarefree(s) for s in supports]), degrees)
                checked += 1
        # Dedekind numbers 3, 6, 20, 168 less the zero and unit ideals
        assert checked == 1 + 4 + 18 + 166

    def test_random_ideals(self):
        rng = random.Random(1307)
        for _ in range(200):
            ideal = random_squarefree_ideal(rng, context(rng.randint(6, 8)))
            self._check(ideal, [(2, 1), (3, 2)])

    def test_non_squarefree_rejected(self, ctx3):
        ideal = ctx3.ideal([mono(ctx3, 2, 1, 0), mono(ctx3, 0, 1, 1)])
        with pytest.raises(ValueError, match="squarefree"):
            frobenius_colon(ideal, 2, 1)
        with pytest.raises(ValueError, match="squarefree"):
            degree_generation_ideal(ideal, 2, 2)
        with pytest.raises(ValueError, match="squarefree"):
            degreewise_report(ideal)

    def test_exponent_limit(self, path_ideal):
        # 2^16 is the largest exponent a monomial may carry
        colon = frobenius_colon(path_ideal, 2, 16)
        assert max(max(g.exponents) for g in colon) == 2**16
        with pytest.raises(ExponentLimitError):
            frobenius_colon(path_ideal, 2, 17)
        # C_1 * C_15^[2] reaches exponent 2 + 2^16
        with pytest.raises(ExponentLimitError):
            degree_generation_ideal(path_ideal, 2, 16)


class TestGenerationIdeal:
    def test_composition_sets(self):
        assert set(_compositions(2)) == {(1, 1)}
        assert set(_compositions(3)) == {(1, 2), (2, 1), (1, 1, 1)}
        assert all(len(c) >= 2 and sum(c) == 4 for c in _compositions(4))

    def test_degree_two_is_single_product(self, path_ideal):
        p = 2
        lower = frobenius_colon(path_ideal, p, 1)
        assert degree_generation_ideal(path_ideal, p, 2) == lower * lower.bracket(p)

    def test_degree_three_structure(self, path_ideal):
        p = 2
        c1 = frobenius_colon(path_ideal, p, 1)
        c2 = frobenius_colon(path_ideal, p, 2)
        expected = (
            c1 * c2.bracket(p)
            + c2 * c1.bracket(p**2)
            + c1 * c1.bracket(p) * c1.bracket(p**2)
        )
        assert degree_generation_ideal(path_ideal, p, 3) == expected

    def test_degree_bound(self, path_ideal):
        with pytest.raises(ValueError):
            degree_generation_ideal(path_ideal, 2, 1)

    def test_products_lie_inside_colon(self, path_ideal):
        # every generator of the generated part already multiplies the
        # ideal into the Frobenius power
        for e in (2, 3):
            colon = frobenius_colon(path_ideal, 2, e)
            assert degree_generation_ideal(path_ideal, 2, e).issubset(colon)

    def test_complete_intersection_needs_frobenius_power(self):
        # the generated part alone misses the bracket generators; only
        # together with the Frobenius power does it fill the colon
        ctx = context(4)
        ci = ideal_of(ctx, (1, 2), (3, 4))
        colon = frobenius_colon(ci, 2, 2)
        generated = degree_generation_ideal(ci, 2, 2)
        assert generated != colon
        assert generated + ci.bracket(4) == colon


class TestTwoPartSum:
    """degree_generation_ideal against the sum over every composition."""

    @staticmethod
    def _check(ideal, p, e_max):
        report = dict(degreewise_report(ideal, OracleParams(p=p, e_max=e_max)))
        assert list(report) == list(range(2, e_max + 1))
        for e in report:
            generated = composition_generation_ideal(ideal, p, e)
            assert degree_generation_ideal(ideal, p, e) == generated, (ideal, p, e)
            vanishes = frobenius_colon(ideal, p, e) == generated + ideal.bracket(p**e)
            assert report[e] == vanishes, (ideal, p, e)
        assert new_generators_vanish(ideal, p, e_max) == report[e_max]

    def test_every_complex_on_four_vertices(self):
        checked = 0
        for ctx, delta in exhaustive_complexes(4):
            ideal = delta.to_ideal(ctx)
            if ideal.is_zero:
                continue
            for p in (2, 3):
                self._check(ideal, p, 3)
                checked += 1
        # every antichain on 1-4 vertices but the four full simplices
        assert checked == 2 * (2 + 5 + 19 + 167 - 4)

    def test_random_ideals(self):
        rng = random.Random(70007)
        for _ in range(300):
            ideal = random_squarefree_ideal(rng, context(rng.randint(5, 6)))
            self._check(ideal, rng.choice((2, 3)), 4 if len(ideal) <= 3 else 3)


class TestVanishing:
    def test_complete_intersection_all_degrees(self):
        ctx = context(4)
        ci = ideal_of(ctx, (1, 2), (3, 4))
        for e in (2, 3):
            assert new_generators_vanish(ci, 2, e)
            assert new_generators_vanish(ci, 3, e)

    def test_path_fails_at_two(self, path_ideal):
        assert not new_generators_vanish(path_ideal, 2, 2)

    def test_principal(self):
        ctx = context(2)
        assert new_generators_vanish(ideal_of(ctx, (1,)), 2, 2)


class TestGeneratedUpTo:
    def test_complete_intersection(self):
        ctx = context(4)
        assert generated_up_to(ideal_of(ctx, (1, 2), (3, 4)), OracleParams())

    def test_path(self, path_ideal):
        assert not generated_up_to(path_ideal, OracleParams())

    def test_vacuous_range(self, path_ideal):
        assert generated_up_to(path_ideal, OracleParams(p=2, e_max=3, k=3))

    def test_report_shape(self, path_ideal):
        report = degreewise_report(path_ideal, OracleParams(p=2, e_max=3, k=1))
        assert [e for e, _ in report] == [2, 3]
        assert report[0][1] is False

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OracleParams(p=4)
        with pytest.raises(ValueError):
            OracleParams(p=7)
        with pytest.raises(ValueError):
            OracleParams(e_max=1)
        with pytest.raises(ValueError):
            OracleParams(e_max=5)
        with pytest.raises(ValueError):
            OracleParams(k=0)


class TestCriterionInvariances:
    def test_permutation_invariance(self):
        import random

        rng = random.Random(21)
        ctx = context(5)
        for _ in range(20):
            gens = [
                ctx.squarefree(rng.sample(range(5), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = ctx.ideal(gens)
            if ideal.is_unit:
                continue
            perm = list(range(5))
            rng.shuffle(perm)
            permuted = ctx.ideal(
                [
                    ctx.monomial(tuple(g.exponents[perm[i]] for i in range(5)))
                    for g in gens
                ]
            )
            assert is_finitely_generated(ideal) == is_finitely_generated(permuted)

    def test_unused_variable_invariance(self):
        import random

        rng = random.Random(22)
        small = context(4)
        big = context(6)
        for _ in range(20):
            gens = [
                rng.sample(range(4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = small.ideal([small.squarefree(g) for g in gens])
            extended = big.ideal([big.squarefree(g) for g in gens])
            if ideal.is_unit:
                continue
            assert is_finitely_generated(ideal) == is_finitely_generated(extended)

    def test_colon_equals_localization_on_faces(self):
        # (I : x_F) and the localization of I at the face share their
        # minimal generators, for every face of the complex of I
        import random

        from froblocus import SimplicialComplex, face_monomial

        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            ctx = context(n)
            gens = [
                ctx.squarefree(rng.sample(range(n), rng.randint(1, n - 1)))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = ctx.ideal(gens)
            if ideal.is_unit or ideal.is_zero:
                continue
            delta = SimplicialComplex.from_ideal(ideal)
            for f in delta.faces():
                colon = ideal.colon(face_monomial(f, ctx))
                localized = ideal.localize(f)
                assert colon.generators == localized.generators
