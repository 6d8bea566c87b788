"""The degree-two finite-generation test and the degree-wise oracle."""

import random
import time

import pytest

from froblocus import (
    ExponentLimitError,
    OracleParams,
    criterion_witness,
    degree_generation_ideal,
    degreewise_report,
    frobenius_colon,
    is_finitely_generated,
    new_generators_vanish,
)
from froblocus.criterion import _criterion, _in_right_side
from helpers import (
    _compositions,
    all_antichains,
    composition_generation_ideal,
    context,
    exhaustive_complexes,
    ideal_of,
    mono,
    random_squarefree_ideal,
    reference_criterion,
    unit_ideal,
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
        ctx = path_ideal.context
        lcm = ctx.monomial(map(max, *(g.exponents for g in path_ideal.generators)))
        rhs = path_ideal.bracket(2) + ctx.ideal([lcm])
        principal = ctx.ideal([witness])
        assert principal + colon == colon and principal + rhs != rhs

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
        assert is_finitely_generated(ctx3.ideal())
        with pytest.raises(ValueError):
            is_finitely_generated(unit_ideal(ctx3))
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


class TestAgainstReference:
    """_criterion against the criterion built from both whole sides."""

    def test_every_colon_on_four_vertices(self):
        failing = 0
        for ctx, delta in exhaustive_complexes(4):
            ideal = delta.to_ideal(ctx)
            for f in delta.faces():
                colon = ideal.colon(ctx.squarefree(f))
                got = _criterion(colon)
                assert got == reference_criterion(colon), (ideal, f)
                failing += got is not None
        assert failing > 0

    def test_random_ideals(self):
        rng = random.Random(1812)
        failing = 0
        for _ in range(1000):
            ideal = random_squarefree_ideal(rng, context(rng.randint(6, 9)), max_gens=8)
            got = _criterion(ideal)
            assert got == reference_criterion(ideal), ideal
            failing += got is not None
        assert failing > 0

    def test_ideals_of_the_wide_workload_size(self):
        # 12 variables, 20-35 generators, as in the benchmark's wide workload
        rng = random.Random(1)
        ctx = context(12)
        checked = 0
        while checked < 10:
            ideal = ctx.ideal(
                ctx.squarefree(rng.sample(range(12), rng.randint(2, 4)))
                for _ in range(rng.randint(20, 60))
            )
            if 20 <= len(ideal) <= 35:
                assert _criterion(ideal) == reference_criterion(ideal), ideal
                checked += 1

    def test_level_rule_is_divisibility_by_the_right_side(self):
        # w lies in K^[2] + (lcm) iff one of its s + 1 generators divides w
        rng = random.Random(2022)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            ideal = random_squarefree_ideal(rng, context(rng.randint(6, 12)), max_gens=8)
            rhs = [tuple(2 * e for e in v) for v in ideal._vecs]
            rhs.append(tuple(map(max, zip(*ideal._vecs))))
            inside = _in_right_side(ideal)
            for _ in range(50):
                w = tuple(rng.randint(0, 3) for _ in range(ideal.context.n))
                expected = any(all(x <= y for x, y in zip(u, w)) for u in rhs)
                assert inside(w) == expected, (ideal, w)
                verdicts[expected] += 1
        assert min(verdicts.values()) > 1000, verdicts


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
            frobenius_colon(ctx3.ideal(), 2, 1)
        with pytest.raises(ValueError):
            frobenius_colon(unit_ideal(ctx3), 2, 1)

    def test_characteristic_and_degree_checked(self, path_ideal):
        # every oracle entry point refuses p by the rule of OracleParams
        refused = (
            lambda: frobenius_colon(path_ideal, 1, 2),
            lambda: frobenius_colon(path_ideal, 4, 1),
            lambda: degree_generation_ideal(path_ideal, 6, 2),
            lambda: new_generators_vanish(path_ideal, 4, 2),
            lambda: OracleParams(p=4),
        )
        for call in refused:
            with pytest.raises(ValueError, match=r"^characteristic must be one of \(2, 3, 5\)$"):
                call()
        with pytest.raises(ValueError, match="^Frobenius degree must be at least 1$"):
            frobenius_colon(path_ideal, 2, 0)


class TestLevelKernel:
    """frobenius_colon against the exponent-tuple colon I^[q].colon(I)."""

    @staticmethod
    def _check(ideal, degrees):
        for p, e in degrees:
            assert frobenius_colon(ideal, p, e) == ideal.bracket(p**e).colon(ideal), (ideal, p, e)
        # the criterion, which forms only the colon generators outside the
        # right-hand side, against the reference on the whole colon at q = 2
        assert _criterion(ideal) == reference_criterion(ideal), ideal

    def test_every_ideal_on_four_variables(self):
        degrees = [(p, e) for p in (2, 3, 5) for e in (1, 2, 3)]
        checked = failing = 0
        for n in range(1, 5):
            ctx = context(n)
            for supports in all_antichains(n):
                if supports == [frozenset()]:
                    continue
                ideal = ctx.ideal([ctx.squarefree(s) for s in supports])
                self._check(ideal, degrees)
                # generated in degree one or not at all: every degree of the
                # oracle reads the criterion's verdict, so no threshold above
                # degree one can change the answer
                fg = is_finitely_generated(ideal)
                for p in (2, 3, 5):
                    report = degreewise_report(ideal, OracleParams(p, e_max=4))
                    assert report == tuple((e, fg) for e in (2, 3, 4)), (ideal, p)
                checked += 1
                failing += not fg
        # Dedekind numbers 3, 6, 20, 168 less the zero and unit ideals
        assert checked == 1 + 4 + 18 + 166
        assert failing == 98

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
        assert max(max(g.exponents) for g in colon.generators) == 2**16
        with pytest.raises(ExponentLimitError):
            frobenius_colon(path_ideal, 2, 17)
        # C_1 * C_15^[2] reaches exponent 2 + 2^16, in the generated part
        # alone and in its sum with I^[2^16] that the verdict compares
        with pytest.raises(ExponentLimitError):
            degree_generation_ideal(path_ideal, 2, 16)
        with pytest.raises(ExponentLimitError):
            new_generators_vanish(path_ideal, 2, 16)

    def test_huge_exponents(self, path_ideal):
        # past 4,300 digits str() refuses an int, so the message must not need it
        with pytest.raises(ExponentLimitError):
            path_ideal.bracket(2**20000)
        with pytest.raises(ExponentLimitError):
            frobenius_colon(path_ideal, 2, 20000)
        with pytest.raises(ExponentLimitError):
            path_ideal.context.monomial((2**20000, 0, 0))
        start = time.perf_counter()
        with pytest.raises(ExponentLimitError):
            frobenius_colon(path_ideal, 3, 10**7)
        assert time.perf_counter() - start < 0.1


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
            assert degree_generation_ideal(path_ideal, 2, e) + colon == colon

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

    def test_degree_one_rejected(self, path_ideal):
        with pytest.raises(ValueError, match="^generation ideals start at degree 2$"):
            new_generators_vanish(path_ideal, 2, 1)


class TestGeneratedUpTo:
    def test_complete_intersection(self):
        ctx = context(4)
        report = degreewise_report(ideal_of(ctx, (1, 2), (3, 4)), OracleParams())
        assert all(ok for _, ok in report)

    def test_path(self, path_ideal):
        assert not all(ok for _, ok in degreewise_report(path_ideal, OracleParams()))

    def test_report_shape(self, path_ideal):
        report = degreewise_report(path_ideal, OracleParams(p=2, e_max=3))
        assert [e for e, _ in report] == [2, 3]
        assert report[0][1] is False

    def test_integer_arguments(self, path_ideal):
        # refused like a float exponent of a Monomial, not carried into an ideal
        with pytest.raises(TypeError):
            path_ideal.bracket(2.0)
        with pytest.raises(TypeError):
            frobenius_colon(path_ideal, 2.0, 2)
        with pytest.raises(TypeError):
            OracleParams(p=2.0)
        with pytest.raises(TypeError):
            OracleParams(e_max=3.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OracleParams(p=4)
        with pytest.raises(ValueError):
            OracleParams(p=7)
        with pytest.raises(ValueError):
            OracleParams(e_max=1)
        with pytest.raises(ValueError):
            OracleParams(e_max=5)
        # the oracle checks generation in degree one; no threshold is set
        with pytest.raises(TypeError):
            OracleParams(k=0)
        with pytest.raises(TypeError):
            OracleParams(k=2)
        assert OracleParams().k == 1


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

        from froblocus import SimplicialComplex

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
                colon = ideal.colon(ctx.squarefree(f))
                # localisation at f: set the variables of f to 1
                localized = ctx.ideal(
                    ctx.monomial(0 if i in f else x for i, x in enumerate(g.exponents))
                    for g in ideal.generators
                )
                assert colon.generators == localized.generators
