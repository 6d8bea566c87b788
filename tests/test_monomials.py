"""Monomial and monomial-ideal arithmetic, including hand-checked oracles."""

import itertools
import random

import pytest

from froblocus import (
    ContextMismatchError,
    ExponentLimitError,
    Monomial,
    RingContext,
    SimplicialComplex,
    frobenius_colon,
)
from froblocus.monomials import (
    _colon_ideal_raw,
    minimal_masks,
    minimal_transversals,
    squarefree_ideal,
    support_masks,
)
from helpers import brute_force_transversals, context, ideal_of, mono, sq


@pytest.fixture
def ctx3():
    return context(3)


@pytest.fixture
def ctx5():
    return context(5)


class TestRingContext:
    def test_basic(self):
        ctx = RingContext(("x", "y_2", "Zq"))
        assert ctx.n == 3
        assert ctx.index_of("Zq") == 2

    def test_bad_names(self):
        with pytest.raises(ValueError):
            RingContext(("x", "x"))
        with pytest.raises(ValueError):
            RingContext(("2x",))
        with pytest.raises(ValueError):
            RingContext(())
        with pytest.raises(ValueError):
            RingContext(tuple(f"x{i}" for i in range(31)))

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            context(2).index_of("zz")


class TestMonomial:
    def test_divides(self, ctx3):
        assert sq(ctx3, 1).divides(sq(ctx3, 1, 2))
        assert ctx3.one().divides(mono(ctx3, 5, 0, 2))
        assert not mono(ctx3, 2, 0, 0).divides(sq(ctx3, 1, 2))

    def test_context_mismatch(self, ctx3):
        other = RingContext(("u", "v", "w"))
        with pytest.raises(ContextMismatchError):
            sq(ctx3, 1).divides(other.variable(0))

    def test_exponent_limit(self, ctx3):
        with pytest.raises(ExponentLimitError):
            mono(ctx3, 1 << 17, 0, 0)
        with pytest.raises(ExponentLimitError):
            mono(ctx3, 60000, 0, 0) ** 2
        ideal = ctx3.ideal([mono(ctx3, 40000, 0, 0)])
        with pytest.raises(ExponentLimitError, match="exponent 80000 exceeds limit"):
            ideal * ideal

    def test_str_and_degree(self, ctx3):
        assert str(ctx3.one()) == "1"
        assert str(mono(ctx3, 2, 0, 1)) == "x1^2*x3"
        assert mono(ctx3, 2, 0, 1).degree == 3
        assert mono(ctx3, 2, 0, 1).support == {0, 2}
        assert sq(ctx3, 1, 3).is_squarefree
        assert not mono(ctx3, 2, 0, 0).is_squarefree

    def test_exponents_must_be_integers(self, ctx3):
        with pytest.raises(TypeError):
            mono(ctx3, 1.7, 0, 0)
        with pytest.raises(TypeError):
            mono(ctx3, "2", 0, 0)

    def test_squarefree_index_out_of_range(self):
        ctx = context(2)
        with pytest.raises(ValueError, match="out of range"):
            ctx.squarefree([5])
        with pytest.raises(ValueError, match="out of range"):
            ctx.squarefree([0, -1])
        assert ctx.squarefree([0, 1]) == mono(ctx, 1, 1)


class TestCanonicalForm:
    def test_minimalize_prunes(self, ctx3):
        ideal = ctx3.ideal([sq(ctx3, 1), sq(ctx3, 1, 2)])
        assert ideal.generators == (sq(ctx3, 1),)

    def test_zero_and_unit(self, ctx3):
        assert ctx3.zero_ideal().is_zero
        assert not ctx3.zero_ideal().is_unit
        assert ctx3.unit_ideal().is_unit
        assert ctx3.unit_ideal().generators == (ctx3.one(),)

    def test_three_generators(self, ctx3):
        ideal = ctx3.ideal([sq(ctx3, 1, 2), sq(ctx3, 2, 3), sq(ctx3, 1, 2, 3)])
        assert ideal == ideal_of(ctx3, (1, 2), (2, 3))

    def test_idempotent(self, ctx5):
        ideal = ideal_of(ctx5, (2, 3), (3, 4), (4, 5))
        again = ctx5.ideal(ideal.generators)
        assert again == ideal
        assert again.generators == ideal.generators

    def test_equals_after_minimalization(self, ctx3):
        a = ctx3.ideal([sq(ctx3, 1), sq(ctx3, 1, 2)])
        b = ctx3.ideal([sq(ctx3, 1)])
        assert a == b
        assert ctx3.ideal([sq(ctx3, 1)]) != ctx3.ideal([sq(ctx3, 2)])


class TestStoredForm:
    """An ideal stores exponent tuples; Monomials are built only on read."""

    def test_operations_build_no_monomials(self, monkeypatch):
        ctx = context(4)
        ideal = ideal_of(ctx, (1, 2), (2, 3), (3, 4))
        other = ideal_of(ctx, (1,), (3, 4))
        x1 = sq(ctx, 1)
        delta = SimplicialComplex(4, [[0, 1], [1, 2, 3]])
        built = []
        init = Monomial.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Monomial, "__init__", counting_init)
        results = [
            ideal.colon(x1),
            ideal.colon(other),
            ideal + other,
            ideal * other,
            ideal.intersection(other),
            ideal.bracket(3),
            ideal.localize({0}),
            delta.to_ideal(ctx),
            SimplicialComplex.from_ideal(ideal).to_ideal(ctx),
            frobenius_colon(ideal, 3, 2),
        ]
        assert built == []
        round_trip = results[-2]
        assert round_trip == ideal and hash(round_trip) == hash(ideal)
        assert len(round_trip) == 3
        assert str(round_trip) == "(x1*x2, x2*x3, x3*x4)"
        assert built == []
        rebuilt = ctx.ideal(round_trip.generators)
        assert len(built) == 3
        assert rebuilt == round_trip and hash(rebuilt) == hash(round_trip)


class TestContains:
    def test_divisor_membership(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2))
        assert sq(ctx3, 1, 2, 3) in ideal
        assert sq(ctx3, 1) not in ideal

    def test_zero_ideal_contains_nothing(self, ctx3):
        assert sq(ctx3, 1) not in ctx3.zero_ideal()

    def test_derived_example(self, ctx5):
        # no generator of (x2x3, x3x4, x4x5) divides x2x4
        ideal = ideal_of(ctx5, (2, 3), (3, 4), (4, 5))
        assert sq(ctx5, 2, 4) not in ideal


class TestSumProductIntersection:
    def test_intersection_of_variable_primes(self, ctx5):
        left = ctx5.ideal([sq(ctx5, 1), sq(ctx5, 3), sq(ctx5, 4)])
        right = ctx5.ideal([sq(ctx5, 2), sq(ctx5, 3), sq(ctx5, 4)])
        assert left.intersection(right) == ideal_of(ctx5, (1, 2), (3,), (4,))

    def test_sum_identity(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2))
        assert ideal + ctx3.zero_ideal() == ideal

    def test_product_principal(self, ctx3):
        assert ideal_of(ctx3, (1,)) * ideal_of(ctx3, (2,)) == ideal_of(ctx3, (1, 2))

    def test_membership_oracle_bounded_degree(self):
        # m in I op J decided from first principles for every monomial of
        # degree <= 6 on five variables
        ctx = context(5)
        I = ctx.ideal([mono(ctx, 2, 1, 0, 0, 0), mono(ctx, 0, 0, 1, 1, 0)])
        J = ctx.ideal([mono(ctx, 1, 0, 0, 0, 1), mono(ctx, 0, 2, 0, 1, 0)])
        inter = I.intersection(J)
        total = I + J
        prod = I * J
        for exps in itertools.product(range(7), repeat=5):
            if sum(exps) > 6:
                continue
            m = ctx.monomial(exps)
            in_i, in_j = m in I, m in J
            assert (m in inter) == (
                in_i and in_j
            ), f"intersection wrong at {m}"
            assert (m in total) == (in_i or in_j), f"sum wrong at {m}"
            in_prod_direct = any(
                (a * b).divides(m) for a in I.generators for b in J.generators
            )
            assert (m in prod) == in_prod_direct, f"product wrong at {m}"


class TestColon:
    def test_colon_monomial_link_example(self):
        ctx = RingContext(("x", "y", "z", "w", "a", "b"))
        ideal = ctx.ideal(
            [
                ctx.squarefree((0, 3)),  # x*w
                ctx.squarefree((1, 3)),  # y*w
                ctx.squarefree((0, 4)),  # x*a
                ctx.squarefree((1, 4)),  # y*a
                ctx.squarefree((2, 5)),  # z*b
                ctx.squarefree((3, 5)),  # w*b
                ctx.squarefree((4, 5)),  # a*b
            ]
        )
        expected = ctx.ideal(
            [
                ctx.squarefree((0, 3)),
                ctx.squarefree((1, 3)),
                ctx.squarefree((0, 4)),
                ctx.squarefree((1, 4)),
                ctx.squarefree((5,)),  # b
            ]
        )
        assert ideal.colon(ctx.variable(2)) == expected

    def test_colon_monomial_trivial(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2), (2, 3))
        assert ideal.colon(ctx3.one()) == ideal
        assert ideal_of(ctx3, (1, 2)).colon(sq(ctx3, 1)) == ideal_of(ctx3, (2,))

    def test_colon_ideal_derived(self, ctx3):
        # ((x1^2 x2^2, x2^2 x3^2) : (x1x2, x2x3)) checked by hand
        squares = ctx3.ideal([mono(ctx3, 2, 2, 0), mono(ctx3, 0, 2, 2)])
        divisor = ideal_of(ctx3, (1, 2), (2, 3))
        expected = ctx3.ideal(
            [mono(ctx3, 2, 1, 0), mono(ctx3, 1, 1, 1), mono(ctx3, 0, 1, 2)]
        )
        assert squares.colon(divisor) == expected

    def test_colon_ideal_units(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2), (2, 3))
        assert ideal.colon(ctx3.unit_ideal()) == ideal
        assert ideal.colon(ideal) == ctx3.unit_ideal()

    def test_colon_by_zero_rejected(self, ctx3):
        with pytest.raises(ValueError):
            ideal_of(ctx3, (1,)).colon(ctx3.zero_ideal())
        with pytest.raises(ValueError):
            _colon_ideal_raw(((1, 0, 0),), ())


class TestBracketPower:
    def test_squares(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2), (2, 3))
        assert ideal.bracket(2) == ctx3.ideal(
            [mono(ctx3, 2, 2, 0), mono(ctx3, 0, 2, 2)]
        )

    def test_identity_and_principal(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2), (2, 3))
        assert ideal.bracket(1) == ideal
        assert ideal_of(ctx3, (1,)).bracket(8) == ctx3.ideal([mono(ctx3, 8, 0, 0)])

    def test_overflow(self, ctx3):
        with pytest.raises(ExponentLimitError):
            ideal_of(ctx3, (1,)).bracket(1 << 17)

    def test_presentation_independence(self, ctx5):
        # padding the generating set with redundant multiples must not
        # change any bracket power
        import random

        rng = random.Random(7)
        for _ in range(25):
            gens = [
                ctx5.squarefree(rng.sample(range(5), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = ctx5.ideal(gens)
            padded = list(gens)
            for g in gens:
                padded.append(g * ctx5.variable(rng.randrange(5)))
            padded_ideal = ctx5.ideal(padded)
            assert padded_ideal == ideal
            for q in (2, 3, 4, 8):
                direct = ideal.bracket(q)
                via_padded = padded_ideal.bracket(q)
                assert direct == via_padded


class TestLocalization:
    def test_basic(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2), (2, 3))
        assert ideal.localize({1}) == ideal_of(ctx3, (1,), (3,))

    def test_identity(self, ctx3):
        ideal = ideal_of(ctx3, (1, 2))
        assert ideal.localize(frozenset()) == ideal

    def test_derived(self):
        ctx = context(4)
        ideal = ideal_of(ctx, (1, 2, 3), (3, 4))
        assert ideal.localize({2}) == ideal_of(ctx, (1, 2), (4,))

    def test_support_disjoint(self, ctx5):
        import random

        rng = random.Random(3)
        for _ in range(30):
            gens = [
                ctx5.squarefree(rng.sample(range(5), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = ctx5.ideal(gens)
            away = frozenset(rng.sample(range(5), rng.randint(0, 3)))
            assert not ideal.localize(away).support() & away


class TestStructure:
    def test_complete_intersection(self, ctx5):
        assert ideal_of(ctx5, (1, 2), (3, 4)).is_complete_intersection()
        assert not ideal_of(ctx5, (1, 2), (2, 3)).is_complete_intersection()
        assert ideal_of(ctx5, (1,)).is_complete_intersection()
        assert context(5).zero_ideal().is_complete_intersection()
        assert not context(5).unit_ideal().is_complete_intersection()

    def test_support(self, ctx5):
        assert ideal_of(ctx5, (1, 2), (2, 3)).support() == {0, 1, 2}
        assert ctx5.zero_ideal().support() == frozenset()
        assert ideal_of(ctx5, (2, 3), (3, 4), (4, 5)).support() == {1, 2, 3, 4}

    def test_issubset(self, ctx3):
        small = ideal_of(ctx3, (1, 2))
        big = ideal_of(ctx3, (1,))
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_cross_context_operations_rejected(self, ctx3):
        other = RingContext(("u", "v", "w"))
        ours = ideal_of(ctx3, (1, 2))
        theirs = other.ideal([other.variable(0)])
        for op in (
            lambda: ours + theirs,
            lambda: ours * theirs,
            lambda: ours.intersection(theirs),
            lambda: ours.colon(theirs),
            lambda: ours.contains(other.variable(0)),
            lambda: ctx3.ideal([other.variable(0)]),
        ):
            with pytest.raises(ContextMismatchError):
                op()

    def test_canonical_order_is_descending_lex(self, ctx3):
        ideal = ideal_of(ctx3, (2, 3), (1, 2))
        assert [g.exponents for g in ideal.generators] == [(1, 1, 0), (0, 1, 1)]
        assert str(ideal) == "(x1*x2, x2*x3)"

    def test_equality_matches_double_inclusion(self):
        import random

        rng = random.Random(17)
        ctx = context(4)
        for _ in range(40):
            left = ctx.ideal(
                [
                    ctx.squarefree(rng.sample(range(4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            right = ctx.ideal(
                [
                    ctx.squarefree(rng.sample(range(4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            both_ways = left.issubset(right) and right.issubset(left)
            assert (left == right) == both_ways


class TestTransversalKernel:
    def test_minimal_masks(self):
        family = [0b110, 0b010, 0b011, 0b010, 0b101, 0b111]
        assert minimal_masks(family) == [0b010, 0b101]
        assert minimal_masks([]) == []
        assert minimal_masks([0, 0b1]) == [0]

    def test_edge_cases(self):
        assert minimal_transversals([]) == [0]
        assert minimal_transversals([0]) == []
        assert minimal_transversals([0b11, 0]) == []
        # duplicate edges
        assert minimal_transversals([0b011, 0b011]) == [0b001, 0b010]
        # nested edges: hitting the smaller one hits the larger
        assert minimal_transversals([0b111, 0b010]) == [0b010]
        assert minimal_transversals([0b001, 0b010]) == [0b011]
        # the squarefree ideal of a mask family, and back
        ctx = context(3)
        assert squarefree_ideal(ctx, []) == ctx.zero_ideal()
        assert squarefree_ideal(ctx, [0]) == ctx.unit_ideal()
        assert support_masks(ctx.unit_ideal()) == [0]
        assert support_masks(ideal_of(ctx, (2, 3), (1, 2))) == [0b011, 0b110]
        with pytest.raises(ValueError, match="out of range"):
            squarefree_ideal(ctx, [0b1000])

    def test_against_brute_force(self):
        rng = random.Random(14)
        for _ in range(500):
            n = rng.randint(1, 8)
            edges = [rng.randrange(1 << n) for _ in range(rng.randint(0, 7))]
            if edges and rng.random() < 0.3:
                edges.append(rng.choice(edges))
            if edges and rng.random() < 0.3:
                edges.append(rng.choice(edges) | rng.randrange(1 << n))
            rng.shuffle(edges)
            assert minimal_transversals(edges) == brute_force_transversals(edges, n)
            ctx = context(n)
            ideal = squarefree_ideal(ctx, edges)
            bits = [[i for i in range(n) if m >> i & 1] for m in edges]
            assert ideal == ctx.ideal([ctx.squarefree(b) for b in bits])
            assert sorted(support_masks(ideal)) == sorted(minimal_masks(edges))
            assert squarefree_ideal(ctx, support_masks(ideal)) == ideal
