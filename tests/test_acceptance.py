"""Acceptance suite: golden outputs plus exhaustive and randomized property
sweeps, each printed as a pass/fail line.

Corpus: every complex on up to five vertices (facet antichains, including
the irrelevant complex, excluding the void complex whose ideal is the unit
ideal) plus 500 seeded random complexes on six and seven vertices.
"""

import random
import time

import pytest

from froblocus import (
    RingContext,
    SimplicialComplex,
    is_finitely_generated,
    is_nci,
    locus_algebraic,
    locus_combinatorial,
    nci_locus,
    non_fg_locus,
)
from froblocus.criterion import degree_generation_ideal, frobenius_colon
from helpers import (
    context,
    exhaustive_complexes,
    face,
    face_prime,
    ideal_of,
    random_complex,
    random_squarefree_ideal,
)

# Dedekind-number bookkeeping: antichain counts per vertex count
EXPECTED_CORPUS_SIZES = {1: 2, 2: 5, 3: 19, 4: 167, 5: 7580}


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: PASS — {name}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    pairs = exhaustive_complexes(5)
    sizes: dict[int, int] = {}
    for ctx, _ in pairs:
        sizes[ctx.n] = sizes.get(ctx.n, 0) + 1
    assert sizes == EXPECTED_CORPUS_SIZES
    rng = random.Random(20240)
    for _ in range(500):
        n = rng.choice((6, 7))
        pairs.append((context(n), random_complex(rng, n)))
    return pairs


@pytest.fixture(scope="module")
def corpus_with_ideals(corpus):
    out = []
    for ctx, delta in corpus:
        ideal = delta.to_ideal(ctx)
        if ideal.is_unit:
            continue
        out.append((ctx, delta, ideal))
    return out


def test_criterion_1_golden_example_one():
    ctx = RingContext(("x", "y", "z", "w", "a", "b"))
    ideal = ctx.ideal(
        [
            ctx.squarefree(s)
            for s in ((0, 3), (1, 3), (0, 4), (1, 4), (2, 5), (3, 5), (4, 5))
        ]
    )
    start = time.perf_counter()
    result = non_fg_locus(ideal, method="both")
    elapsed = time.perf_counter() - start
    expected = ctx.ideal([ctx.squarefree([i]) for i in (0, 1, 3, 4, 5)])
    assert result.defining_ideal == expected
    assert str(result.defining_ideal) == "(x, y, w, a, b)"
    assert elapsed < 1.0
    _report(1, "golden example one", f"{elapsed:.3f}s, both methods")


def test_criterion_2_golden_example_two():
    ctx = context(5)
    delta = SimplicialComplex(5, [face(1, 2, 5), face(1, 3, 5), face(1, 2, 4)])
    start = time.perf_counter()
    ideal = delta.to_ideal(ctx)
    result = non_fg_locus(ideal, method="both")
    elapsed = time.perf_counter() - start
    assert ideal == ideal_of(ctx, (2, 3), (3, 4), (4, 5))
    assert result.defining_ideal == ideal_of(ctx, (2,), (3,), (4,), (5,))
    assert elapsed < 1.0
    _report(2, "golden example two", f"{elapsed:.3f}s")


def test_criterion_3_golden_example_three():
    ctx = context(3)
    ideal = ideal_of(ctx, (1, 2), (2, 3))
    result = non_fg_locus(ideal, method="both")
    assert result.defining_ideal == ideal_of(ctx, (1,), (2,), (3,))
    assert is_nci(ideal)
    shortcut = nci_locus(ideal)
    assert shortcut.defining_ideal == result.defining_ideal
    assert shortcut.faces == result.faces
    _report(3, "golden example three with the nearly-complete shortcut")


def test_criterion_4_golden_example_four():
    ctx = context(4)
    ideal = ideal_of(ctx, (1, 2, 3), (3, 4))
    result = non_fg_locus(ideal, method="both")
    assert result.defining_ideal == ideal_of(ctx, (1, 2), (3,), (4,))
    _report(4, "golden example four")


@pytest.fixture(scope="module")
def algebraic_loci(corpus_with_ideals):
    """locus_algebraic of every corpus complex with a nonzero ideal, computed
    once for criteria 5 and 8, with the seconds it took."""
    start = time.perf_counter()
    loci = [
        None if ideal.is_zero else locus_algebraic(delta)
        for ctx, delta, ideal in corpus_with_ideals
    ]
    return loci, time.perf_counter() - start


def test_criterion_5_method_agreement(corpus_with_ideals, algebraic_loci):
    loci, algebraic_elapsed = algebraic_loci
    start = time.perf_counter()
    checked = 0
    for (ctx, delta, ideal), algebraic in zip(corpus_with_ideals, loci):
        if ideal.is_zero:
            assert locus_combinatorial(delta).empty
            checked += 1
            continue
        combinatorial = locus_combinatorial(delta)
        assert algebraic.faces == combinatorial.faces, (
            f"method disagreement on {delta!r}"
        )
        checked += 1
    elapsed = algebraic_elapsed + time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _report(5, "method agreement", f"{checked} complexes in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def face_colons(corpus_with_ideals):
    """(context, complex, ideal, face, (I : x_F)) for every face of every
    corpus complex with a proper ideal, each colon formed once for criteria
    6 and 7.  The 154k faces have only 8.3k distinct colons, so equal ones
    share one object."""
    shared = {}
    out = []
    for ctx, delta, ideal in corpus_with_ideals:
        for f in delta.faces():
            colon = ideal.colon(ctx.squarefree(f))
            out.append((ctx, delta, ideal, f, shared.setdefault(colon, colon)))
    return out


def test_criterion_6_link_colon_identity(face_colons):
    for ctx, delta, _, f, colon in face_colons:
        assert delta.link(f).to_ideal(ctx) == colon
    _report(6, "link-colon identity", f"{len(face_colons)} faces")


def test_criterion_7_sandwich(face_colons):
    for ctx, _, ideal, f, colon in face_colons:
        assert ideal + colon == colon
        prime = face_prime(f, ctx)
        assert colon + prime == prime
    _report(7, "colon-containment sandwich", f"{len(face_colons)} faces")


def test_criterion_8_downward_closure(corpus_with_ideals, algebraic_loci):
    loci, _ = algebraic_loci
    checked = 0
    for (_, _, ideal), result in zip(corpus_with_ideals, loci):
        if ideal.is_zero:
            continue
        members = set(result.faces)
        for f in members:
            for v in f:
                assert f - {v} in members
        checked += 1
    _report(8, "downward closure of every computed locus", f"{checked} loci")


@pytest.fixture(scope="module")
def oracle_runs():
    rng = random.Random(77001)
    ideals = []
    while len(ideals) < 200:
        n = rng.randint(2, 6)
        ideal = random_squarefree_ideal(rng, context(n))
        if ideal.is_unit or ideal.is_zero:
            continue
        ideals.append(ideal)
    runs = []
    start = time.perf_counter()
    for ideal in ideals:
        expected = is_finitely_generated(ideal)
        for p in (2, 3):
            for e in (2, 3):
                colon = frobenius_colon(ideal, p, e)
                generated = degree_generation_ideal(ideal, p, e)
                vanishes = colon == generated + ideal.bracket(p**e)
                runs.append((ideal, p, e, expected, vanishes, colon, generated))
    elapsed = time.perf_counter() - start
    return runs, elapsed, len(ideals)


def test_criterion_9_oracle_agreement(oracle_runs):
    runs, elapsed, count = oracle_runs
    for ideal, p, e, expected, vanishes, _, _ in runs:
        assert vanishes == expected, (
            f"oracle disagreement: ideal {ideal}, p={p}, e={e}, "
            f"criterion={expected}, oracle={vanishes}"
        )
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    _report(9, "criterion agrees with the degree-wise oracle",
            f"{count} ideals, chars 2 and 3, degrees 2 and 3, {elapsed:.1f}s")


def test_criterion_10_generated_part_contained(oracle_runs):
    runs, _, _ = oracle_runs
    for ideal, p, e, _, _, colon, generated in runs:
        assert generated + colon == colon, (
            f"containment failure: ideal {ideal}, p={p}, e={e}"
        )
    _report(10, "generated part contained in the colon", f"{len(runs)} runs")


def test_criterion_11_nci_locus_shape():
    rng = random.Random(55002)
    found = 0
    for _ in range(600):
        n = rng.randint(2, 6)
        ctx = context(n)
        gens = [
            ctx.squarefree(rng.sample(range(n), rng.randint(2, n)))
            for _ in range(rng.randint(2, 4))
        ]
        ideal = ctx.ideal(gens)
        if any(sum(g.exponents) < 2 for g in ideal.generators):
            continue
        if not is_nci(ideal):
            continue
        found += 1
        result = locus_algebraic(ideal)
        if not result.empty:
            support = {i for g in ideal.generators for i, x in enumerate(g.exponents) if x}
            expected = ctx.ideal([ctx.squarefree([i]) for i in sorted(support)])
            assert result.defining_ideal == expected, f"NCI shape failure at {ideal}"
        shortcut = nci_locus(ideal)
        assert shortcut.faces == result.faces
        assert shortcut.defining_ideal == result.defining_ideal
    assert found >= 20, f"only {found} nearly complete intersections found"
    _report(11, "nearly-complete-intersection locus shape", f"{found} instances")


def test_criterion_12_round_trip(corpus_with_ideals):
    checked = 0
    for ctx, delta, ideal in corpus_with_ideals:
        assert SimplicialComplex.from_ideal(ideal) == delta
        assert delta.to_ideal(ctx) == ideal
        checked += 1
    _report(12, "correspondence round trip", f"{checked} complexes")
