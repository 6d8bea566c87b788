"""Shared corpus builders and samplers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from froblocus import (
    MonomialIdeal,
    RingContext,
    SimplicialComplex,
    face_key,
    face_monomial,
    face_prime,
)
from froblocus.criterion import frobenius_colon


def context(n: int) -> RingContext:
    return RingContext(tuple(f"x{i}" for i in range(1, n + 1)))


def mono(ctx: RingContext, *exps: int):
    return ctx.monomial(exps)


def sq(ctx: RingContext, *vertices: int):
    """Squarefree monomial from 1-based vertex labels."""
    return ctx.squarefree(v - 1 for v in vertices)


def ideal_of(ctx: RingContext, *supports: tuple[int, ...]) -> MonomialIdeal:
    """Squarefree ideal from 1-based support tuples."""
    return ctx.ideal([sq(ctx, *s) for s in supports])


def face(*vertices: int) -> frozenset[int]:
    """Face from 1-based vertex labels."""
    return frozenset(v - 1 for v in vertices)


def all_antichains(n: int) -> list[list[frozenset[int]]]:
    """Every nonempty antichain of nonempty subsets of range(n), plus the
    irrelevant complex.  Counts follow the Dedekind numbers."""
    subs = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    out: list[list[frozenset[int]]] = []

    def rec(i: int, chosen: list[frozenset[int]]) -> None:
        if chosen:
            out.append(list(chosen))
        for j in range(i, len(subs)):
            s = subs[j]
            if all(not (s <= t or t <= s) for t in chosen):
                chosen.append(s)
                rec(j + 1, chosen)
                chosen.pop()

    rec(0, [])
    out.append([frozenset()])
    return out


def exhaustive_complexes(max_n: int) -> list[tuple[RingContext, SimplicialComplex]]:
    pairs = []
    for n in range(1, max_n + 1):
        ctx = context(n)
        for facets in all_antichains(n):
            pairs.append((ctx, SimplicialComplex(n, facets)))
    return pairs


def random_complex(rng: random.Random, n: int) -> SimplicialComplex:
    k = rng.randint(1, 6)
    facets = [
        frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(k)
    ]
    return SimplicialComplex(n, facets)


def random_squarefree_ideal(
    rng: random.Random, ctx: RingContext, max_gens: int = 6
) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        size = rng.randint(1, ctx.n)
        gens.append(ctx.squarefree(rng.sample(range(ctx.n), size)))
    return ctx.ideal(gens)


def brute_force_transversals(edges: list[int], n: int) -> list[int]:
    """Every subset of range(n) that meets every edge, keeping the minimal
    ones, sorted by size and then by value: the reference for
    ``minimal_transversals``.  Hitting every edge is closed under supersets,
    so a hitting set is minimal when dropping any one vertex loses it."""
    hitting = {s for s in range(1 << n) if all(s & e for e in edges)}
    minimal = [
        s for s in hitting
        if not any(s >> i & 1 and s & ~(1 << i) in hitting for i in range(n))
    ]
    return sorted(minimal, key=lambda s: (s.bit_count(), s))


def _compositions(total: int) -> list[tuple[int, ...]]:
    """Ordered ways to write total as a sum of >= 2 positive parts."""
    def parts(t: int) -> list[tuple[int, ...]]:
        if t == 0:
            return [()]
        return [(a, *rest) for a in range(1, t + 1) for rest in parts(t - a)]

    return [c for c in parts(total) if len(c) >= 2]


@lru_cache(maxsize=1 << 10)
def _composition_product(ideal: MonomialIdeal, p: int, parts: tuple[int, ...]) -> MonomialIdeal:
    """C_{a_1} * C_{a_2}^[p^{a_1}] * ... for parts (a_1, a_2, ...), with
    C_a = (I^[p^a] : I); cached so that compositions sharing a prefix, in one
    degree or across degrees, form it once."""
    if len(parts) == 1:
        return frobenius_colon(ideal, p, parts[0])
    *head, last = parts
    twisted = _composition_product(ideal, p, (last,)).bracket(p ** sum(head))
    return _composition_product(ideal, p, tuple(head)) * twisted


def composition_generation_ideal(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """Brute-force generated part of degree e: the sum over every composition
    a_1 + ... + a_s = e (s >= 2) of C_{a_1} * C_{a_2}^[p^{a_1}] * ...
    The reference for degree_generation_ideal."""
    return ideal.context.ideal(
        g
        for parts in _compositions(e)
        for g in _composition_product(ideal, p, parts).generators
    )


def _face_loop(faces, test, prune: bool) -> dict:
    """Accept faces per ``test``, largest first by face_key, each mapped to
    its witness; with pruning, subfaces of accepted faces are accepted
    untested and mapped to None (membership is closed under taking subfaces)."""
    accepted: dict = {}
    for f in sorted(faces, key=face_key, reverse=True):
        if prune and any(f < g for g in accepted):
            accepted[f] = None
            continue
        witness = test(f)
        if witness is not None:
            accepted[f] = witness
    return accepted


def core(delta: SimplicialComplex) -> SimplicialComplex:
    """The complex with its cone vertices (common to all facets) removed."""
    if not delta.facets:
        return delta
    apex = frozenset.intersection(*delta.facets)
    if not apex:
        return delta
    return delta.link(apex)


def reference_criterion(ideal: MonomialIdeal):
    """The degree-two criterion from the whole colon (I^[2] : I) and the
    whole sum I^[2] + (lcm of the generators): None when they are equal,
    else the witness, the first colon generator, in descending lex order,
    that the sum does not contain.  The reference for ``_criterion``."""
    if ideal.is_zero:
        return None
    if ideal.is_unit or not ideal.is_squarefree:
        raise ValueError("criterion needs a proper squarefree ideal")
    ctx = ideal.context
    squares = ideal.bracket(2)
    lcm = ctx.monomial(map(max, zip(*(g.exponents for g in ideal.generators))))
    colon, rhs = squares.colon(ideal), squares + ctx.ideal([lcm])
    if colon == rhs:
        return None
    for g in colon.generators:
        if rhs + ctx.ideal([g]) != rhs:
            return g
    raise AssertionError(f"I^[2] + (lcm) is not inside (I^[2] : I) for {ideal}")


def _is_complete_intersection(vecs: list[tuple[int, ...]]) -> bool:
    """Do the generators have pairwise disjoint supports?"""
    seen: set[int] = set()
    for v in vecs:
        supp = {i for i, x in enumerate(v) if x}
        if supp & seen:
            return False
        seen |= supp
    return True


def _localize(vecs: list[tuple[int, ...]], away: set[int]) -> list[tuple[int, ...]]:
    """Minimal generators once the variables in ``away`` are set to 1."""
    local = {tuple(0 if i in away else x for i, x in enumerate(v)) for v in vecs}
    return [
        v for v in local
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in local)
    ]


def reference_is_nci(ideal: MonomialIdeal) -> bool:
    """The nearly-complete-intersection test on exponent tuples: squarefree,
    every generator of degree at least two, not a complete intersection,
    and a complete intersection once one support variable and every
    variable outside the support are set to 1.  The reference for
    ``is_nci``."""
    if not ideal.is_squarefree:
        raise ValueError("nearly-complete-intersection test requires squarefree input")
    vecs = [g.exponents for g in ideal.generators]
    if not vecs or any(sum(v) < 2 for v in vecs):
        return False
    if _is_complete_intersection(vecs):
        return False
    support = {i for v in vecs for i, x in enumerate(v) if x}
    outside = set(range(ideal.context.n)) - support
    return all(
        _is_complete_intersection(_localize(vecs, outside | {i}))
        for i in sorted(support)
    )


# the n <= 5 corpus asks for 115k criteria of only 2.4k distinct colon ideals
_criterion_of = lru_cache(maxsize=1 << 16)(reference_criterion)


@lru_cache(maxsize=4)
def _route(delta: SimplicialComplex, ctx: RingContext, route: str, prune: bool) -> dict:
    """One route's accepted faces; cached so that the three methods on one
    complex run each route once."""
    if route == "algebraic":
        ideal = delta.to_ideal(ctx)

        def test(f):
            return _criterion_of(ideal.colon(face_monomial(f, ctx)))

    else:

        def test(f):
            free = core(delta.link(f)).free_faces()
            return free[0] if free else None

    return _face_loop(delta.faces(), test, prune)


@dataclass(frozen=True)
class BruteForceLocus:
    """The reference locus, with every field computed on its own."""

    faces: tuple
    maximal_faces: tuple
    defining_ideal: MonomialIdeal
    method: str
    witnesses: dict


def brute_force_locus(
    delta: SimplicialComplex, ctx: RingContext, method: str, *, prune: bool = True
) -> BruteForceLocus:
    """Reference locus that tries every face of the complex.

    ``witnesses`` maps each tested locus face to its routes' witnesses.  With
    ``prune`` only the maximal faces are tested, so it matches
    ``LocusResult.maximal`` exactly; without it every face is tested.
    Independent of froblocus.locus: J is the intersection of the primes of
    every locus face, not only of the maximal ones.
    """
    if delta.facets == (delta.vertices,):  # the full simplex: the zero ideal
        return BruteForceLocus((), (), ctx.unit_ideal(), method, {})
    names = ("algebraic", "combinatorial") if method == "both" else (method,)
    routes = [_route(delta, ctx, name, prune) for name in names]
    if any(set(r) != set(routes[0]) for r in routes):
        raise AssertionError(f"routes disagree on {delta}")
    faces = tuple(sorted(routes[0], key=face_key))
    maximal = tuple(f for f in faces if not any(f < g for g in faces))
    defining = ctx.unit_ideal()
    for f in faces:
        defining = defining.intersection(face_prime(f, ctx))
    witnesses = {
        f: tuple(dict.fromkeys(r[f] for r in routes))
        for f in faces
        if routes[0][f] is not None
    }
    return BruteForceLocus(faces, maximal, defining, method, witnesses)
