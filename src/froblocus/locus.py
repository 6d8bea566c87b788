"""The closed locus where finite generation fails.

For a proper squarefree ideal the primes at which the attached algebra is
not finitely generated form a Zariski-closed set cut out by an intersection
of face primes: a face F belongs to the locus exactly when the colon ideal
(I : x_F) fails the degree-two criterion.  The locus is therefore a
simplicial complex, determined by its maximal faces; its defining ideal J is
the intersection of their face primes.  Two independent routes compute those
maximal faces: the algebraic one runs the criterion on (I : x_F); the
combinatorial one asks whether link(cl F) has a free face, where cl F is the
intersection of the facets S(F) containing F (the core of link F).

A *free ridge* is a set h - v, for a facet h and v in h, that lies in no
other facet.  link(cl F), with facets h - cl F for h in S(F), has a free face
exactly when it has a free ridge (grow the face inside its only facet), and
(h - cl F) - v is one exactly when h - v is a free ridge with v outside cl F,
that is, with v in h - g for some g in S(F).  So every maximal locus face is
a meet h & g of two facets; both routes test only these meets, largest
first, skipping any inside one already accepted.  The combinatorial test is
O(k^2 n) for k facets: h - v lies in g exactly when h - g = {v}.  A
``LocusResult`` stores only the maximal faces, with their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .criterion import _criterion
from .monomials import Monomial, MonomialIdeal, RingContext, minimal_transversals
from .parsing import ProblemInput
from .simplicial import (
    Face,
    SimplicialComplex,
    face_key,
    face_mask,
    face_monomial,
    format_face,
    nonface_ideal,
)

METHODS = ("algebraic", "combinatorial", "both")


class MethodDisagreementError(RuntimeError):
    """The algebraic and combinatorial routes found different maximal faces."""


@dataclass(frozen=True)
class Witness:
    """Why a face was accepted into the locus.

    kind is one of ``colon_generator`` (a generator of (K^[2]:K) outside
    K^[2] + (lcm)), ``free_face`` (the smallest free face of link(cl F)), or
    ``implied_by`` (a non-maximal face, naming its maximal superface that
    is largest by ``face_key``; membership is closed under taking subfaces).
    """

    kind: str
    monomial: Monomial | None = None
    face: Face | None = None


@dataclass(frozen=True)
class LocusResult:
    """The non-finitely-generated locus, stored as its maximal faces.

    ``maximal`` maps each maximal face of the locus to the witnesses of the
    route(s) that accepted it; an empty mapping is the empty locus.  The
    other fields are read-only views derived on first use: ``faces`` (the
    downward closure, canonically ordered), ``maximal_faces`` (canonically
    ordered), ``defining_ideal`` (the intersection of the maximal faces'
    primes; the unit ideal for an empty locus) and ``witnesses`` (a maximal
    face's own witnesses; every other face is ``implied_by`` its maximal
    superface largest by ``face_key``).
    """

    context: RingContext
    maximal: dict[Face, tuple[Witness, ...]]
    method: str

    @property
    def empty(self) -> bool:
        return not self.maximal

    @cached_property
    def maximal_faces(self) -> tuple[Face, ...]:
        return tuple(sorted(self.maximal, key=face_key))

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return SimplicialComplex(self.context.n, self.maximal).faces()

    @cached_property
    def defining_ideal(self) -> MonomialIdeal:
        return nonface_ideal(self.context, self.maximal, range(self.context.n))

    @cached_property
    def witnesses(self) -> dict[Face, tuple[Witness, ...]]:
        largest_first = self.maximal_faces[::-1]
        out: dict[Face, tuple[Witness, ...]] = {}
        for f in self.faces:
            if f in self.maximal:
                out[f] = self.maximal[f]
            else:
                g = next(g for g in largest_first if f < g)
                out[f] = (Witness("implied_by", face=g),)
        return out


def _maximal_locus_faces(
    delta: SimplicialComplex, test
) -> dict[Face, tuple[Witness, ...]]:
    """The maximal faces accepted by ``test`` (a locus membership test), with
    their witnesses: meets of two facets, largest first, skipping any meet
    inside an accepted face."""
    meets = {h & g for h, g in combinations(delta.facets, 2)}
    accepted: dict[Face, tuple[Witness, ...]] = {}
    for f in sorted(meets, key=face_key, reverse=True):
        if any(f < g for g in accepted):
            continue
        witness = test(f)
        if witness is not None:
            accepted[f] = (witness,)
    return accepted


def _ridge_vertices(h: Face, holders: list[Face], closure: Face) -> Face:
    """The v in h - cl F for which h - v is a free ridge, for h in S(F):
    those that are not the whole gap h - g of any g in S(F)."""
    return h - closure - {v for g in holders if len(h - g) == 1 for v in h - g}


def _smallest_free_face(holders: list[Face], closure: Face) -> Face:
    """The smallest free face of link(cl F) by ``face_key``, for S(F) and cl F.

    f inside h - cl F lies in no other link facet exactly when it meets each
    gap h - g (g in S(F), g != h), and is free unless it is all of h - cl F;
    so a smallest free face is a minimal transversal of some h's gaps.
    Only facets with a free ridge h - v, v outside cl F, give one.  Every
    gap lies in h - cl F, so a transversal t of h's gaps with fewer vertices
    than h - cl F misses some v in h - cl F.  Then h - v contains t, so it
    meets every gap and lies in no other facet of S(F); it contains F, so it
    lies in no facet outside S(F) either: h - v is a free ridge.
    """
    free = [
        frozenset(v for v in h if t >> v & 1)
        for h in holders
        if _ridge_vertices(h, holders, closure)
        for t in minimal_transversals(face_mask(h - g) for g in holders if g != h)
        if t.bit_count() < len(h - closure)
    ]
    if not free:
        raise RuntimeError(f"no free face in the link of {format_face(closure)}")
    return min(free, key=face_key)


def locus_algebraic(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    context: RingContext | None = None,
) -> LocusResult:
    """Compute the locus by running the colon criterion on the facet meets."""
    problem = ProblemInput.of(source, context)
    context = problem.context
    if problem.is_zero:
        return LocusResult(context, {}, "algebraic")
    ideal = problem.ideal

    def test(f: Face) -> Witness | None:
        colon = ideal.colon(face_monomial(f, context))
        verdict, offender = _criterion(colon)
        if verdict:
            return None
        return Witness("colon_generator", monomial=offender)

    return LocusResult(context, _maximal_locus_faces(problem.complex, test), "algebraic")


def locus_combinatorial(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    context: RingContext | None = None,
) -> LocusResult:
    """Compute the locus by looking for free ridges among the facets."""
    problem = ProblemInput.of(source, context)
    if problem.is_zero:
        return LocusResult(problem.context, {}, "combinatorial")
    delta = problem.complex

    def test(f: Face) -> Witness | None:
        holders = [h for h in delta.facets if f <= h]
        closure = frozenset.intersection(*holders)
        if not any(_ridge_vertices(h, holders, closure) for h in holders):
            return None
        return Witness("free_face", face=_smallest_free_face(holders, closure))

    return LocusResult(problem.context, _maximal_locus_faces(delta, test), "combinatorial")


def non_fg_locus(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    *,
    context: RingContext | None = None,
    method: str = "both",
) -> LocusResult:
    """Dispatch to one or both routes; with both, cross-check them.

    Accepts an ideal, a complex or a problem.  With both routes, the two
    sets of maximal faces must be equal (the face list and J follow from
    them); a disagreement is an internal invariant violation and raises
    MethodDisagreementError.  Each maximal face then carries the algebraic
    witness followed by the combinatorial one.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    problem = ProblemInput.of(source, context)
    if method == "algebraic":
        return locus_algebraic(problem)
    if method == "combinatorial":
        return locus_combinatorial(problem)

    algebraic = locus_algebraic(problem).maximal
    combinatorial = locus_combinatorial(problem).maximal
    if algebraic.keys() != combinatorial.keys():
        only_a = sorted(algebraic.keys() - combinatorial.keys(), key=face_key)
        only_c = sorted(combinatorial.keys() - algebraic.keys(), key=face_key)
        raise MethodDisagreementError(
            "algebraic and combinatorial loci differ in their maximal faces: "
            f"only algebraic {[format_face(f) for f in only_a]}, "
            f"only combinatorial {[format_face(f) for f in only_c]}"
        )
    merged = {f: w + combinatorial[f] for f, w in algebraic.items()}
    return LocusResult(problem.context, merged, "both")


def is_nci(ideal: MonomialIdeal) -> bool:
    """Nearly-complete-intersection test.

    True iff the ideal is squarefree, generated in degree at least two, not
    itself a complete intersection, and setting any single support variable
    to 1 (after discarding the non-support variables) leaves a complete
    intersection.
    """
    if not ideal.is_squarefree:
        raise ValueError("nearly-complete-intersection test requires squarefree input")
    if ideal.is_zero or ideal.is_unit:
        return False
    if any(g.degree < 2 for g in ideal.generators):
        return False
    if ideal.is_complete_intersection():
        return False
    support = ideal.support()
    outside = frozenset(range(ideal.context.n)) - support
    for i in sorted(support):
        if not ideal.localize(outside | {i}).is_complete_intersection():
            return False
    return True


def nci_locus(ideal: MonomialIdeal) -> LocusResult:
    """Shortcut locus for nearly complete intersections.

    Either empty, or cut out by the prime of the support variables; the
    face set is then the full power set of the non-support vertices.
    """
    if not is_nci(ideal):
        raise ValueError("ideal is not a nearly complete intersection")
    context = ideal.context
    verdict, offender = _criterion(ideal)
    if verdict:
        return LocusResult(context, {}, "nci")
    base = frozenset(range(context.n)) - ideal.support()
    return LocusResult(
        context, {base: (Witness("colon_generator", monomial=offender),)}, "nci"
    )
