"""The closed locus where finite generation fails.

For a proper squarefree ideal the primes at which the attached algebra is
not finitely generated form a Zariski-closed set cut out by an intersection
of face primes: a face F belongs to the locus exactly when the colon ideal
(I : x_F) fails the degree-two criterion.  The locus is therefore a
simplicial complex, determined by its maximal faces; its defining ideal J is
the intersection of their face primes.  Both routes read the complex of I on
all n vertices (``ProblemInput`` guarantees it), where F is in the locus
exactly when link(cl F) has a free face; cl F is the intersection of the
facets S(F) containing F (the core of link F).

A *free ridge* is a set h - v, for a facet h and v in h, that lies in no
other facet.  link(cl F), with facets h - cl F for h in S(F), has a free face
exactly when it has a free ridge (grow the face inside its only facet), and
(h - cl F) - v is one exactly when h - v is a free ridge with v outside cl F,
that is, with v in h - g for some g in S(F).  So every maximal locus face is
a meet h & g of two facets; both routes test only these meets, largest
first, skipping any inside one already accepted.  The algebraic route runs
the criterion on (I : x_F); the combinatorial one searches link F (a meet is
its own closure: cl F lies in h & g = F) for its smallest free face, only in
the facets with a free ridge, found in O(k^2 n) for k facets: h - v lies in g
exactly when h - g = {v}.  The zero ideal's full simplex has one facet and
no meet, so its locus is empty.  A ``LocusResult`` stores only the maximal
faces, with their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .criterion import _criterion
from .monomials import (
    Monomial,
    MonomialIdeal,
    RingContext,
    minimal_masks,
    minimal_transversals,
    support_masks,
)
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
class LocusResult:
    """The non-finitely-generated locus, stored as its maximal faces.

    ``maximal`` maps each maximal face F of the locus to the witnesses of
    the route(s) that accepted it: first the colon generator ``Monomial``
    (algebraic), then the smallest free ``Face`` of link F (combinatorial).
    Only maximal faces carry witnesses, as membership is closed under taking
    subfaces; an empty mapping is the empty locus.  The other fields are
    read-only views derived on first use: ``faces`` (the downward closure,
    canonically ordered), ``maximal_faces`` (canonically ordered) and
    ``defining_ideal`` (the intersection of the maximal faces' primes; the
    unit ideal for an empty locus).
    """

    context: RingContext
    maximal: dict[Face, tuple[Monomial | Face, ...]]
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


def _maximal_locus_faces(
    delta: SimplicialComplex, test
) -> dict[Face, tuple[Monomial | Face, ...]]:
    """The maximal faces accepted by ``test`` (a locus membership test), with
    their witnesses: meets of two facets, largest first, skipping any meet
    inside an accepted face."""
    meets = {h & g for h, g in combinations(delta.facets, 2)}
    accepted: dict[Face, tuple[Monomial | Face, ...]] = {}
    for f in sorted(meets, key=face_key, reverse=True):
        if any(f < g for g in accepted):
            continue
        witness = test(f)
        if witness is not None:
            accepted[f] = (witness,)
    return accepted


def _smallest_free_face(holders: list[Face], face: Face) -> Face | None:
    """The smallest free face by ``face_key`` of link F (a meet is its own
    closure), for the facets S(F) = ``holders``; None when it has none.

    f inside h - F lies in no other link facet exactly when it meets each
    gap h - g (g in S(F), g != h), and is free unless it is all of h - F;
    so a smallest free face is a minimal transversal t of some h's gaps with
    fewer vertices than h - F.  Such a t shows a free ridge: every gap lies in
    h - F, so t misses some v in h - F.  Then h - v contains t, so it meets
    every gap and lies in no other facet of S(F); it contains F, so it lies in
    no facet outside S(F) either.  So the search skips every h with no free
    ridge h - v, v outside F: each such v is the whole gap h - g of some g.
    """
    free = [
        frozenset(v for v in h if t >> v & 1)
        for h in holders
        if h - face - {v for g in holders if len(h - g) == 1 for v in h - g}
        for t in minimal_transversals(face_mask(h - g) for g in holders if g != h)
        if t.bit_count() < len(h - face)
    ]
    return min(free, key=face_key, default=None)


def locus_algebraic(source: MonomialIdeal | SimplicialComplex | ProblemInput) -> LocusResult:
    """Compute the locus by running the colon criterion on the facet meets."""
    problem = ProblemInput.of(source)
    context = problem.context
    ideal = problem.ideal

    def test(f: Face) -> Monomial | None:
        return _criterion(ideal.colon(face_monomial(f, context)))

    return LocusResult(context, _maximal_locus_faces(problem.complex, test), "algebraic")


def locus_combinatorial(source: MonomialIdeal | SimplicialComplex | ProblemInput) -> LocusResult:
    """Compute the locus by searching the facet meets' links for free faces."""
    problem = ProblemInput.of(source)
    delta = problem.complex

    def test(f: Face) -> Face | None:
        return _smallest_free_face([h for h in delta.facets if f <= h], f)

    return LocusResult(problem.context, _maximal_locus_faces(delta, test), "combinatorial")


def non_fg_locus(
    source: MonomialIdeal | SimplicialComplex | ProblemInput, *, method: str = "both"
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
    problem = ProblemInput.of(source)
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


def _pairwise_disjoint(masks: list[int]) -> bool:
    """No two masks share a bit: their popcounts add up to their union's."""
    return sum(map(int.bit_count, masks)) == reduce(or_, masks, 0).bit_count()


def is_nci(ideal: MonomialIdeal) -> bool:
    """Nearly-complete-intersection test, on the generator support masks.

    True iff the ideal is squarefree, every support has at least two
    vertices (degree at least two), the supports are not pairwise disjoint
    (not a complete intersection), and for each support vertex i the
    minimal supports with i removed are pairwise disjoint: setting x_i to 1
    leaves a complete intersection.
    """
    if not ideal.is_squarefree:
        raise ValueError("nearly-complete-intersection test requires squarefree input")
    supports = support_masks(ideal)
    if not supports or min(map(int.bit_count, supports)) < 2 or _pairwise_disjoint(supports):
        return False
    union = reduce(or_, supports)
    return all(
        _pairwise_disjoint(minimal_masks(m & ~(1 << i) for m in supports))
        for i in range(union.bit_length())
        if union >> i & 1
    )


def nci_locus(ideal: MonomialIdeal) -> LocusResult:
    """Shortcut locus for nearly complete intersections.

    Either empty, or cut out by the prime of the support variables; the
    face set is then the full power set of the non-support vertices.
    """
    if not is_nci(ideal):
        raise ValueError("ideal is not a nearly complete intersection")
    context = ideal.context
    offender = _criterion(ideal)
    if offender is None:
        return LocusResult(context, {}, "nci")
    union = reduce(or_, support_masks(ideal))
    base = frozenset(i for i in range(context.n) if not union >> i & 1)
    return LocusResult(context, {base: (offender,)}, "nci")
