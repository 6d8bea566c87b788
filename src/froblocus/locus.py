"""The closed locus where finite generation fails.

For a proper squarefree ideal the primes at which the attached algebra is
not finitely generated form a Zariski-closed set cut out by an intersection
of face primes: a face F belongs to the locus exactly when the colon ideal
(I : x_F) fails the degree-two criterion.  Two independent routes compute
the same face set:

* algebraic -- run the criterion on (I : x_F);
* combinatorial -- F contributes exactly when the core of link(F) (the link
  with its cone vertices removed) has a free face.

Both tests depend on F only through the set S(F) of facets containing F:
(I : x_F) is the intersection of the facet primes over S(F), and
core(link F) = link(cl F) with cl(F) the intersection of S(F).  So each
route tests only the closed faces (intersections of facets), largest first,
skipping any closed face inside one already accepted; the accepted closed
faces are exactly the maximal faces of the locus, and the face set is their
downward closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .criterion import _criterion
from .monomials import Monomial, MonomialIdeal, RingContext
from .parsing import ProblemInput
from .simplicial import (
    Face,
    SimplicialComplex,
    face_key,
    face_monomial,
    face_prime,
    format_face,
)

METHODS = ("algebraic", "combinatorial", "both")


class MethodDisagreementError(RuntimeError):
    """The algebraic and combinatorial routes produced different face sets."""


@dataclass(frozen=True)
class Witness:
    """Why a face was accepted into the locus.

    kind is one of ``colon_generator`` (a generator of (K^[2]:K) outside
    K^[2] + (lcm)), ``free_face`` (a free face of the core of the link), or
    ``implied_by`` (a non-maximal face, naming its maximal superface that
    is largest by ``face_key``; membership is closed under taking subfaces).
    """

    kind: str
    monomial: Monomial | None = None
    face: Face | None = None


@dataclass
class LocusResult:
    """Faces of the non-finitely-generated locus and its defining ideal.

    ``faces`` is downward closed and canonically ordered; ``maximal_faces``
    are the inclusion-maximal members, whose face primes intersect to
    ``defining_ideal``.  An empty locus is encoded by the unit ideal.
    """

    faces: tuple[Face, ...]
    maximal_faces: tuple[Face, ...]
    defining_ideal: MonomialIdeal
    method: str
    witnesses: dict[Face, tuple[Witness, ...]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.faces


def _empty_result(context: RingContext, method: str) -> LocusResult:
    return LocusResult((), (), context.unit_ideal(), method, {})


def _closed_faces(delta: SimplicialComplex) -> set[Face]:
    """Every intersection of a nonempty set of facets."""
    closed: set[Face] = set()
    for h in delta.facets:
        closed |= {h & c for c in closed}
        closed.add(h)
    return closed


def _maximal_locus_faces(delta: SimplicialComplex, test) -> dict[Face, Witness]:
    """The maximal faces accepted by ``test``, with their witnesses.

    ``test`` must depend on a face only through the facets containing it,
    so that a maximal accepted face is closed.  Closed faces are tried
    largest first; one inside an accepted face is not maximal.
    """
    accepted: dict[Face, Witness] = {}
    for f in sorted(_closed_faces(delta), key=face_key, reverse=True):
        if any(f < g for g in accepted):
            continue
        witness = test(f)
        if witness is not None:
            accepted[f] = witness
    return accepted


def _assemble(
    context: RingContext, maximal: dict[Face, Witness], method: str
) -> LocusResult:
    """Build the result from the maximal locus faces and their witnesses.

    Every other face is a subface of some maximal face and is witnessed by
    the one that is largest by ``face_key``.
    """
    if not maximal:
        return _empty_result(context, method)
    found: dict[Face, tuple[Witness, ...]] = {}
    for m in sorted(maximal, key=face_key, reverse=True):
        found[m] = (maximal[m],)
        implied = (Witness("implied_by", face=m),)
        for f in _subsets(m):
            found.setdefault(f, implied)
    faces = tuple(sorted(found, key=face_key))
    maximal_faces = tuple(sorted(maximal, key=face_key))
    defining = face_prime(maximal_faces[0], context)
    for f in maximal_faces[1:]:
        defining = defining.intersection(face_prime(f, context))
    witnesses = {f: found[f] for f in faces}
    return LocusResult(faces, maximal_faces, defining, method, witnesses)


def locus_algebraic(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    context: RingContext | None = None,
) -> LocusResult:
    """Compute the locus by running the colon criterion on the closed faces."""
    problem = ProblemInput.of(source, context)
    context = problem.context
    if problem.is_zero:
        return _empty_result(context, "algebraic")
    ideal = problem.ideal

    def test(f: Face) -> Witness | None:
        colon = ideal.colon(face_monomial(f, context))
        verdict, offender = _criterion(colon)
        if verdict:
            return None
        return Witness("colon_generator", monomial=offender)

    return _assemble(context, _maximal_locus_faces(problem.complex, test), "algebraic")


def locus_combinatorial(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    context: RingContext | None = None,
) -> LocusResult:
    """Compute the locus by looking for free faces in cores of links."""
    problem = ProblemInput.of(source, context)
    if problem.is_zero:
        return _empty_result(problem.context, "combinatorial")
    delta = problem.complex

    def test(f: Face) -> Witness | None:
        core = delta.link(f).core()
        free = core.free_faces()
        if not free:
            return None
        return Witness("free_face", face=free[0])

    return _assemble(
        problem.context, _maximal_locus_faces(delta, test), "combinatorial"
    )


def non_fg_locus(
    source: MonomialIdeal | SimplicialComplex | ProblemInput,
    *,
    context: RingContext | None = None,
    method: str = "both",
) -> LocusResult:
    """Dispatch to one or both routes; with both, cross-check them.

    Accepts an ideal, a complex or a problem.  A disagreement between the
    two routes is an internal invariant violation and raises
    MethodDisagreementError.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    problem = ProblemInput.of(source, context)
    if method == "algebraic":
        return locus_algebraic(problem)
    if method == "combinatorial":
        return locus_combinatorial(problem)

    algebraic = locus_algebraic(problem)
    combinatorial = locus_combinatorial(problem)
    if algebraic.faces != combinatorial.faces:
        only_a = [format_face(f) for f in algebraic.faces if f not in combinatorial.faces]
        only_c = [format_face(f) for f in combinatorial.faces if f not in algebraic.faces]
        raise MethodDisagreementError(
            "algebraic and combinatorial loci differ: "
            f"only algebraic {only_a}, only combinatorial {only_c}"
        )
    if algebraic.defining_ideal != combinatorial.defining_ideal:
        raise MethodDisagreementError(
            "algebraic and combinatorial defining ideals differ: "
            f"{algebraic.defining_ideal} against {combinatorial.defining_ideal}"
        )
    # a maximal face carries both routes' witnesses; every other face the
    # implied_by witness that both derive from the same maximal faces
    maximal = set(algebraic.maximal_faces)
    witnesses = {
        f: w + combinatorial.witnesses[f] if f in maximal else w
        for f, w in algebraic.witnesses.items()
    }
    return LocusResult(
        algebraic.faces,
        algebraic.maximal_faces,
        algebraic.defining_ideal,
        "both",
        witnesses,
    )


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
        return _empty_result(context, "nci")
    base = frozenset(range(context.n)) - ideal.support()
    return _assemble(
        context, {base: Witness("colon_generator", monomial=offender)}, "nci"
    )


def _subsets(vertices: frozenset[int]) -> list[Face]:
    out: list[Face] = [frozenset()]
    for v in sorted(vertices):
        out += [f | {v} for f in out]
    return out
