"""Finite-generation test and the degree-wise generation oracle.

For a proper squarefree monomial ideal ``I`` with minimal generators
``m_1, ..., m_s``, the prime-characteristic endomorphism algebra attached to
``R/I`` (localized at the ideal of all variables) is finitely generated over
its degree-zero piece exactly when it is generated in degree one, and this
happens exactly when

    (I^{[2]} : I)  ==  I^{[2]} + (lcm(m_1, ..., m_s))

where ``I^{[q]}`` is the ideal of q-th generator powers.  The right-hand
side is always contained in the left (``u^{q-1} * m_j`` is a multiple of
``m_j^q`` whenever ``m_j`` divides ``u``), so the test amounts to checking
the containment of the colon ideal in the sum.  The criterion does not
depend on the characteristic.

The containment is decided without forming the whole colon.  Write R for
the right-hand side.  The colon is the intersection of the
``(I^{[2]} : m_j)``, taken one j at a time, and each intersection is
generated by the lcms of one generator from each side.  R is an ideal, so
an lcm with a factor in R lies in R: a generator in R leads only to
monomials in R.  ``_criterion`` therefore drops the generators in R from
every ``(I^{[2]} : m_j)`` and every partial intersection, and stops when
none is left.  What it keeps are exactly the minimal colon generators
outside R: a divisor of a monomial outside R lies outside R too, so
minimalising only the candidates outside R leaves the same minimal ones
outside R as minimalising all of them.  Membership in R is the level
rule: with ``A = supp w`` and ``B = {i : w_i >= 2}``, the lcm divides w
exactly when the union U of the generator supports lies in A, and
``m_j^2`` exactly when the support of ``m_j`` lies in B; two bitmasks
decide it, not ``s + 1`` divisibility tests.  The criterion holds exactly
when nothing is kept, since R lies in the colon; the witness is the first
kept generator in descending lexicographic order, that is, the first
minimal generator of the colon, in that order, that R does not contain.

The oracle checks the same property degree by degree, from first
principles: writing ``C_e = (I^{[p^e]} : I)``, the degree-e graded piece of
the algebra is ``C_e / I^{[p^e]}``, and the sub-piece generated by lower
degrees is spanned by the composition products

    C_{a_1} * C_{a_2}^{[p^{a_1}]} * C_{a_3}^{[p^{a_1 + a_2}]} * ...

over all ways of writing e as an ordered sum of smaller positive parts.
Degree e contributes no new algebra generators exactly when ``C_e`` equals
those products plus ``I^{[p^e]}``.

Two-part products suffice.  The algebra is graded, so
``C_b * C_c^{[p^b]}`` lies in ``C_{b+c}``, and brackets are multiplicative
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, ch. 5).  A
composition with first part a and rest c_1 + c_2 + ... = e - a therefore
gives ``C_a * (C_{c_1} * C_{c_2}^{[p^{c_1}]} * ...)^{[p^a]}``, and by
induction on the number of parts the factor in brackets lies in
``C_{e-a}``.  Every product thus lies in a two-part product, which is itself
a composition product, so the generated part is exactly

    sum over 0 < a < e of  C_a * C_{e-a}^{[p^a]}:

e - 1 products instead of one per composition (2^(e-1) - 1 of them).
``degreewise_report`` computes each ``C_a`` once for all degrees and
minimalises the products together with ``I^{[p^e]}``, in one pass per degree.

Every ``C_e`` comes from one antichain of level pairs, whatever p and e.
Let ``M_1, ..., M_s`` be the generator supports of ``I`` and ``q >= 2``.
A monomial ``w`` lies in ``(I^{[q]} : m_j)`` exactly when some generator
support G has ``w_i >= q - [i in M_j]`` for all i in G, and so in
``(I^{[q]} : I)`` exactly when this holds for every j.  The condition reads
``w`` only through the level sets ``A = {i : w_i >= q - 1}`` and
``B = {i : w_i >= q}``: it asks for ``G ∩ M_j ⊆ A`` and ``G - M_j ⊆ B``.
So the colon is generated by the monomials with exponent q - 1 on ``A - B``
and q on B, over the minimal pairs (A, B) that pass; these pairs do not
depend on q.  They are found as the colon would be: ``(I^{[q]} : m_j)`` is
generated by the pairs ``(G, G - M_j)``, an lcm is ``(A ∪ A', B ∪ B')``, and
one monomial divides another when ``A ⊆ A'`` and ``B ⊆ B'``.  The map from
levels ``0 < 1 < 2`` to exponents ``0 < q - 1 < q`` is strictly increasing,
so it keeps divisibility, minimality and descending lexicographic order,
and the minimal pairs map to the canonical generators of ``C_e`` for
``q = p^e``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from operator import gt

from .monomials import (
    EXPONENT_LIMIT,
    ExponentLimitError,
    Monomial,
    MonomialIdeal,
    _colon_ideal_raw,
    _minimalize,
    check_exponents,
    minimal_masks,
    support_masks,
)

SUPPORTED_CHARACTERISTICS = (2, 3, 5)


def _characteristic(p: int) -> int:
    """p as an int, refused unless it is a supported characteristic."""
    p = operator.index(p)
    if p not in SUPPORTED_CHARACTERISTICS:
        raise ValueError(f"characteristic must be one of {SUPPORTED_CHARACTERISTICS}")
    return p


@dataclass(frozen=True)
class OracleParams:
    """Bounds of the degree-wise generation oracle: the characteristic p and
    the highest Frobenius degree e_max.  ``degreewise_report`` checks each
    degree ``2 <= e <= e_max`` for new generators, that is, generation in
    degree ``k = 1``, a constant.  The cost follows ``e_max^2 * |L|^2`` for
    the level antichain L of the module docstring, whatever p; the bounds are
    input guards."""

    p: int = 2
    e_max: int = 3
    k = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _characteristic(self.p))
        object.__setattr__(self, "e_max", operator.index(self.e_max))
        if not 2 <= self.e_max <= 4:
            raise ValueError("e_max must be between 2 and 4")


def _in_right_side(ideal: MonomialIdeal):
    """Membership in I^[2] + (lcm) for a squarefree I, by the level rule."""
    n = ideal.context.n
    bits, ones = [1 << i for i in range(n)], (1,) * n
    supports = support_masks(ideal)
    union = sum(compress(bits, map(any, zip(*ideal._vecs))))

    def inside(w: tuple[int, ...]) -> bool:
        if sum(compress(bits, w)) & union == union:
            return True
        missed = ~sum(compress(bits, map(gt, w, ones)))
        return not all(map(missed.__and__, supports))

    return inside


def _criterion(ideal: MonomialIdeal) -> Monomial | None:
    """The degree-two criterion: None when it holds, else its witness, the
    first minimal generator of (I^[2] : I) outside I^[2] + (lcm), in
    descending lex order (see the module docstring)."""
    if ideal.is_zero:
        return None
    if ideal.is_unit:
        raise ValueError("criterion undefined for the unit ideal")
    if not ideal.is_squarefree:
        raise ValueError("criterion requires a squarefree ideal")
    vecs = ideal._vecs
    squares = tuple(tuple(2 * e for e in v) for v in vecs)
    missing = _colon_ideal_raw(squares, vecs, _in_right_side(ideal))
    return Monomial(ideal.context, missing[0]) if missing else None


def is_finitely_generated(ideal: MonomialIdeal) -> bool:
    """Degree-two test: does the algebra of the ideal admit finitely many
    generators (equivalently, is it generated in degree one)?

    The zero ideal passes trivially; the unit ideal is rejected.
    """
    return _criterion(ideal) is None


def criterion_witness(ideal: MonomialIdeal) -> Monomial | None:
    """The first minimal generator of (I^[2] : I), in descending lex order,
    that I^[2] + (lcm) does not contain; None when the criterion holds."""
    return _criterion(ideal)


def _colon_levels(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Level vectors of the minimal generators of every (I^[q] : I), q >= 2.

    Level 1 stands for the exponent q - 1 and level 2 for q (see the module
    docstring); the vectors come in descending lexicographic order.  A level
    pair (A, B) is packed as ``A | B << n``: divisibility is mask inclusion.
    """
    n = ideal.context.n
    supports = support_masks(ideal)
    pairs = [0]
    for m in supports:
        colon_m = minimal_masks(g | (g & ~m) << n for g in supports)
        pairs = minimal_masks(a | g for a in pairs for g in colon_m)
    return tuple(sorted(
        (tuple((w >> i & 1) + (w >> n + i & 1) for i in range(n)) for w in pairs),
        reverse=True,
    ))


def _frobenius_colons(
    ideal: MonomialIdeal, p: int, degrees: range
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Canonical generators of C_e = (I^[p^e] : I) for each e in degrees, from
    one level antichain; every oracle entry point checks its input here."""
    if ideal.is_zero:
        raise ValueError("oracle ideals must be nonzero")
    if ideal.is_unit:
        raise ValueError("oracle ideals must be proper")
    if not ideal.is_squarefree:
        raise ValueError("oracle requires a squarefree ideal")
    p = _characteristic(p)
    if degrees.start < 1:
        raise ValueError("Frobenius degree must be at least 1")
    # C_e is proper, so each generator has an exponent p^e - 1 or p^e; a
    # degree past the limit's bit length is over it at any p >= 2, and its
    # p^e is never computed
    top = degrees[-1]
    if top > EXPONENT_LIMIT.bit_length() or p**top - 1 > EXPONENT_LIMIT:
        raise ExponentLimitError(f"exponent p^e - 1 exceeds limit {EXPONENT_LIMIT}")
    levels = _colon_levels(ideal)
    colons = {}
    for e in degrees:
        # 0 < q - 1 < q keeps divisibility and order: the result is canonical
        step = (0, p**e - 1, p**e)
        colons[e] = tuple(tuple(step[x] for x in v) for v in levels)
    return colons


def frobenius_colon(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """(I^[p^e] : I), the degree-e piece of the algebra before quotienting."""
    colons = _frobenius_colons(ideal, p, range(e, e + 1))
    return MonomialIdeal._from_vecs(ideal.context, colons[e])


def _two_part_sum(
    colons: dict[int, tuple[tuple[int, ...], ...]],
    p: int,
    e: int,
    base: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], ...]:
    """Canonical generators of base + sum over 0 < a < e of C_a * C_{e-a}^[p^a],
    where ``colons[a]`` holds the generators of C_a.  They pass the exponent
    check every ideal passes, skipped when p^(e-1) + p^e, the largest exponent
    a product can reach, is within the limit (base is I^[p^e] or empty)."""
    gens = list(base)
    for a in range(1, e):
        q = p**a
        gens.extend(
            tuple(x + q * y for x, y in zip(u, w))
            for w in colons[e - a]
            for u in colons[a]
        )
    gens = _minimalize(gens)
    if p ** (e - 1) + p**e > EXPONENT_LIMIT:
        check_exponents(gens)
    return gens


def degree_generation_ideal(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """The part of C_e = (I^[p^e] : I) generated by lower degrees.

    That is the sum of C_a * C_{e-a}^[p^a] over 0 < a < e: for e = 2 the
    single product C_1 * C_1^[p], for e = 3 also C_2 * C_1^[p^2].  It equals
    the sum of the twisted products over every composition of e (see the
    module docstring).
    """
    if e < 2:
        raise ValueError("generation ideals start at degree 2")
    colons = _frobenius_colons(ideal, p, range(1, e))
    return MonomialIdeal._from_vecs(ideal.context, _two_part_sum(colons, p, e, ()))


def _degree_verdicts(
    ideal: MonomialIdeal, p: int, degrees: range
) -> tuple[tuple[int, bool], ...]:
    """(e, C_e == I^[p^e] + generated part) for each e in degrees, computing
    each C_a once for all of them."""
    if degrees.start < 2:
        raise ValueError("generation ideals start at degree 2")
    colons = _frobenius_colons(ideal, p, range(1, degrees.stop))
    return tuple(
        (e, colons[e] == _two_part_sum(colons, p, e, ideal.bracket(p**e)._vecs))
        for e in degrees
    )


def new_generators_vanish(ideal: MonomialIdeal, p: int, e: int) -> bool:
    """True iff Frobenius degree e adds no new algebra generators.

    Compares (I^[p^e] : I) with the lower-degree products plus I^[p^e];
    the bracket power is the zero class of the graded piece, so it always
    belongs to the generated part.
    """
    ((_, vanishes),) = _degree_verdicts(ideal, p, range(e, e + 1))
    return vanishes


def degreewise_report(
    ideal: MonomialIdeal, params: OracleParams = OracleParams()
) -> tuple[tuple[int, bool], ...]:
    """Per-degree oracle outcomes (e, vanishes) for 2 <= e <= e_max."""
    return _degree_verdicts(ideal, params.p, range(2, params.e_max + 1))
