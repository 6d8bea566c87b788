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

The oracle checks the same property degree by degree, from first
principles: writing ``C_e = (I^{[p^e]} : I)``, the degree-e graded piece of
the algebra is ``C_e / I^{[p^e]}``, and the sub-piece generated by lower
degrees is spanned by the composition products

    C_{a_1} * C_{a_2}^{[p^{a_1}]} * C_{a_3}^{[p^{a_1 + a_2}]} * ...

over all ways of writing e as an ordered sum of smaller positive parts.
Degree e contributes no new algebra generators exactly when ``C_e`` equals
those products plus ``I^{[p^e]}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import (
    Monomial,
    MonomialIdeal,
    _colon_ideal_raw,
    _minimalize,
    _vec_divides,
)

SUPPORTED_CHARACTERISTICS = (2, 3, 5)


@dataclass(frozen=True)
class OracleParams:
    """Knobs for the bounded degree-wise generation oracle.

    p is the characteristic, e_max the highest Frobenius degree tested and
    k the generation threshold: ``generated_up_to`` checks that every degree
    in ``k < e <= e_max`` adds no new generators.  Small bounds are enforced
    because the cost grows quickly with both p and e.
    """

    p: int = 2
    e_max: int = 3
    k: int = 1

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_CHARACTERISTICS:
            raise ValueError(f"characteristic must be one of {SUPPORTED_CHARACTERISTICS}")
        if not 2 <= self.e_max <= 4:
            raise ValueError("e_max must be between 2 and 4")
        if self.k < 1:
            raise ValueError("generation threshold k must be at least 1")


def _criterion_sides(
    ideal: MonomialIdeal,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Canonical generators of (I^[2] : I) and of I^[2] + (lcm of generators)."""
    vecs = ideal._vecs
    squares = tuple(tuple(2 * e for e in v) for v in vecs)
    colon = _colon_ideal_raw(squares, vecs)
    full_lcm = vecs[0]
    for v in vecs[1:]:
        full_lcm = tuple(map(max, full_lcm, v))
    rhs = _minimalize(squares + (full_lcm,))
    return colon, rhs


def _criterion(ideal: MonomialIdeal) -> tuple[bool, Monomial | None]:
    """(verdict, offending monomial) for the degree-two criterion."""
    if ideal.is_zero:
        return True, None
    if ideal.is_unit:
        raise ValueError("criterion undefined for the unit ideal")
    if not ideal.is_squarefree:
        raise ValueError("criterion requires a squarefree ideal")
    colon, rhs = _criterion_sides(ideal)
    if colon == rhs:
        return True, None
    for v in colon:
        if not any(_vec_divides(u, v) for u in rhs):
            return False, Monomial(ideal.context, v)
    for v in rhs:  # defensive: the sum should always sit inside the colon
        if not any(_vec_divides(u, v) for u in colon):
            return False, Monomial(ideal.context, v)
    raise AssertionError("unequal canonical ideals with mutual containment")


def is_finitely_generated(ideal: MonomialIdeal) -> bool:
    """Degree-two test: does the algebra of the ideal admit finitely many
    generators (equivalently, is it generated in degree one)?

    The zero ideal passes trivially; the unit ideal is rejected.
    """
    verdict, _ = _criterion(ideal)
    return verdict


def criterion_witness(ideal: MonomialIdeal) -> Monomial | None:
    """A generator of (I^[2] : I) missing from I^[2] + (lcm), or None."""
    _, witness = _criterion(ideal)
    return witness


def _require_oracle_input(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise ValueError("oracle ideals must be nonzero")
    if ideal.is_unit:
        raise ValueError("oracle ideals must be proper")


def frobenius_colon(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """(I^[p^e] : I), the degree-e piece of the algebra before quotienting."""
    _require_oracle_input(ideal)
    if p < 2:
        raise ValueError("characteristic must be at least 2")
    if e < 1:
        raise ValueError("Frobenius degree must be at least 1")
    return ideal.bracket(p**e).colon(ideal)


def _compositions(total: int) -> list[tuple[int, ...]]:
    """Ordered ways to write total as a sum of >= 2 positive parts."""
    def parts(t: int) -> list[tuple[int, ...]]:
        if t == 0:
            return [()]
        return [(a, *rest) for a in range(1, t + 1) for rest in parts(t - a)]

    return [c for c in parts(total) if len(c) >= 2]


def degree_generation_ideal(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """Sum over compositions of e of the twisted products of lower colon ideals.

    For e = 2 this is C_1 * C_1^[p]; for e = 3 it adds C_1 * C_2^[p],
    C_2 * C_1^[p^2] and C_1 * C_1^[p] * C_1^[p^2].
    """
    _require_oracle_input(ideal)
    if e < 2:
        raise ValueError("generation ideals start at degree 2")
    colon_memo = {a: frobenius_colon(ideal, p, a) for a in range(1, e)}
    total = ideal.context.zero_ideal()
    for first, *rest in _compositions(e):
        product = colon_memo[first]
        shift = first
        for a in rest:
            product = product * colon_memo[a].bracket(p**shift)
            shift += a
        total = total + product
    return total


def new_generators_vanish(ideal: MonomialIdeal, p: int, e: int) -> bool:
    """True iff Frobenius degree e adds no new algebra generators.

    Compares (I^[p^e] : I) with the lower-degree products plus I^[p^e];
    the bracket power is the zero class of the graded piece, so it always
    belongs to the generated part.
    """
    colon = frobenius_colon(ideal, p, e)
    generated = degree_generation_ideal(ideal, p, e) + ideal.bracket(p**e)
    return colon == generated


def degreewise_report(
    ideal: MonomialIdeal, params: OracleParams = OracleParams()
) -> tuple[tuple[int, bool], ...]:
    """Per-degree oracle outcomes (e, vanishes) for k < e <= e_max."""
    return tuple(
        (e, new_generators_vanish(ideal, params.p, e))
        for e in range(params.k + 1, params.e_max + 1)
    )


def generated_up_to(ideal: MonomialIdeal, params: OracleParams = OracleParams()) -> bool:
    """Bounded verification that no degree above k contributes generators.

    This checks degrees up to params.e_max only; it is evidence, not proof.
    """
    return all(vanishes for _, vanishes in degreewise_report(ideal, params))
