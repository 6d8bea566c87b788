"""Monomials and monomial ideals with exact, canonical arithmetic.

Every value is immutable and canonical at construction: a ``MonomialIdeal``
stores its context, its unique minimal generating set as exponent tuples in
descending lexicographic order, and their hash, and nothing else.  The
arithmetic works on those tuples; ``generators`` builds ``Monomial`` objects
from them only when it is read.  Every ideal passes ``_check_exponents``
once when it is made, so no exponent above ``EXPONENT_LIMIT`` is stored.
``support_masks`` and ``squarefree_ideal`` convert between squarefree
ideals and int bitmasks of generator supports (bit i for variable i), the
form of ``minimal_masks`` and ``minimal_transversals``.  Equality is
structural and all operations are pure functions, safe to share across
threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VARIABLES = 30
EXPONENT_LIMIT = 1 << 16

_NAME_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ContextMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class ExponentLimitError(ValueError):
    """An exponent would exceed EXPONENT_LIMIT."""


@dataclass(frozen=True)
class RingContext:
    """An ordered set of variable names fixing the ambient polynomial ring."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not 1 <= len(names) <= MAX_VARIABLES:
            raise ValueError(
                f"need between 1 and {MAX_VARIABLES} variables, got {len(names)}"
            )
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not _NAME_PATTERN.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def monomial(self, exponents: Iterable[int]) -> Monomial:
        return Monomial(self, exponents)

    def one(self) -> Monomial:
        return Monomial(self, (0,) * self.n)

    def variable(self, i: int) -> Monomial:
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range")
        return Monomial(self, tuple(1 if j == i else 0 for j in range(self.n)))

    def squarefree(self, support: Iterable[int]) -> Monomial:
        """The squarefree monomial whose support is the given index set."""
        indices = set(support)
        for i in indices:
            if not 0 <= i < self.n:
                raise ValueError(f"variable index {i} out of range")
        return Monomial(self, tuple(1 if j in indices else 0 for j in range(self.n)))

    def ideal(self, generators: Iterable[Monomial] = ()) -> MonomialIdeal:
        return MonomialIdeal(self, generators)

    def zero_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self, ())

    def unit_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self, (self.one(),))


def _require_same_context(a: RingContext, b: RingContext) -> None:
    if a != b:
        raise ContextMismatchError(
            f"operands live in different rings: {a.names} vs {b.names}"
        )


# Raw helpers operate on bare exponent tuples; they are the hot path for the
# ideal arithmetic and deliberately avoid creating Monomial objects.

def _check_exponents(vecs: tuple[tuple[int, ...], ...]) -> None:
    """Raise ExponentLimitError at the first exponent above EXPONENT_LIMIT."""
    if vecs and max(map(max, vecs)) > EXPONENT_LIMIT:
        e = next(e for v in vecs for e in v if e > EXPONENT_LIMIT)
        raise ExponentLimitError(f"exponent {e} exceeds limit {EXPONENT_LIMIT}")


def _format(names: tuple[str, ...], exponents: tuple[int, ...]) -> str:
    """Monomial text such as ``x1^2*x3``; ``1`` when every exponent is 0."""
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _vec_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _minimalize(vecs: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Prune generators divisible by another; return sorted canonical tuple.

    Canonical order is descending lexicographic on exponent vectors, so
    generators in the leading variables print first.
    """
    items = sorted(set(vecs), key=lambda v: (sum(v), v))
    kept: list[tuple[int, ...]] = []
    for v in items:
        for u in kept:
            if _vec_divides(u, v):
                break
        else:
            kept.append(v)
    kept.sort(reverse=True)
    return tuple(kept)


def _intersect_raw(
    avecs: tuple[tuple[int, ...], ...], bvecs: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    out = [tuple(map(max, a, b)) for a in avecs for b in bvecs]
    return _minimalize(out)


def _colon_mono_raw(
    vecs: tuple[tuple[int, ...], ...], f: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    out = [tuple(x - y if x > y else 0 for x, y in zip(v, f)) for v in vecs]
    return _minimalize(out)


def _colon_ideal_raw(
    avecs: tuple[tuple[int, ...], ...], bvecs: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    if not bvecs:
        raise ValueError("colon by the zero ideal is undefined")
    acc = _colon_mono_raw(avecs, bvecs[0])
    for f in bvecs[1:]:
        acc = _intersect_raw(acc, _colon_mono_raw(avecs, f))
    return acc


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal int bitmasks of a family, by popcount, then value."""
    kept: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def minimal_transversals(edges: Iterable[int]) -> list[int]:
    """Minimal transversals of bitmask edges by Berge's sequential method: for
    each edge, extend every transversal missing it by each vertex of the edge,
    and minimalise.  No edges give ``[0]``, an empty edge gives ``[]``."""
    found = [0]
    for edge in edges:
        bits = [1 << i for i in range(edge.bit_length()) if edge >> i & 1]
        found = minimal_masks(t if t & edge else t | b for t in found for b in bits)
    return found


def support_masks(ideal: MonomialIdeal) -> list[int]:
    """The supports of the minimal generators as int bitmasks, in order."""
    return [sum(1 << i for i, e in enumerate(v) if e) for v in ideal._vecs]


def squarefree_ideal(context: RingContext, masks: Iterable[int]) -> MonomialIdeal:
    """The squarefree ideal generated by the monomials with these supports;
    no masks give the zero ideal, ``[0]`` the unit ideal."""
    n = context.n
    kept = minimal_masks(masks)
    if any(m >> n for m in kept):
        raise ValueError(f"support mask out of range for {n} variables")
    vecs = sorted((tuple(m >> i & 1 for i in range(n)) for m in kept), reverse=True)
    return MonomialIdeal._from_vecs(context, tuple(vecs))


class Monomial:
    """A monomial given by its exponent vector over a fixed ring context."""

    __slots__ = ("context", "exponents", "_hash")

    def __init__(self, context: RingContext, exponents: Iterable[int]):
        exps = tuple(map(operator.index, exponents))
        if len(exps) != context.n:
            raise ValueError(
                f"expected {context.n} exponents, got {len(exps)}"
            )
        if min(exps) < 0:
            raise ValueError("exponents must be non-negative")
        _check_exponents((exps,))
        self.context = context
        self.exponents = exps
        self._hash = hash((context.names, exps))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def divides(self, other: Monomial) -> bool:
        _require_same_context(self.context, other.context)
        return _vec_divides(self.exponents, other.exponents)

    def __mul__(self, other: Monomial) -> Monomial:
        _require_same_context(self.context, other.context)
        return Monomial(
            self.context, (x + y for x, y in zip(self.exponents, other.exponents))
        )

    def __pow__(self, q: int) -> Monomial:
        if q < 0:
            raise ValueError("exponent must be non-negative")
        return Monomial(self.context, (q * e for e in self.exponents))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.context == other.context and self.exponents == other.exponents

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: Monomial) -> bool:
        _require_same_context(self.context, other.context)
        return self.exponents < other.exponents

    def __str__(self) -> str:
        return _format(self.context.names, self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({self})"


class MonomialIdeal:
    """A monomial ideal stored as its canonical minimal generating set, in
    exponent tuples; ``generators`` builds the ``Monomial``s on each read.

    The zero ideal has no generators; the unit ideal is generated by 1.
    """

    __slots__ = ("context", "_vecs", "_hash")

    def __init__(self, context: RingContext, generators: Iterable[Monomial] = ()):
        vecs = []
        for g in generators:
            if not isinstance(g, Monomial):
                raise TypeError(f"expected Monomial, got {type(g).__name__}")
            _require_same_context(context, g.context)
            vecs.append(g.exponents)
        self._finish(context, _minimalize(vecs))

    def _finish(self, context: RingContext, vecs: tuple[tuple[int, ...], ...]) -> None:
        _check_exponents(vecs)
        self.context = context
        self._vecs = vecs
        self._hash = hash((context.names, vecs))

    @classmethod
    def _from_vecs(
        cls, context: RingContext, vecs: tuple[tuple[int, ...], ...]
    ) -> MonomialIdeal:
        # vecs must already be canonical (output of _minimalize)
        obj = object.__new__(cls)
        obj._finish(context, vecs)
        return obj

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.context, v) for v in self._vecs)

    @property
    def is_zero(self) -> bool:
        return not self._vecs

    @property
    def is_unit(self) -> bool:
        return len(self._vecs) == 1 and not any(self._vecs[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for v in self._vecs for e in v)

    def contains(self, m: Monomial) -> bool:
        _require_same_context(self.context, m.context)
        return any(_vec_divides(v, m.exponents) for v in self._vecs)

    __contains__ = contains

    def issubset(self, other: MonomialIdeal) -> bool:
        _require_same_context(self.context, other.context)
        return all(any(_vec_divides(u, v) for u in other._vecs) for v in self._vecs)

    __le__ = issubset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.context == other.context and self._vecs == other._vecs

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self._vecs)

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        _require_same_context(self.context, other.context)
        return MonomialIdeal._from_vecs(
            self.context, _minimalize(self._vecs + other._vecs)
        )

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        _require_same_context(self.context, other.context)
        prods = [
            tuple(x + y for x, y in zip(a, b))
            for a in self._vecs
            for b in other._vecs
        ]
        return MonomialIdeal._from_vecs(self.context, _minimalize(prods))

    def intersection(self, other: MonomialIdeal) -> MonomialIdeal:
        _require_same_context(self.context, other.context)
        if self.is_zero or other.is_zero:
            return self.context.zero_ideal()
        return MonomialIdeal._from_vecs(
            self.context, _intersect_raw(self._vecs, other._vecs)
        )

    __and__ = intersection

    def colon(self, other: Monomial | MonomialIdeal) -> MonomialIdeal:
        """(self : other) for a monomial or monomial ideal divisor."""
        if isinstance(other, Monomial):
            _require_same_context(self.context, other.context)
            return MonomialIdeal._from_vecs(
                self.context, _colon_mono_raw(self._vecs, other.exponents)
            )
        _require_same_context(self.context, other.context)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is undefined")
        return MonomialIdeal._from_vecs(
            self.context, _colon_ideal_raw(self._vecs, other._vecs)
        )

    def bracket(self, q: int) -> MonomialIdeal:
        """The ideal generated by q-th powers of the minimal generators."""
        if q < 1:
            raise ValueError("bracket power requires q >= 1")
        vecs = tuple(tuple(q * e for e in v) for v in self._vecs)
        # q-th powers of an antichain of monomials stay an antichain
        return MonomialIdeal._from_vecs(self.context, tuple(sorted(vecs, reverse=True)))

    def localize(self, variables: Iterable[int]) -> MonomialIdeal:
        """Monomial localization: set the listed variables to 1."""
        away = frozenset(variables)
        for i in away:
            if not 0 <= i < self.context.n:
                raise ValueError(f"variable index {i} out of range")
        vecs = [
            tuple(0 if i in away else e for i, e in enumerate(v))
            for v in self._vecs
        ]
        return MonomialIdeal._from_vecs(self.context, _minimalize(vecs))

    def support(self) -> frozenset[int]:
        return frozenset(i for v in self._vecs for i, e in enumerate(v) if e)

    def is_complete_intersection(self) -> bool:
        """True iff the minimal generators have pairwise disjoint supports.

        The zero ideal counts as a complete intersection, the unit ideal
        does not.
        """
        if self.is_unit:
            return False
        seen: set[int] = set()
        for v in self._vecs:
            supp = {i for i, e in enumerate(v) if e}
            if supp & seen:
                return False
            seen |= supp
        return True

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        names = self.context.names
        return "(" + ", ".join(_format(names, v) for v in self._vecs) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"
