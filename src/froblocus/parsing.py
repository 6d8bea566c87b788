"""Text input: monomial expressions and problem files.

Problem files declare the ring on a ``vars:`` line and then exactly one of

    ideal: x*w, y*w, z*b
    facets: 1 2 5; 1 3 5; 1 2 4

Monomial grammar: ``*``-separated variable tokens with optional ``^k``
powers; ``1`` is the constant monomial.  Facet vertices are 1-based.
Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from .monomials import EXPONENT_LIMIT, Monomial, MonomialIdeal, RingContext
from .simplicial import Face, SimplicialComplex


_MAX_SHOWN_DIGITS = 20


class ParseError(ValueError):
    """Malformed CLI or problem-file input, or a problem ProblemInput rejects."""


def parse_variables(text: str) -> RingContext:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ParseError("no variable names given")
    try:
        return RingContext(tuple(names))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_monomial(text: str, context: RingContext) -> Monomial:
    exps = [0] * context.n
    body = text.strip()
    if not body:
        raise ParseError("empty monomial expression")
    for token in body.split("*"):
        token = token.strip()
        if not token:
            raise ParseError(f"empty factor in {text!r}")
        if token == "1":
            continue
        name, caret, power = token.partition("^")
        name = name.strip()
        if caret:
            power = power.strip()
            if not (power.isascii() and power.isdigit()):
                raise ParseError(f"bad exponent in {token!r}")
            # int() and str() refuse a few thousand digits, so a long
            # exponent is named by its digit count and never converted
            digits = power.lstrip("0") or "0"
            if len(digits) > _MAX_SHOWN_DIGITS:
                raise ParseError(
                    f"exponent of {len(digits)} digits exceeds limit {EXPONENT_LIMIT}"
                )
            k = int(digits)
            if k > EXPONENT_LIMIT:
                raise ParseError(f"exponent {k} exceeds limit {EXPONENT_LIMIT}")
        else:
            k = 1
        try:
            i = context.index_of(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}") from None
        exps[i] += k
        if exps[i] > EXPONENT_LIMIT:
            raise ParseError(f"exponent of {name!r} exceeds limit {EXPONENT_LIMIT}")
    return context.monomial(exps)


def parse_face(text: str, n: int) -> Face:
    """Whitespace-separated 1-based vertex indices; empty text is the empty face."""
    verts = set()
    for token in text.replace(",", " ").split():
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"bad vertex index {token!r}")
        v = int(token)
        if not 1 <= v <= n:
            raise ParseError(f"vertex {v} outside 1..{n}")
        verts.add(v - 1)
    return frozenset(verts)


class ProblemInput:
    """One problem: the ring, its squarefree ideal and its complex.

    Give an ideal or a complex; the other is derived on first use, at most
    once.  The constructor is the one place that rejects a problem: the unit
    ideal, the void complex, a non-squarefree ideal, a context that does not
    fit, or neither an ideal nor a complex.  A complex without a context gets
    ``x1..xn``.

    ``complex`` is the complex of ``ideal`` on all n vertices: one on a smaller
    universe, such as a link, is coned over the vertices outside it.
    """

    __slots__ = ("context", "_ideal", "_complex")

    def __init__(
        self,
        context: RingContext | None = None,
        ideal: MonomialIdeal | None = None,
        complex: SimplicialComplex | None = None,
    ):
        if ideal is not None and complex is not None:
            raise ParseError("the problem gives both an ideal and facets")
        if ideal is not None:
            if context is not None and context != ideal.context:
                raise ParseError("explicit context conflicts with the ideal's")
            if not ideal.is_squarefree:
                raise ParseError("generators must be squarefree")
            if ideal.is_unit:
                raise ParseError("the unit ideal is not a valid input")
            context = ideal.context
        elif complex is not None:
            if context is None:
                context = RingContext(tuple(f"x{i + 1}" for i in range(complex.n)))
            if context.n != complex.n:
                raise ParseError("context size does not match the complex")
            if complex.is_void:
                raise ParseError("the void complex is not a valid input")
            cone = frozenset(range(complex.n)) - complex.vertices
            if cone:
                complex = SimplicialComplex(complex.n, [h | cone for h in complex.facets])
        else:
            raise ParseError("missing ideal or facets declaration")
        self.context = context
        self._ideal = ideal
        self._complex = complex

    @classmethod
    def of(cls, source: MonomialIdeal | SimplicialComplex | ProblemInput) -> ProblemInput:
        """The problem of an ideal or a complex; a problem is returned as is."""
        if isinstance(source, ProblemInput):
            return source
        if isinstance(source, MonomialIdeal):
            return cls(ideal=source)
        if isinstance(source, SimplicialComplex):
            return cls(complex=source)
        raise TypeError(
            "source must be a MonomialIdeal, SimplicialComplex or ProblemInput"
        )

    @property
    def ideal(self) -> MonomialIdeal:
        if self._ideal is None:
            self._ideal = self._complex.to_ideal(self.context)
        return self._ideal

    @property
    def complex(self) -> SimplicialComplex:
        if self._complex is None:
            self._complex = SimplicialComplex.from_ideal(self._ideal)
        return self._complex


def parse_problem(text: str) -> ProblemInput:
    context: RingContext | None = None
    ideal: MonomialIdeal | None = None
    complex_: SimplicialComplex | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        if key == "vars":
            if context is not None:
                raise ParseError(f"line {lineno}: duplicate vars declaration")
            context = parse_variables(value)
        elif key in ("ideal", "facets"):
            if context is None:
                raise ParseError(f"line {lineno}: vars must come before {key}")
            if ideal is not None or complex_ is not None:
                raise ParseError(f"line {lineno}: duplicate problem body")
            if key == "ideal":
                gens = [t for t in value.split(",") if t.strip()]
                ideal = context.ideal([parse_monomial(t, context) for t in gens])
            else:
                groups = [g for g in value.split(";") if g.strip()]
                if not groups:
                    raise ParseError(f"line {lineno}: no facets given")
                facets = [parse_face(g, context.n) for g in groups]
                complex_ = SimplicialComplex(context.n, facets)
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if context is None:
        raise ParseError("missing vars declaration")
    return ProblemInput(context, ideal, complex_)
