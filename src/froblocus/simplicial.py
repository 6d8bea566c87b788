"""Simplicial complexes and the squarefree-ideal correspondence.

A complex lives on the vertex index range ``0..n-1`` of a ring context, but
carries its own *active* vertex universe, for one purpose: taking a link
removes the linked vertices from it, so that
``link(F).to_ideal(ctx) == I.colon(ctx.squarefree(F))``.  Vertices in
the universe that appear in no facet are non-faces (their variables
generate); vertices outside it occur in no generator, so a ``ProblemInput``
cones the complex over them: the same ideal's complex on all n vertices.

The void complex (no facets) and the irrelevant complex (only the empty
face) are distinct representable states.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .monomials import (
    MonomialIdeal,
    RingContext,
    minimal_transversals,
    squarefree_ideal,
    support_masks,
)

Face = frozenset[int]


def face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: by cardinality, then lexicographic."""
    return (len(face), tuple(sorted(face)))


def format_face(face: Face) -> str:
    """Render a face with 1-based vertex labels, e.g. ``{1,3}``."""
    return "{" + ",".join(str(v + 1) for v in sorted(face)) + "}"


class SimplicialComplex:
    """A simplicial complex given by its facets (maximal faces)."""

    __slots__ = ("n", "vertices", "facets")

    def __init__(
        self,
        n: int,
        facets: Iterable[Iterable[int]] = (),
        *,
        vertices: Iterable[int] | None = None,
    ):
        if n < 1:
            raise ValueError("need at least one vertex slot")
        self.n = n
        universe = frozenset(range(n)) if vertices is None else frozenset(vertices)
        for v in universe:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        self.vertices = universe
        raw = [frozenset(f) for f in facets]
        for f in raw:
            if not f <= universe:
                raise ValueError(f"facet {sorted(f)} not inside the vertex universe")
        # keep only maximal faces, canonically ordered
        maximal = [
            f for f in set(raw) if not any(f < g for g in raw)
        ]
        self.facets = tuple(sorted(maximal, key=face_key))

    @property
    def is_void(self) -> bool:
        return not self.facets

    def faces(self) -> tuple[Face, ...]:
        """All faces, empty face first, then by cardinality and lex order."""
        faces = {
            frozenset(c) for h in self.facets for k in range(len(h) + 1)
            for c in combinations(h, k)
        }
        return tuple(sorted(faces, key=face_key))

    def link(self, face: Iterable[int]) -> SimplicialComplex:
        """The link of a face, on the universe minus the face."""
        f = frozenset(face)
        if not any(f <= h for h in self.facets):
            raise ValueError(f"{format_face(f)} is not a face")
        new_facets = [h - f for h in self.facets if f <= h]
        return SimplicialComplex(self.n, new_facets, vertices=self.vertices - f)

    def free_faces(self) -> tuple[Face, ...]:
        """Nonempty proper faces contained in exactly one facet."""
        out = []
        for f in self.faces():
            if not f:
                continue
            holders = [h for h in self.facets if f <= h]
            if len(holders) == 1 and f != holders[0]:
                out.append(f)
        return tuple(out)

    def to_ideal(self, context: RingContext) -> MonomialIdeal:
        """The squarefree ideal of the non-faces (within the active universe).

        Its generators are the minimal transversals of the facet complements;
        the void complex maps to the unit ideal, the irrelevant complex to the
        ideal of all active variables.
        """
        if context.n != self.n:
            raise ValueError(
                f"context has {context.n} variables, complex expects {self.n}"
            )
        return nonface_ideal(context, self.facets, self.vertices)

    @classmethod
    def from_ideal(cls, ideal: MonomialIdeal) -> SimplicialComplex:
        """The complex of a proper squarefree ideal, on the full universe.

        Facets are the complements of the minimal transversals of the
        generator supports; the zero ideal gives the full simplex.
        """
        if ideal.is_unit:
            raise ValueError("the unit ideal has no complex")
        if not ideal.is_squarefree:
            raise ValueError("ideal must be squarefree")
        n = ideal.context.n
        covers = minimal_transversals(support_masks(ideal))
        return cls(n, [[i for i in range(n) if not c >> i & 1] for c in covers])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.vertices, self.facets))

    def __repr__(self) -> str:
        body = ", ".join(format_face(f) for f in self.facets) or "void"
        return f"SimplicialComplex(n={self.n}; {body})"


def nonface_ideal(
    context: RingContext, facets: Iterable[Face], vertices: Iterable[int]
) -> MonomialIdeal:
    """The squarefree ideal of the non-faces of the complex with these facets
    inside the vertex universe, generated by the minimal transversals of the
    facet complements (Alexander duality); no facets give the unit ideal."""
    universe = face_mask(vertices)
    nonfaces = minimal_transversals(universe & ~face_mask(h) for h in facets)
    return squarefree_ideal(context, nonfaces)


def face_mask(vertices: Iterable[int]) -> int:
    """The int bitmask of a vertex set, bit v for vertex v."""
    return sum(1 << v for v in vertices)
