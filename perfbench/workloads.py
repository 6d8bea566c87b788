"""Seeded workloads: input generation, program calls and answer checks.

Everything here except ``build``, ``call`` and ``verify`` is the
benchmark's own code and never touches froblocus: inputs are generated as
plain integers and bitmasks (bit ``i`` is vertex ``i``, 0-based), and the
expected answers of the locus workloads are derived independently from
facet intersections.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Problem:
    """One generated input; ``slot`` is its shape class in the rotation."""

    index: int
    slot: int
    data: dict


# ---------------------------------------------------------------- bitmasks

def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def minimal_masks(masks) -> list[int]:
    """Inclusion-minimal members of a family of vertex sets, sorted."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (popcount(m), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return sorted(kept)


def sr_generators(n: int, facets) -> list[int]:
    """Supports of the minimal generators of the intersection of the facet
    primes (x_i : i not in H): the Stanley-Reisner ideal of the complex the
    facets span.  ``[0]`` is the unit ideal (no facets), ``[]`` the zero
    ideal (the full simplex)."""
    full = (1 << n) - 1
    gens = [0]
    for h in facets:
        comp = full & ~h
        gens = minimal_masks(
            g if g & comp else g | 1 << i for g in gens for i in bits(comp)
        )
    return gens


def count_faces(facets) -> int:
    """Faces of the complex the facets span, empty face included, by
    inclusion-exclusion over facet intersections."""
    facets = list(facets)
    total = 0
    for r in range(1, len(facets) + 1):
        for group in combinations(facets, r):
            meet = group[0]
            for h in group[1:]:
                meet &= h
            total += (-1) ** (r + 1) * (1 << popcount(meet))
    return total


def _has_free_face(facets: list[int]) -> bool:
    # A free face exists iff some facet loses one vertex and the rest lies
    # in no other facet; any smaller free face sits inside such a one.
    for g in facets:
        if popcount(g) < 2:
            continue
        for i in bits(g):
            sub = g & ~(1 << i)
            if not any(o != g and sub & o == sub for o in facets):
                return True
    return False


def expected_locus(n: int, facets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(maximal locus faces, generators of J), independently of froblocus.

    The core of link(F) has the facets H - cl(F) for the facets H containing
    F, where cl(F) is their intersection, so the free-face test is constant
    on each class cl(F) and every maximal locus face is such an
    intersection of facets.  Testing the intersections alone therefore
    yields the maximal faces; J is the intersection of their face primes.
    """
    facets = list(facets)
    closed = set(facets)
    frontier = set(facets)
    while frontier:
        fresh = {c & h for c in frontier for h in facets} - closed
        closed |= fresh
        frontier = fresh
    passing = [
        c for c in closed
        if _has_free_face([h & ~c for h in facets if h & c == c])
    ]
    maximal = sorted(
        c for c in passing if not any(d != c and c & d == c for d in passing)
    )
    return tuple(maximal), tuple(sr_generators(n, maximal))


def _mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _exponent_mask(exponents) -> int:
    if any(e > 1 for e in exponents):
        return -1  # never expected: J is squarefree
    return _mask_of(i for i, e in enumerate(exponents) if e)


def locus_answer(result) -> list:
    """[maximal faces, generators of J] of a LocusResult, as bitmasks."""
    maximal = sorted(_mask_of(f) for f in result.maximal_faces)
    j = sorted(_exponent_mask(g.exponents) for g in result.defining_ideal.generators)
    return [maximal, j]


def frobenius_colon_size(n: int, gens, p: int) -> int:
    """Number of minimal generators of (I^[p] : I) for the squarefree ideal
    with the given supports, by direct exponent-vector arithmetic."""
    def minimal(vecs):
        kept: list[tuple[int, ...]] = []
        for v in sorted(set(vecs), key=sum):
            if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
                kept.append(v)
        return kept

    vecs = [tuple(g >> i & 1 for i in range(n)) for g in gens]
    powers = [tuple(p * e for e in v) for v in vecs]
    colon = None
    for m in vecs:  # (J : I) is the intersection of the (J : m) over generators m
        part = minimal(tuple(max(a - b, 0) for a, b in zip(v, m)) for v in powers)
        colon = part if colon is None else minimal(
            tuple(map(max, a, b)) for a in colon for b in part)
    return len(colon)


def _random_antichain(rng: random.Random, n: int, sizes) -> list[int]:
    while True:
        facets = [_mask_of(rng.sample(range(n), s)) for s in sizes]
        if len(set(facets)) == len(facets) and not any(
            a != b and a & b == a for a in facets for b in facets
        ):
            return facets


def all_antichains(n: int) -> list[tuple[int, ...]]:
    """Every facet antichain on n vertices except the void complex, in a
    fixed order; the irrelevant complex is the antichain ``(0,)``."""
    subsets = sorted(range(1, 1 << n), key=lambda m: (popcount(m), m))
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: list[int]) -> None:
        if chosen:
            out.append(tuple(sorted(chosen)))
        for j in range(start, len(subsets)):
            s = subsets[j]
            if all(s & t != s and s & t != t for t in chosen):
                chosen.append(s)
                extend(j + 1, chosen)
                chosen.pop()

    extend(0, [])
    out.append((0,))
    return out


def _names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _stats(values) -> str:
    values = sorted(values)
    if not values:
        return "-"
    return f"{values[0]}/{values[len(values) // 2]}/{values[-1]}"


# --------------------------------------------------------------- workloads

class Workload:
    """A seeded input family and the entry point it runs through.

    ``slots`` is the number of shape classes; problem i has class
    ``i % slots``, and the timed loop stops only at the end of a whole
    rotation, so every run measures the classes in equal numbers.
    ``pool`` problems are generated per seed, ``trace_problems`` of them
    run in the traced pass, and ``tail_pct`` is the fixed tail percentile.
    """

    name = ""
    why = ""
    slots = 1
    pool = 0
    trace_problems = 0
    tail_pct = 90.0

    def generate(self, seed: int) -> list[Problem]:
        rng = random.Random(f"{self.name}:{seed}")
        return [Problem(i, i % self.slots, self.make(rng, i % self.slots))
                for i in range(self.pool)]

    def make(self, rng: random.Random, slot: int) -> dict:
        raise NotImplementedError

    def build(self, fb, problem: Problem):
        """The program objects one call consumes (part of set-up)."""
        raise NotImplementedError

    def call(self, fb, built):
        raise NotImplementedError

    def answer(self, raw):
        """Canonical, JSON-able answer from the program's raw output."""
        raise NotImplementedError

    def expected(self, problem: Problem):
        """Independently derived answer, or None when the program's own
        cross-check is the only one available."""
        return None

    def verify(self, fb, problem: Problem, answer) -> str | None:
        """Extra checks that need the program; None when the answer holds."""
        return None

    def counters(self, raw) -> dict[str, int]:
        return {}

    def shape(self, problems: list[Problem]) -> dict[str, str]:
        raise NotImplementedError


def digest(problems: list[Problem]) -> str:
    blob = json.dumps([p.data for p in problems], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _LocusWorkload(Workload):
    def expected(self, problem):
        maximal, j = expected_locus(problem.data["n"], problem.data["facets"])
        return [list(maximal), list(j)]

    def answer(self, raw):
        return locus_answer(raw)

    def shape(self, problems):
        loci = [self.expected(p) for p in problems]
        return {
            "vertices": _stats(p.data["n"] for p in problems),
            "facets": _stats(len(p.data["facets"]) for p in problems),
            "faces": _stats(count_faces(p.data["facets"]) for p in problems),
            "generators": _stats(
                len(sr_generators(p.data["n"], p.data["facets"])) for p in problems
            ),
            "locus_faces": _stats(count_faces(m) if m else 0 for m, _ in loci),
            "maximal_faces": _stats(len(m) for m, _ in loci),
        }


class ManySmall(_LocusWorkload):
    name = "many-small"
    why = ("complexes on 5 vertices as problem text through the in-process CLI; "
           "fixed per-problem cost dominates; the only user of cli and parsing")
    slots = 2  # facets: text, then ideal: text
    pool = 8000
    trace_problems = 600
    # above p98 the latencies are interpreter pauses, not problems
    tail_pct = 95.0

    def __init__(self):
        self._antichains: list[tuple[int, ...]] | None = None
        self._expected: dict[tuple[int, ...], list] = {}

    def antichains(self) -> list[tuple[int, ...]]:
        if self._antichains is None:
            self._antichains = all_antichains(5)
        return self._antichains

    def make(self, rng, slot):
        facets = rng.choice(self.antichains())
        names = _names(5)
        # the irrelevant complex has no facets: line, so it goes as an ideal
        if slot == 0 and facets != (0,):
            body = "facets: " + "; ".join(
                " ".join(str(v + 1) for v in bits(h)) for h in facets
            )
        else:
            gens = sr_generators(5, facets)
            body = "ideal: " + ", ".join(
                "*".join(names[v] for v in bits(g)) for g in gens
            )
        text = "vars: " + ", ".join(names) + "\n" + body + "\n"
        return {"n": 5, "facets": list(facets), "text": text}

    def expected(self, problem):
        key = tuple(problem.data["facets"])
        if key not in self._expected:
            self._expected[key] = super().expected(problem)
        return self._expected[key]

    def build(self, fb, problem):
        return problem.data["text"]

    def call(self, fb, text):
        stdout = io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), stdout
        try:
            code = fb.cli.main(["locus", "--format", "json", "-"])
        finally:
            sys.stdin, sys.stdout = saved
        return code, stdout.getvalue()

    def answer(self, raw):
        code, out = raw
        if code != 0:
            raise RuntimeError(f"froblocus exited with code {code}")
        data = json.loads(out)
        maximal = sorted(_mask_of(v - 1 for v in f) for f in data["igl_maximal"])
        j = sorted(_exponent_mask(g["exponents"]) for g in data["j_ideal"])
        return [maximal, j]

    def counters(self, raw):
        return {"cli.output_bytes": len(raw[1].encode())}


class Wide(_LocusWorkload):
    name = "wide"
    why = ("12 vertices, 5-6 facets of 7-10 vertices, 20-35 generators, given as "
           "ideals; the criterion and monomial kernel dominate")
    slots = 2  # 5 and 6 facets
    pool = 160
    trace_problems = 6
    tail_pct = 75.0

    def make(self, rng, slot):
        n, k = 12, 5 + slot
        while True:  # keep to the sizes this workload states
            facets = _random_antichain(rng, n, [rng.randint(7, 10) for _ in range(k)])
            gens = sr_generators(n, facets)
            if 20 <= len(gens) <= 35 and 1000 <= count_faces(facets) <= 3000:
                return {"n": n, "facets": facets, "gens": gens}

    def build(self, fb, problem):
        ctx = fb.RingContext(tuple(_names(problem.data["n"])))
        return ctx.ideal([ctx.squarefree(bits(g)) for g in problem.data["gens"]])

    def call(self, fb, ideal):
        return fb.non_fg_locus(ideal, method="both")


class Tall(_LocusWorkload):
    name = "tall"
    why = ("12-13 vertices, 2-3 facets of 10-11 vertices, given as complexes; "
           "large face lattices over small ideals stress faces, links and pruning")
    # (vertices, facet sizes)
    classes = ((13, (11, 11)), (13, (11, 10)), (12, (10, 10, 10)))
    slots = len(classes)
    pool = 150
    trace_problems = 6
    tail_pct = 80.0

    def make(self, rng, slot):
        n, sizes = self.classes[slot]
        return {"n": n, "facets": _random_antichain(rng, n, sizes)}

    def build(self, fb, problem):
        return fb.SimplicialComplex(
            problem.data["n"], [bits(h) for h in problem.data["facets"]]
        )

    def call(self, fb, delta):
        return fb.non_fg_locus(delta, method="both")


class Oracle(Workload):
    name = "oracle"
    why = ("squarefree ideals on 5-7 vertices through degreewise_report for "
           "p in {2,3,5}; large exponents, bracket powers and products, no locus")
    # (generators, e_max, p, allowed generator counts of (I^[p] : I))
    classes = tuple((g, e, p, window) for g, e, window in
                    ((3, 4, (6, 6)), (5, 3, (9, 10)), (6, 3, (9, 10)))
                    for p in (2, 3, 5))
    slots = len(classes)
    pool = 270
    trace_problems = 18
    tail_pct = 90.0

    def make(self, rng, slot):
        g, e_max, p, (lo, hi) = self.classes[slot]
        while True:
            # the cost grows like |(I^[p] : I)|^e_max: one ideal in a few
            # hundred takes over 20 s, so each class keeps to a size window
            n = rng.randint(5, 7)
            gens = _random_antichain(rng, n, [rng.randint(2, 3) for _ in range(g)])
            if lo <= frobenius_colon_size(n, gens, p) <= hi:
                return {"n": n, "gens": sorted(gens), "p": p, "e_max": e_max}

    def build(self, fb, problem):
        d = problem.data
        ctx = fb.RingContext(tuple(_names(d["n"])))
        ideal = ctx.ideal([ctx.squarefree(bits(g)) for g in d["gens"]])
        return ideal, fb.OracleParams(p=d["p"], e_max=d["e_max"])

    def call(self, fb, built):
        ideal, params = built
        return fb.degreewise_report(ideal, params)

    def answer(self, raw):
        return [[e, bool(v)] for e, v in raw]

    def verify(self, fb, problem, answer):
        ideal, params = self.build(fb, problem)
        degrees = [e for e, _ in answer]
        if degrees != list(range(params.k + 1, params.e_max + 1)):
            return f"degrees {degrees} for e_max={params.e_max}"
        # generated in degree one iff finitely generated, so every degree
        # must agree with the degree-two criterion
        fg = fb.is_finitely_generated(ideal)
        wrong = [e for e, v in answer if v != fg]
        if wrong:
            return f"degrees {wrong} disagree with is_finitely_generated={fg}"
        return None

    def shape(self, problems):
        return {
            "vertices": _stats(p.data["n"] for p in problems),
            "generators": _stats(len(p.data["gens"]) for p in problems),
            "p": _stats(p.data["p"] for p in problems),
            "e_max": _stats(p.data["e_max"] for p in problems),
        }


WORKLOADS = {w.name: w for w in (ManySmall(), Wide(), Tall(), Oracle())}
