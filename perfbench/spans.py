"""Span tracing installed around froblocus entry points from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span per call (name, start, end, parent span, problem id)
in flat arrays, plus a few counters read from the arguments or the result.
A module-level function is replaced under every name that binds it in any
froblocus module, so calls through re-exports and private imports (such as
``locus._criterion``) are seen too.  ``uninstall`` puts every original
object back.  A traced name that no longer exists is recorded in
``absent`` and its metrics are reported as absent, never as zero.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _pairs(args) -> int:
    return len(args[0]) * len(args[1])


def _minimalize_in(tracer, args):
    vecs = args[0] if hasattr(args[0], "__len__") else tuple(args[0])
    tracer.add("monomials.minimalize_in", len(vecs))
    return (vecs, *args[1:])


# (module, attribute, span name or name function, before hook, after hook).
# A point is known by its program name, "module.attribute".  Hooks take (tracer, args) and (tracer, result); a before hook may return
# replacement arguments.
POINTS = (
    ("cli", "main", "cli.main", None, None),
    ("parsing", "parse_problem", "parsing.parse_problem", None, None),
    ("simplicial", "SimplicialComplex.from_ideal", "simplicial.from_ideal", None, None),
    ("simplicial", "SimplicialComplex.to_ideal", "simplicial.to_ideal", None, None),
    ("simplicial", "SimplicialComplex.faces", "simplicial.faces", None,
     lambda t, r: t.add("simplicial.faces_enumerated", len(r))),
    ("simplicial", "SimplicialComplex.link", "simplicial.link", None, None),
    ("simplicial", "SimplicialComplex.free_faces", "simplicial.free_faces", None, None),
    ("locus", "non_fg_locus", "locus.non_fg_locus", None,
     lambda t, r: (t.add("locus.faces_accepted", len(r.faces)),
                   t.add("locus.maximal_faces", len(r.maximal_faces)))),
    ("locus", "locus_algebraic", "locus.algebraic", None, None),
    ("locus", "locus_combinatorial", "locus.combinatorial", None, None),
    ("locus", "_criterion", "criterion.test", None, None),
    ("criterion", "frobenius_colon", "criterion.frobenius_colon", None, None),
    ("criterion", "degree_generation_ideal", "criterion.generation_ideal", None, None),
    ("criterion", "new_generators_vanish",
     lambda args, kwargs: f"criterion.oracle_e{kwargs.get('e', args[2] if len(args) > 2 else '?')}",
     None, None),
    ("criterion", "_colon_ideal_raw", "monomials.colon_raw", None, None),
    ("monomials", "_minimalize", "monomials.minimalize",
     _minimalize_in, None),
    ("monomials", "_intersect_raw", "monomials.intersect",
     lambda t, a: t.add("monomials.intersect_pairs", _pairs(a)), None),
    ("monomials", "MonomialIdeal.__mul__", "monomials.mul",
     lambda t, a: t.add("monomials.mul_pairs", _pairs(a)),
     lambda t, r: t.peak("monomials.peak_gens", len(r))),
    ("monomials", "MonomialIdeal.__add__", "monomials.add", None,
     lambda t, r: t.peak("monomials.peak_gens", len(r))),
    ("monomials", "MonomialIdeal.colon", "monomials.colon", None,
     lambda t, r: t.peak("monomials.peak_gens", len(r))),
    ("monomials", "MonomialIdeal.intersection", "monomials.intersection", None,
     lambda t, r: t.peak("monomials.peak_gens", len(r))),
    ("monomials", "MonomialIdeal.bracket", "monomials.bracket", None,
     lambda t, r: t.peak("monomials.peak_gens", len(r))),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.problem_of = array("l")
        self.counts: Counter[str] = Counter()
        self.problem = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # counters -------------------------------------------------------------
    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    # wrapping -------------------------------------------------------------
    def _span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _wrap(self, fn, name, before, after):
        fixed = None if callable(name) else self._span_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args) or args
            sid = fixed if fixed is not None else self._span_id(name(args, kwargs))
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.problem_of.append(self.problem)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for mod_name, attr, name, before, after in POINTS:
            label = f"{mod_name}.{attr}"
            module = sys.modules.get(f"{prefix}.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.add(label)
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, before, after))
                else:
                    new = self._wrap(raw, name, before, after)
                setattr(owner, leaf, new)
                self._patched.append((owner, leaf, raw))
                continue
            new = self._wrap(raw, name, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, new)
                        self._patched.append((m, key, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def leaves_no_trace(self, package) -> bool:
        """True when no froblocus module or class still holds a wrapper."""
        prefix = package.__name__
        for k, m in list(sys.modules.items()):
            if m is None or not (k == prefix or k.startswith(prefix + ".")):
                continue
            for value in vars(m).values():
                if _is_wrapper(value):
                    return False
                if isinstance(value, type) and value.__module__.startswith(prefix):
                    if any(_is_wrapper(v) for v in vars(value).values()):
                        return False
        return True

    # results --------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only spans with no ancestor of the same name;
        self time is a span's duration minus its direct children's.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            sid = self.name_id[i]
            row = out[self.names[sid]]
            row[0] += 1
            row[2] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != sid:
                p = self.parent[p]
            if p < 0:
                row[1] += dur[i]
        return {k: tuple(v) for k, v in out.items()}

    def count_under(self, names: set[str], ancestor: str) -> int:
        """Spans named in ``names`` that run inside a span named ``ancestor``."""
        ids = {self._ids[n] for n in names if n in self._ids}
        anc = self._ids.get(ancestor)
        if not ids or anc is None:
            return 0
        total = 0
        for i in range(len(self.start)):
            if self.name_id[i] in ids:
                p = self.parent[i]
                while p >= 0 and self.name_id[p] != anc:
                    p = self.parent[p]
                total += p >= 0
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tproblem\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.problem_of[i]}\n")


def _is_wrapper(value) -> bool:
    if isinstance(value, classmethod):
        value = value.__func__
    return callable(value) and getattr(value, "__qualname__", "").startswith(
        "Tracer._wrap.")
