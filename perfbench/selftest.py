"""Self-tests of the benchmark itself (not of froblocus).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest

import run
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Problem, digest

FB, _, _ = run.set_up(WORKLOADS["tall"], [], 1)


class Inputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload.name):
                a = digest(workload.generate(5))
                self.assertEqual(a, digest(workload.generate(5)))
                self.assertNotEqual(a, digest(workload.generate(6)))

    def test_derivation_matches_stored_reference(self):
        """The independent closed-face derivation agrees with what froblocus
        answered for every complex on 5 vertices."""
        small = WORKLOADS["many-small"]
        table = run.Reference(run.REFERENCE).data["many-small"]["by_facets"]
        self.assertEqual(len(table), 7580)
        for key, answer in table.items():
            facets = [int(h) for h in key.split(",")]
            self.assertEqual(small.expected(Problem(0, 0, {"n": 5, "facets": facets})),
                             answer, key)


class Checking(unittest.TestCase):
    def test_corrupted_answer_is_counted_as_failed(self):
        workload = WORKLOADS["tall"]
        problems = workload.generate(DEFAULT_SEED)[:workload.slots]
        built = [workload.build(FB, p) for p in problems]
        attempts = run.timed_loop(workload, FB, problems, built, 0)
        reference = run.Reference(run.REFERENCE).lookup(
            workload, DEFAULT_SEED, digest(workload.generate(DEFAULT_SEED)))
        self.assertEqual(run.check(workload, FB, problems, attempts, reference), {})
        maximal, j = attempts[1].answer
        attempts[1].answer = [maximal[1:], j]
        bad = run.check(workload, FB, problems, attempts, reference)
        self.assertEqual(list(bad), [problems[1].index])
        self.assertEqual(run.failed_count(attempts, bad), 1)
        rows = run.end_to_end(workload, attempts, 1, 0.0)
        self.assertAlmostEqual(dict((r[0], r[1]) for r in rows)["failed_frac"],
                               1 / len(attempts))

    def test_program_error_is_counted_as_failed(self):
        workload = WORKLOADS["many-small"]
        problem = Problem(0, 1, {"n": 5, "facets": [1], "text": "vars: x\nideal: y\n"})
        with contextlib.redirect_stderr(io.StringIO()):
            a = run.attempt(workload, FB, problem, problem.data["text"])
        self.assertIn("exited with code 1", a.error)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_answers_agree(self):
        for name in ("many-small", "oracle"):
            workload = WORKLOADS[name]
            problems = workload.generate(3)[:workload.slots * 2]
            plain = [run.attempt(workload, FB, p, workload.build(FB, p)) for p in problems]
            tracer = Tracer()
            tracer.install(FB)
            try:
                traced = [run.attempt(workload, FB, p, workload.build(FB, p), tracer)
                          for p in problems]
            finally:
                tracer.uninstall()
            self.assertGreater(len(tracer.start), 0)
            self.assertEqual([a.answer for a in plain], [a.answer for a in traced])
            self.assertTrue(all(a.error is None for a in plain + traced))

    def test_counts_repeat_exactly(self):
        workload = WORKLOADS["tall"]
        problems = workload.generate(DEFAULT_SEED)[:workload.slots]

        def counts():
            tracer = Tracer()
            tracer.install(FB)
            try:
                for p in problems:
                    run.attempt(workload, FB, p, workload.build(FB, p), tracer)
            finally:
                tracer.uninstall()
            return ({k: v[0] for k, v in tracer.totals().items()}, dict(tracer.counts))

        self.assertEqual(counts(), counts())

    def test_wrappers_leave_no_trace(self):
        before = _bindings()
        tracer = Tracer()
        tracer.install(FB)
        self.assertFalse(tracer.leaves_no_trace(FB))
        self.assertNotEqual(before, _bindings())
        tracer.uninstall()
        self.assertTrue(tracer.leaves_no_trace(FB))
        self.assertEqual(before, _bindings())
        spans = len(tracer.start)
        FB.non_fg_locus(FB.SimplicialComplex(3, [[0, 1], [1, 2]]))
        self.assertEqual(spans, len(tracer.start))

    def test_missing_name_is_absent_not_zero(self):
        locus = sys.modules["froblocus.locus"]
        saved = locus._criterion
        del locus._criterion
        try:
            tracer = Tracer()
            tracer.install(FB)
            tracer.uninstall()
        finally:
            locus._criterion = saved
        self.assertIn("locus._criterion", tracer.absent)
        values = {row[0]: row[1] for row in run.per_layer_metrics(tracer)}
        self.assertIsNone(values["criterion.test_calls"])
        self.assertIsNone(values["locus.faces_tested"])
        self.assertEqual(values["locus.faces_accepted"], 0)


def _bindings():
    """Identity of every attribute of every froblocus module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("froblocus"):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


if __name__ == "__main__":
    unittest.main()
