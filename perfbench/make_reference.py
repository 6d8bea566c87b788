"""Write perfbench/reference.json: the answers froblocus gives today.

    python3 perfbench/make_reference.py

Every answer comes from ``non_fg_locus(..., method="both")`` (whose two
routes cross-check each other) or from ``degreewise_report``, and is stored
only where it also agrees with the benchmark's independent check.  The
many-small table covers every facet antichain on 5 vertices, so it serves
any seed; the other workloads store the whole pool of the default seed.
The full ``igl`` face list is deliberately not stored.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, all_antichains, bits, digest, locus_answer


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    fb = run.import_froblocus()
    small = WORKLOADS["many-small"]
    table = {}
    for facets in all_antichains(5):
        delta = fb.SimplicialComplex(5, [bits(h) for h in facets])
        answer = locus_answer(fb.non_fg_locus(delta, method="both"))
        table[run.facets_key(facets)] = answer
    sections = {"many-small": {"by_facets": table}}
    for name in ("wide", "tall", "oracle"):
        workload = WORKLOADS[name]
        problems = workload.generate(DEFAULT_SEED)
        answers = []
        for p in problems:
            answer = workload.answer(workload.call(fb, workload.build(fb, p)))
            reason = run.judge(workload, fb, p, answer, lambda _: None)
            if reason is not None:
                raise SystemExit(f"{name} problem {p.index}: {reason}")
            answers.append(answer)
        sections[name] = {"seed": DEFAULT_SEED, "digest": digest(problems),
                          "answers": answers}
        print(f"{name}: {len(answers)} answers", file=sys.stderr)
    for key, answer in table.items():
        facets = [int(h) for h in key.split(",")]
        problem = run.Problem(0, 0, {"n": 5, "facets": facets})
        if small.expected(problem) != answer:
            raise SystemExit(f"many-small {key}: {answer} disagrees with the derivation")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in sections.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
