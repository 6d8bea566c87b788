"""Seeded closed-loop benchmark for froblocus.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

One process, one thread, one caller: each problem starts only after the
previous one has returned.  The workload's inputs are generated from
``--seed``; froblocus receives only those inputs, imported from ``src/``
of the checkout this file sits in.  Every answer is checked after the
timed window.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs a fixed problem set untraced and then traced and prints the per-layer
metrics.  The last line of standard output is one JSON object.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Problem, Workload, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPAN_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Attempt:
    index: int
    latency: float
    answer: object = None
    error: str | None = None


# ------------------------------------------------------------------ set-up

def import_froblocus():
    """A fresh import of froblocus (and its CLI) from this checkout."""
    for name in [n for n in sys.modules if n == "froblocus" or n.startswith("froblocus.")]:
        del sys.modules[name]
    fb = importlib.import_module("froblocus")
    importlib.import_module("froblocus.cli")
    if Path(fb.__file__).resolve().parent != SRC / "froblocus":
        raise BenchError(f"imported froblocus from {fb.__file__}, not from {SRC}")
    return fb


def set_up(workload: Workload, problems: list[Problem], repeats: int):
    """Import and build the inputs ``repeats`` times; return the last import,
    its built inputs and the median set-up time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fb = import_froblocus()
        built = [workload.build(fb, p) for p in problems]
        times.append(time.perf_counter() - t0)
    # the benchmark's own objects are not the program's to scan
    gc.collect()
    gc.freeze()
    return fb, built, statistics.median(times)


# --------------------------------------------------------------- measuring

def attempt(workload: Workload, fb, problem: Problem, built, tracer=None) -> Attempt:
    t0 = time.perf_counter()
    try:
        raw = workload.call(fb, built)
    except Exception as exc:  # every failure of the program counts, none stops the run
        return Attempt(problem.index, time.perf_counter() - t0,
                       error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    if tracer is not None:
        for key, amount in workload.counters(raw).items():
            tracer.add(key, amount)
    try:
        return Attempt(problem.index, latency, answer=workload.answer(raw))
    except Exception as exc:
        return Attempt(problem.index, latency, error=f"{type(exc).__name__}: {exc}")


def timed_loop(workload, fb, problems, built, seconds) -> list[Attempt]:
    """Closed loop over the pool until ``seconds`` have passed, stopping at
    the end of a rotation; the pool is rebuilt (untimed) if it runs out."""
    attempts = []
    begin = time.perf_counter()
    i = 0
    while True:
        if i == len(problems):
            i = 0
            built = [workload.build(fb, p) for p in problems]
        problem, inputs = problems[i], built[i]
        built[i] = None  # each built input is used once; drops cached state
        attempts.append(attempt(workload, fb, problem, inputs))
        i += 1
        if problem.slot == workload.slots - 1 and time.perf_counter() - begin >= seconds:
            return attempts


# ---------------------------------------------------------------- checking

class Reference:
    """Answers the seed commit's ``method="both"`` gave, as stored."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            self.data = json.load(fh)

    def lookup(self, workload: Workload, seed: int, pool_digest: str):
        stored = self.data.get(workload.name)
        if stored is None:
            return lambda problem: None
        if "by_facets" in stored:
            table = stored["by_facets"]
            return lambda problem: table.get(facets_key(problem.data["facets"]))
        if seed != stored["seed"]:
            return lambda problem: None
        if pool_digest != stored["digest"]:
            raise BenchError(f"{workload.name}: stored reference is for other inputs")
        answers = stored["answers"]
        return lambda problem: answers[problem.index] if problem.index < len(answers) else None


def facets_key(facets) -> str:
    return ",".join(str(h) for h in sorted(facets))


def check(workload, fb, problems, attempts, reference) -> dict[int, str]:
    """Problem index -> reason, for every attempt whose answer is wrong."""
    bad: dict[int, str] = {}
    verdicts: dict[int, str | None] = {}
    for a in attempts:
        if a.error is not None:
            bad[a.index] = a.error
            continue
        if a.index not in verdicts:
            verdicts[a.index] = judge(workload, fb, problems[a.index], a.answer, reference)
        if verdicts[a.index] is not None:
            bad[a.index] = verdicts[a.index]
    return bad


def judge(workload, fb, problem, answer, reference) -> str | None:
    expected = workload.expected(problem)
    if expected is not None and answer != expected:
        return f"answer {answer} != derived {expected}"
    stored = reference(problem)
    if stored is not None and answer != stored:
        return f"answer {answer} != stored reference {stored}"
    try:
        return workload.verify(fb, problem, answer)
    except Exception as exc:
        return f"verification raised {type(exc).__name__}: {exc}"


def failed_count(attempts, bad) -> int:
    return sum(1 for a in attempts if a.error is not None or a.index in bad)


# ----------------------------------------------------------------- metrics

def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    values = sorted(values)
    pos = (len(values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(workload, attempts, failed, setup_s) -> list[tuple]:
    """Rows of (name, value, unit, samples, note)."""
    lat = [a.latency for a in attempts]
    n = len(lat)
    tail = percentile(lat, workload.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        ("problems_per_s", (n - failed) / sum(lat), "1/s", n, "answered and checked / busy s"),
        ("latency_p50_ms", statistics.median(lat) * 1e3, "ms", n, "p50"),
        ("latency_tail_ms", tail * 1e3, "ms", n,
         f"p{workload.tail_pct:g}, {beyond} samples beyond"),
        ("setup_s", setup_s, "s", SETUP_REPEATS, "median of import + build"),
        ("peak_rss_mb", rss_mb, "MB", 1, "ru_maxrss"),
        ("failed_frac", failed / n, "ratio", n, "not in JSON: always 0 when correct"),
    ]


class Layers:
    """Per-layer metrics from one traced pass."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.totals = tracer.totals()

    def calls(self, span):
        return self.totals.get(span, (0, 0.0, 0.0))[0]

    def incl(self, span):
        return self.totals.get(span, (0, 0.0, 0.0))[1]

    def self_s(self, prefix):
        return sum(v[2] for k, v in self.totals.items() if k.startswith(prefix))

    def count(self, key):
        return self.t.counts.get(key, 0)

    def faces_tested(self):
        return self.t.count_under({"criterion.test", "simplicial.free_faces"},
                                  "locus.non_fg_locus")


_CX = "simplicial.SimplicialComplex."
_MI = "monomials.MonomialIdeal."
# (metric, unit, program names the metric needs, value)
PER_LAYER = (
    ("cli.main_s", "s", ("cli.main",), lambda L: L.incl("cli.main")),
    ("cli.self_s", "s", ("cli.main",), lambda L: L.self_s("cli.")),
    ("cli.output_bytes", "bytes", ("cli.main",), lambda L: L.count("cli.output_bytes")),
    ("parsing.parse_problem_s", "s", ("parsing.parse_problem",),
     lambda L: L.incl("parsing.parse_problem")),
    ("parsing.parse_problem_calls", "count", ("parsing.parse_problem",),
     lambda L: L.calls("parsing.parse_problem")),
    ("simplicial.from_ideal_s", "s", (_CX + "from_ideal",),
     lambda L: L.incl("simplicial.from_ideal")),
    ("simplicial.to_ideal_s", "s", (_CX + "to_ideal",), lambda L: L.incl("simplicial.to_ideal")),
    ("simplicial.faces_s", "s", (_CX + "faces",), lambda L: L.incl("simplicial.faces")),
    ("simplicial.faces_enumerated", "count", (_CX + "faces",),
     lambda L: L.count("simplicial.faces_enumerated")),
    ("simplicial.link_calls", "count", (_CX + "link",), lambda L: L.calls("simplicial.link")),
    ("simplicial.link_s", "s", (_CX + "link",), lambda L: L.incl("simplicial.link")),
    ("simplicial.free_faces_s", "s", (_CX + "free_faces",),
     lambda L: L.incl("simplicial.free_faces")),
    ("locus.non_fg_locus_s", "s", ("locus.non_fg_locus",),
     lambda L: L.incl("locus.non_fg_locus")),
    ("locus.algebraic_s", "s", ("locus.locus_algebraic",), lambda L: L.incl("locus.algebraic")),
    ("locus.combinatorial_s", "s", ("locus.locus_combinatorial",),
     lambda L: L.incl("locus.combinatorial")),
    ("locus.self_s", "s", ("locus.non_fg_locus",), lambda L: L.self_s("locus.")),
    ("locus.faces_tested", "count",
     ("locus.non_fg_locus", "locus._criterion", _CX + "free_faces"),
     lambda L: L.faces_tested()),
    ("locus.faces_accepted", "count", ("locus.non_fg_locus",),
     lambda L: L.count("locus.faces_accepted")),
    ("locus.maximal_faces", "count", ("locus.non_fg_locus",),
     lambda L: L.count("locus.maximal_faces")),
    ("locus.useful_ratio", "ratio",
     ("locus.non_fg_locus", "locus._criterion", _CX + "free_faces"),
     lambda L: L.count("locus.maximal_faces") / max(L.faces_tested(), 1)),
    ("criterion.test_calls", "count", ("locus._criterion",), lambda L: L.calls("criterion.test")),
    ("criterion.test_s", "s", ("locus._criterion",), lambda L: L.incl("criterion.test")),
    ("criterion.frobenius_colon_calls", "count", ("criterion.frobenius_colon",),
     lambda L: L.calls("criterion.frobenius_colon")),
    ("criterion.frobenius_colon_s", "s", ("criterion.frobenius_colon",),
     lambda L: L.incl("criterion.frobenius_colon")),
    ("criterion.generation_ideal_s", "s", ("criterion.degree_generation_ideal",),
     lambda L: L.incl("criterion.generation_ideal")),
    ("criterion.oracle_e2_s", "s", ("criterion.new_generators_vanish",),
     lambda L: L.incl("criterion.oracle_e2")),
    ("criterion.oracle_e3_s", "s", ("criterion.new_generators_vanish",),
     lambda L: L.incl("criterion.oracle_e3")),
    ("criterion.oracle_e4_s", "s", ("criterion.new_generators_vanish",),
     lambda L: L.incl("criterion.oracle_e4")),
    ("monomials.minimalize_calls", "count", ("monomials._minimalize",),
     lambda L: L.calls("monomials.minimalize")),
    ("monomials.minimalize_in", "count", ("monomials._minimalize",),
     lambda L: L.count("monomials.minimalize_in")),
    ("monomials.minimalize_s", "s", ("monomials._minimalize",),
     lambda L: L.incl("monomials.minimalize")),
    ("monomials.colon_raw_s", "s", ("criterion._colon_ideal_raw",),
     lambda L: L.incl("monomials.colon_raw")),
    ("monomials.intersect_pairs", "count", ("monomials._intersect_raw",),
     lambda L: L.count("monomials.intersect_pairs")),
    ("monomials.mul_pairs", "count", (_MI + "__mul__",), lambda L: L.count("monomials.mul_pairs")),
    ("monomials.peak_gens", "count",
     tuple(_MI + op for op in ("__mul__", "__add__", "colon", "intersection", "bracket")),
     lambda L: L.count("monomials.peak_gens")),
)


# ------------------------------------------------------------------- modes

def run_untraced(workload, problems, seconds, reference):
    fb, built, setup_s = set_up(workload, problems, SETUP_REPEATS)
    attempts = timed_loop(workload, fb, problems, built, seconds)
    bad = check(workload, fb, problems, attempts, reference)
    failed = failed_count(attempts, bad)
    rows = end_to_end(workload, attempts, failed, setup_s)
    rotations = len(attempts) // workload.slots
    print(f"measured {len(attempts)} problems ({rotations} rotations of "
          f"{workload.slots} shape classes), {sum(a.latency for a in attempts):.2f} s busy")
    report_failures(bad)
    print(f"{'metric':<18} {'value':>14} {'unit':<6} {'samples':>8}  note")
    for name, value, unit, samples, note in rows:
        print(f"{name:<18} {value:>14.6g} {unit:<6} {samples:>8}  {note}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows if name != "failed_frac"}
    return len(attempts), failed, metrics


def run_traced(workload, problems, seed, reference):
    subset = problems[:workload.trace_problems]
    fb, built, _ = set_up(workload, subset, 1)
    plain = [attempt(workload, fb, p, b) for p, b in zip(subset, built)]
    built = [workload.build(fb, p) for p in subset]
    tracer = Tracer()
    tracer.install(fb)
    try:
        traced = []
        for p, b in zip(subset, built):
            tracer.problem = p.index
            traced.append(attempt(workload, fb, p, b, tracer))
    finally:
        tracer.uninstall()
    clean = tracer.leaves_no_trace(fb)
    bad = check(workload, fb, problems, plain + traced, reference)
    for a, b in zip(plain, traced):
        if a.answer != b.answer and a.index not in bad:
            bad[a.index] = f"traced answer {b.answer} != untraced {a.answer}"
    failed = sum(1 for p in subset if p.index in bad)
    overhead = sum(a.latency for a in traced) / sum(a.latency for a in plain)
    span_file = SPAN_DIR / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(span_file)

    print(f"traced {len(subset)} problems, {len(tracer.start)} spans -> "
          f"{span_file.relative_to(ROOT)}; wrappers removed: {clean}")
    report_failures(bad)
    print(f"{'metric':<32} {'value':>14} unit")
    metrics = {}
    for name, value, unit, note in per_layer_metrics(tracer):
        if value is None:
            print(f"{name:<32} {'absent':>14} {unit}  {note}")
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            print(f"{name:<32} {value:>14.6g} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"{'trace.overhead_ratio':<32} {overhead:>14.6g} ratio  (traced / untraced busy time)")
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return len(subset), failed, metrics, clean


def per_layer_metrics(tracer: Tracer) -> list[tuple]:
    """Rows of (name, value or None when absent, unit, note)."""
    layers = Layers(tracer)
    rows = []
    for name, unit, needs, value_of in PER_LAYER:
        missing = [n for n in needs if n in tracer.absent]
        if missing:
            rows.append((name, None, unit, f"({', '.join(missing)} not found)"))
            continue
        note = ""
        if name == "locus.useful_ratio":
            note = (f"  ({layers.count('locus.maximal_faces')} maximal / "
                    f"{layers.faces_tested()} tested)")
        rows.append((name, value_of(layers), unit, note))
    return rows


def report_failures(bad: dict[int, str]) -> None:
    for index, reason in list(bad.items())[:5]:
        print(f"FAILED problem {index}: {reason}")
    if len(bad) > 5:
        print(f"... {len(bad) - 5} more failed problems")


def describe(workload, problems, seed) -> str:
    pool_digest = digest(problems)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {seed}  pool {len(problems)} problems  digest {pool_digest}")
    shape = workload.shape(problems)
    print("shape (min/median/max over the pool): "
          + "  ".join(f"{k} {v}" for k, v in shape.items()))
    return pool_digest


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "froblocus" / "__init__.py").is_file():
        print(f"error: no froblocus sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    try:
        problems = workload.generate(args.seed)
        pool_digest = describe(workload, problems, args.seed)
        reference = Reference(REFERENCE).lookup(workload, args.seed, pool_digest)
        if args.trace:
            attempted, failed, metrics, clean = run_traced(
                workload, problems, args.seed, reference)
        else:
            attempted, failed, metrics = run_untraced(
                workload, problems, args.seconds, reference)
            clean = True
    except (BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0 and clean, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
