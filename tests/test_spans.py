"""The benchmark's span points must name functions that exist.

``perfbench/spans.py`` wraps froblocus functions by name and reports a name
it cannot find as absent, which turns a benchmark result into ``null``.
This test reads that file only, so a renamed or deleted traced function
fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import froblocus
import froblocus.cli  # noqa: F401  the tracer wraps names in every loaded module

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_spans().Tracer()
    try:
        tracer.install(froblocus)
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    assert tracer.leaves_no_trace(froblocus)
