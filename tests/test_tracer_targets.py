"""The benchmark's span tracer against the package it wraps.

``bench/tracer.py`` wraps ``orientlab`` functions by name, and a span name
whose targets are all gone reads as absent in every per-layer metric
built on it.  This pins the set of absent names, so a rename inside the
package cannot silently darken a layer of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only at import
    return module


def _resolves(target):
    """Does ``module:attribute.path`` name a callable, as the tracer
    requires before it wraps a target?"""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_absent_span_names_are_the_known_ones():
    tracer = _load_tracer()
    targets = {**tracer.SPAN_TARGETS, **tracer.COUNT_TARGETS}
    absent = {name for name, paths in targets.items() if not any(map(_resolves, paths))}
    # eval_chunk went with the process pool, mandatory_set_cells with the
    # cell-assignment kernel: mandatory_matrix on weights replaced it
    assert absent == {"harness.eval_chunk", "mandatory.mandatory_set_cells"}
