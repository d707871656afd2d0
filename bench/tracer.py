"""Span tracer installed from outside the program, plus the per-layer metrics.

The tracer wraps functions of ``orientlab`` by rebinding each target's name
in every ``orientlab`` module that holds it (and, for methods, on the
class).  Nothing under ``src/`` is edited.  A target that no longer exists
is recorded as absent and its metrics are reported as absent; the run goes
on.

Each span records (id, name, start, end, parent id, run id, tag).  The run
id is the id of the enclosing ``harness.evaluate`` span (one paired
evaluation), or of the outermost span for work outside any evaluation.
Spans stay in memory; pool workers (forked from a traced process) write
theirs to a file after each chunk and the pass process merges them.

This module uses only the standard library at import time, because the
benchmark runner imports it for the metric formulas.
"""

from __future__ import annotations

import collections
import functools
import marshal
import os
import sys
import time

# Span name -> targets "module:attribute path".  A span name whose targets
# are all missing is absent.
SPAN_TARGETS = {
    "cli.main": ["orientlab.cli:main"],
    "model.parse_instance": ["orientlab.model:parse_instance"],
    "model.sample": ["orientlab.harness:_BlockSampler.realization"],
    "harness.evaluate": ["orientlab.harness:evaluate"],
    "harness.eval_chunk": ["orientlab.harness:_eval_chunk"],
    "harness.bootstrap": ["orientlab.harness:_bootstrap_ci"],
    "algorithms.plan": [
        "orientlab.algorithms:plan_threshold",
        "orientlab.algorithms:plan_best_vc",
    ],
    "algorithms.run": [
        "orientlab.algorithms:_run_plan",
        "orientlab.algorithms:run_fixed_cover",
        "orientlab.algorithms:run_adversarial_baseline",
    ],
    "algorithms.oracle": ["orientlab.algorithms:OfflineOracle.opt"],
    "mandatory.mandatory_set": ["orientlab.mandatory:mandatory_set"],
    "mandatory.is_feasible": ["orientlab.mandatory:is_feasible"],
    "mandatory.exact_prob_graph": ["orientlab.mandatory:exact_prob_graph"],
    "mandatory.estimate_profile": ["orientlab.mandatory:estimate_profile"],
    "vcover.lp_half_integral": ["orientlab.vcover:lp_half_integral"],
    "vcover.cover_solve": [
        "orientlab.vcover:vc_exact_small",
        "orientlab.vcover:vc_bipartite_exact",
        "orientlab.vcover:vc_few_hyperedges",
        "orientlab.vcover:vc_local_ratio_2approx",
    ],
}

# Targets that are only counted: they are called so often, or are so
# short, that a span per call would distort the spans around them.
COUNT_TARGETS = {
    "mandatory.edge_state": ["orientlab.mandatory:_edge_state"],
    "mandatory.mandatory_set_cells": ["orientlab.mandatory:mandatory_set_cells"],
    "vcover.build_cover_graph": ["orientlab.vcover:build_cover_graph"],
}

PROFILE_SPANS = ("mandatory.exact_prob_graph", "mandatory.estimate_profile")


def clock() -> float:
    """CLOCK_MONOTONIC: one time base for the runner, its passes and their workers."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _evaluate_tag(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return getattr(spec, "algorithm_id", None)


def _record_pattern(tracer: "Tracer", run: int, result) -> None:
    tracer.patterns[run].add(",".join(sorted(result)))


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.owner_pid = os.getpid()
        self.stack: list[tuple[int, int]] = []  # (span id, run id); forked workers inherit it
        self._enter_process()
        self.active = False
        self.absent: list[str] = []
        self.flushes = 0

    def _enter_process(self) -> None:
        """Start empty records in this process, keeping the span stack."""
        self.pid = os.getpid()
        self.id_base = self.pid * 10**9
        self.next_id = 0
        self._clear()

    def _clear(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.patterns: dict[int, set[str]] = collections.defaultdict(set)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, tag=None, observe=None, opens_run=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.next_id += 1
            sid = tracer.id_base + tracer.next_id
            stack = tracer.stack
            parent, run = stack[-1] if stack else (None, sid)
            if opens_run:
                run = sid
            stack.append((sid, run))
            label = None
            if tag is not None:
                try:
                    label = tag(args, kwargs)
                except Exception:  # a changed signature must not stop the run
                    label = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, run, label))
            if observe is not None:
                observe(tracer, run, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _chunk_wrapper(self, fn, name):
        """Span around a pool chunk; in a forked worker it starts a fresh
        span list and writes it out when the chunk ends."""
        tracer = self
        inner = self._span_wrapper(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.owner_pid:
                return inner(*args, **kwargs)
            if tracer.pid != os.getpid():
                tracer._enter_process()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.flush()

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every target; record span names whose targets are gone."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "orientlab" and m]
        plans = [(n, t, "span") for n, ts in SPAN_TARGETS.items() for t in ts]
        plans += [(n, t, "count") for n, ts in COUNT_TARGETS.items() for t in ts]
        found: dict[str, int] = collections.Counter()
        for name, target, kind in plans:
            if self._install_one(modules, name, target, kind):
                found[name] += 1
        for name in list(SPAN_TARGETS) + list(COUNT_TARGETS):
            if not found[name]:
                self.absent.append(name)

    def _install_one(self, modules, name, target, kind) -> bool:
        module_name, _, path = target.partition(":")
        owner = sys.modules.get(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if not callable(original):
            return False
        if kind == "count":
            wrapper = self._count_wrapper(original, name)
        elif name == "harness.eval_chunk":
            wrapper = self._chunk_wrapper(original, name)
        elif name == "harness.evaluate":
            wrapper = self._span_wrapper(original, name, tag=_evaluate_tag, opens_run=True)
        elif name == "mandatory.mandatory_set":
            wrapper = self._span_wrapper(original, name, observe=_record_pattern)
        else:
            wrapper = self._span_wrapper(original, name)
        if len(parts) > 1:  # a method: rebind on its class
            setattr(owner, parts[-1], wrapper)
            return True
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
        return True

    # -- output -----------------------------------------------------------

    def flush(self) -> None:
        """Write this worker's spans, counts and patterns, then clear them.

        marshal keeps the write short, since it happens inside the traced
        evaluation; the pass process reads back only files its own
        workers wrote.
        """
        self.flushes += 1
        path = os.path.join(self.span_dir, f"worker-{self.pid}-{self.flushes}.marshal")
        with open(path, "wb") as fh:
            marshal.dump(
                (self.spans, dict(self.counts), {k: sorted(v) for k, v in self.patterns.items()}),
                fh,
            )
        self._clear()

    def collect(self) -> tuple[list[tuple], collections.Counter, dict[int, set[str]]]:
        """This process's spans merged with every worker file in span_dir."""
        spans = list(self.spans)
        counts = collections.Counter(self.counts)
        patterns = collections.defaultdict(set, {k: set(v) for k, v in self.patterns.items()})
        for entry in sorted(os.listdir(self.span_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".marshal")):
                continue
            path = os.path.join(self.span_dir, entry)
            with open(path, "rb") as fh:
                part_spans, part_counts, part_patterns = marshal.load(fh)
            os.remove(path)
            spans.extend(part_spans)
            counts.update(part_counts)
            for run, pats in part_patterns.items():
                patterns[run].update(pats)
        return spans, counts, patterns


def summarize(spans, counts, patterns) -> dict:
    """Reduce one pass's spans to sums that add up across passes."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = collections.defaultdict(float)
    for sid, _, t0, t1, parent, _, _ in spans:
        # Self time subtracts children of the same process only: a pool
        # worker's chunk does not cover its parent's waiting.
        if parent in by_id and parent // 10**9 == sid // 10**9:
            child_time[parent] += t1 - t0
    sums: dict = collections.defaultdict(float)
    plans_by_run: dict[int, int] = collections.Counter()
    for sid, name, t0, t1, parent, run, _ in spans:
        dur = t1 - t0
        sums[f"{name}.n"] += 1
        sums[f"{name}.dur"] += dur
        sums[f"{name}.self"] += dur - child_time[sid]
        parent_name = by_id[parent][1] if parent in by_id else None
        if parent_name == "algorithms.plan":
            if name in PROFILE_SPANS:
                sums["plan.profile.dur"] += dur
            elif name == "vcover.lp_half_integral":
                sums["plan.lp.dur"] += dur
            elif name == "vcover.cover_solve":
                sums["plan.cover.dur"] += dur
        if name == "vcover.cover_solve" and parent_name == "algorithms.oracle":
            sums["oracle.cover_solves"] += 1
        if name == "algorithms.plan":
            plans_by_run[run] += 1
    plans_by_algorithm: dict[str, list[int]] = {}
    for sid, name, _, _, _, run, label in spans:
        if name == "harness.evaluate":
            entry = plans_by_algorithm.setdefault(str(label), [0, 0])
            entry[0] += 1
            entry[1] += plans_by_run.get(run, 0)
            if plans_by_run.get(run, 0):
                sums["planning_evaluates"] += 1
    sums["oracle.patterns"] = float(sum(len(v) for v in patterns.values()))
    for name, n in counts.items():
        sums[f"{name}.count"] += n
    out = dict(sums)
    out["plans_by_algorithm"] = plans_by_algorithm
    return out


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "plans_by_algorithm":
            dest = total.setdefault(key, {})
            for alg, (evals, plans) in value.items():
                entry = dest.setdefault(alg, [0, 0])
                entry[0] += evals
                entry[1] += plans
        else:
            total[key] = total.get(key, 0.0) + value


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metric -> (span or count names it needs, formula over the summed
# pass totals ``s``, the realizations ``r`` and the evaluations ``e``).
PER_LAYER = {
    "model.sample.calls": (["model.sample"], lambda s, r, e: _ratio(s.get("model.sample.n", 0), r)),
    "model.sample.us_per_call": (["model.sample"], lambda s, r, e: 1e6 * _ratio(s.get("model.sample.dur", 0), s.get("model.sample.n", 0))),
    "model.parse_instance.ms": (["model.parse_instance"], lambda s, r, e: 1e3 * _ratio(s.get("model.parse_instance.dur", 0), s.get("model.parse_instance.n", 0))),
    "mandatory.mandatory_set.calls": (["mandatory.mandatory_set"], lambda s, r, e: _ratio(s.get("mandatory.mandatory_set.n", 0), r)),
    "mandatory.mandatory_set.us_per_call": (["mandatory.mandatory_set"], lambda s, r, e: 1e6 * _ratio(s.get("mandatory.mandatory_set.dur", 0), s.get("mandatory.mandatory_set.n", 0))),
    "mandatory.is_feasible.calls": (["mandatory.is_feasible"], lambda s, r, e: _ratio(s.get("mandatory.is_feasible.n", 0), r)),
    "mandatory.is_feasible.us_per_call": (["mandatory.is_feasible"], lambda s, r, e: 1e6 * _ratio(s.get("mandatory.is_feasible.dur", 0), s.get("mandatory.is_feasible.n", 0))),
    "mandatory.edge_state.calls_per_realization": (["mandatory.edge_state"], lambda s, r, e: _ratio(s.get("mandatory.edge_state.count", 0), r)),
    "mandatory.exact_prob_graph.ms": (["mandatory.exact_prob_graph"], lambda s, r, e: 1e3 * _ratio(s.get("mandatory.exact_prob_graph.dur", 0), e)),
    "mandatory.estimate_profile.ms": (["mandatory.estimate_profile"], lambda s, r, e: 1e3 * _ratio(s.get("mandatory.estimate_profile.dur", 0), e)),
    "mandatory.mandatory_set_cells.calls": (["mandatory.mandatory_set_cells"], lambda s, r, e: _ratio(s.get("mandatory.mandatory_set_cells.count", 0), e)),
    "vcover.lp_half_integral.ms": (["vcover.lp_half_integral"], lambda s, r, e: 1e3 * _ratio(s.get("vcover.lp_half_integral.dur", 0), e)),
    "vcover.cover_solve.calls": (["vcover.cover_solve"], lambda s, r, e: _ratio(s.get("vcover.cover_solve.n", 0), e)),
    "vcover.cover_solve.ms": (["vcover.cover_solve"], lambda s, r, e: 1e3 * _ratio(s.get("vcover.cover_solve.dur", 0), e)),
    "vcover.build_cover_graph.calls": (["vcover.build_cover_graph"], lambda s, r, e: _ratio(s.get("vcover.build_cover_graph.count", 0), e)),
    "algorithms.plan.ms": (["algorithms.plan"], lambda s, r, e: 1e3 * _ratio(s.get("algorithms.plan.dur", 0), e)),
    "algorithms.plan.profile.ms": (["algorithms.plan", *PROFILE_SPANS], lambda s, r, e: 1e3 * _ratio(s.get("plan.profile.dur", 0), e)),
    "algorithms.plan.lp.ms": (["algorithms.plan", "vcover.lp_half_integral"], lambda s, r, e: 1e3 * _ratio(s.get("plan.lp.dur", 0), e)),
    "algorithms.plan.cover.ms": (["algorithms.plan", "vcover.cover_solve"], lambda s, r, e: 1e3 * _ratio(s.get("plan.cover.dur", 0), e)),
    "algorithms.run.self_us_per_realization": (["algorithms.run"], lambda s, r, e: 1e6 * _ratio(s.get("algorithms.run.self", 0), s.get("algorithms.run.n", 0))),
    "algorithms.oracle.calls": (["algorithms.oracle"], lambda s, r, e: _ratio(s.get("algorithms.oracle.n", 0), r)),
    "algorithms.oracle.us_per_call": (["algorithms.oracle"], lambda s, r, e: 1e6 * _ratio(s.get("algorithms.oracle.dur", 0), s.get("algorithms.oracle.n", 0))),
    "algorithms.oracle.memo_hit_ratio": (["algorithms.oracle", "vcover.cover_solve"], lambda s, r, e: 1.0 - _ratio(s.get("oracle.cover_solves", 0), s.get("algorithms.oracle.n", 0))),
    "algorithms.oracle.distinct_patterns": (["algorithms.oracle", "mandatory.mandatory_set"], lambda s, r, e: _ratio(s.get("oracle.patterns", 0), e)),
    "harness.evaluate.ms": (["harness.evaluate"], lambda s, r, e: 1e3 * _ratio(s.get("harness.evaluate.dur", 0), s.get("harness.evaluate.n", 0))),
    "harness.eval_chunk.ms": (["harness.eval_chunk"], lambda s, r, e: 1e3 * _ratio(s.get("harness.eval_chunk.dur", 0), e)),
    "harness.pool_wait.ms": (["harness.evaluate", "harness.eval_chunk", "harness.bootstrap"], lambda s, r, e: 1e3 * _ratio(s.get("harness.evaluate.self", 0), e)),
    "harness.bootstrap.ms": (["harness.bootstrap"], lambda s, r, e: 1e3 * _ratio(s.get("harness.bootstrap.dur", 0), e)),
    "harness.plans_per_evaluate": (["harness.evaluate", "algorithms.plan"], lambda s, r, e: _ratio(s.get("algorithms.plan.n", 0), s.get("planning_evaluates", 0))),
    "cli.main.self_ms": (["cli.main"], lambda s, r, e: 1e3 * _ratio(s.get("cli.main.self", 0), s.get("cli.main.n", 0))),
}


def per_layer(sums: dict, realizations: int, evaluations: int, absent: set[str]) -> tuple[dict, list[str]]:
    """Metric values from summed pass totals; names whose spans are absent
    are reported with value 0 and listed in the second result."""
    values, missing = {}, []
    for name, (needs, formula) in PER_LAYER.items():
        if any(n in absent for n in needs):
            values[name] = 0.0
            missing.append(name)
        else:
            values[name] = float(formula(sums, realizations, evaluations))
    return values, missing
