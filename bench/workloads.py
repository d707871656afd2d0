"""The benchmark's workloads and the output checks.

One *pass* of a workload runs in a fresh interpreter (``one_pass.py``):
it generates its instances from ``(workload seed, pass index)``, calls
into ``orientlab`` and checks every report.  The checks do not depend on
the sampling streams, so they stay valid when the streams change:

- the CSV header equals ``csv_header()``, with one row per algorithm;
- every number is finite, and ``n_samples`` and ``seed`` echo the request;
- ``mean_opt`` is identical across the algorithms of one paired run;
- ``ratio >= 1`` and ``ci_lo <= ratio <= ci_hi``, up to a relative
  ``ROUNDING``: the program sums a realization's algorithm cost and its
  optimal cost in different orders, and the bootstrap sums blocks, so on
  instances where the algorithm is optimal the ratio can read 1 - 3e-16
  and sit an ulp outside its own interval;
- for threshold and bestvc rows on graphs, ``mean_alg`` lies within
  ``EXACT_TOLERANCE_SIGMAS`` standard errors of the exact
  ``c(Q1) + sum_{v not in Q1} p_v c_v``, where ``Q1`` comes from
  ``plan_threshold`` / ``plan_best_vc`` and ``p_v`` from
  ``exact_prob_graph``.  The standard error uses the bound
  ``sd(ALG) <= sum_{v not in Q1} c_v sqrt(p_v (1 - p_v))``.

The module imports only the standard library at import time; numpy and
``orientlab`` are imported inside the pass functions.
"""

from __future__ import annotations

import csv
import io
import math

GRAPH_SAMPLES = 2000
HYPER_SAMPLES = 4000
SWEEP_SAMPLES = 400
SWEEP_PAIRS = 10  # each pair: one gnp instance (2 evaluations), one bipartite (1)
EXACT_TOLERANCE_SIGMAS = 6.0
ROUNDING = 1e-12

# evaluations: harness.evaluate calls one pass attempts.  min_passes keeps
# a short run meaningful; on gnp-sweep it guarantees at least 100
# evaluations, so that eval_ms.p90 has ten samples beyond it.
WORKLOADS = {
    "graph-paired": {"evaluations": 3, "min_passes": 3},
    "hyper-paired": {"evaluations": 3, "min_passes": 3},
    "gnp-sweep": {"evaluations": 3 * SWEEP_PAIRS, "min_passes": 4},
}

_TAGS = {"graph-paired": 1, "hyper-paired": 2, "gnp-sweep": 3}


def _rng(workload: str, seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, index, _TAGS[workload]])


# ---------------------------------------------------------------------------
# Passes


def graph_paired(ctx, seed: int, index: int) -> None:
    """A weighted 16-vertex gnp graph through ``orientlab run`` with the
    three default algorithms and one worker."""
    from orientlab import harness

    rng = _rng("graph-paired", seed, index)
    instance = harness.gen_random("gnp", rng, n=16, p=0.3, unit_cost=False)
    master = int(rng.integers(1, 2**31))
    algorithms = [("threshold", 1.0, None), ("bestvc", None, None), ("baseline", None, None)]
    ctx.cli_run(instance, algorithms, GRAPH_SAMPLES, master, [])


def hyper_paired(ctx, seed: int, index: int) -> None:
    """A weighted hypergraph (12 vertices, 5 hyperedges of size up to 4)
    through ``orientlab run`` with sampled planning and two pool workers."""
    from orientlab import harness

    rng = _rng("hyper-paired", seed, index)
    instance = harness.gen_random("hypergraph", rng, n=12, m=5, max_size=4, unit_cost=False)
    master = int(rng.integers(1, 2**31))
    algorithms = [("threshold-hyper", None, None), ("bestvc", None, None), ("baseline", None, None)]
    extra = ["--eps", "0.02", "--threads", "2"]
    ctx.cli_run(instance, algorithms, HYPER_SAMPLES, master, extra)


def gnp_sweep(ctx, seed: int, index: int) -> None:
    """Small instances evaluated in-process, in the shape of the
    threshold-upper-bound and bestvc-bipartite acceptance criteria."""
    from orientlab import harness

    rng = _rng("gnp-sweep", seed, index)
    jobs = []
    for i in range(SWEEP_PAIRS):
        gnp = None
        # An edgeless draw (about 1 in 1500) has E[OPT] = 0, where the ratio
        # is undefined and evaluate raises ZeroDivisionError, a known
        # defect.  The sweep measures speed where the ratio exists: redraw.
        while gnp is None or not gnp.hyperedges:
            n = int(rng.integers(6, 17))
            p = float(rng.uniform(0.2, 0.4))
            gnp = harness.gen_random("gnp", rng, n=n, p=p)
        master = int(rng.integers(1, 2**31))
        jobs.append((f"gnp{i}", gnp, [("threshold", 1.0, None), ("threshold", 2.0, 0.5)], master))
        nl, nr = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        bip = harness.gen_random(
            "bipartite", rng, nl=nl, nr=nr, p=0.45, unit_cost=bool(rng.integers(0, 2))
        )
        master = int(rng.integers(1, 2**31))
        jobs.append((f"bip{i}", bip, [("bestvc", None, None)], master))
    for instance_id, instance, algorithms, master in jobs:
        ctx.evaluate_run(instance_id, instance, algorithms, SWEEP_SAMPLES, master)


PASSES = {"graph-paired": graph_paired, "hyper-paired": hyper_paired, "gnp-sweep": gnp_sweep}


# ---------------------------------------------------------------------------
# Checks


def spec_of(kind: str, alpha, d):
    from orientlab import harness

    if kind.startswith("threshold"):
        return harness.AlgorithmSpec(kind, alpha=alpha if alpha is not None else 1.0, d=d)
    return harness.AlgorithmSpec(kind)


def exact_alg_mean(instance, kind: str, alpha, d) -> tuple[float, float]:
    """Exact E[ALG] of a graph cover-first policy and a bound on sd(ALG)."""
    from orientlab import algorithms as alg
    from orientlab import mandatory, vcover

    probs = mandatory.exact_prob_graph(instance).probs
    if kind == "threshold":
        alpha = 1.0 if alpha is None else alpha
        # The harness's automatic cover choice for threshold on graphs.
        strategy = "local-ratio" if alpha >= 2.0 else "exact-small"
        stage1 = alg.plan_threshold(instance, alg.ThresholdConfig(alpha, d, strategy)).stage1
    else:
        bipartite = vcover.bipartition(vcover.build_cover_graph(instance))
        _, cover = alg.plan_best_vc(instance, "bipartite" if bipartite else "exact-small")
        stage1 = cover.members
    q1 = set(stage1)
    costs = instance.costs
    rest = [v for v in costs if v not in q1]
    mean = math.fsum(costs[v] for v in q1) + math.fsum(probs[v] * costs[v] for v in rest)
    sd = math.fsum(costs[v] * math.sqrt(probs[v] * (1.0 - probs[v])) for v in rest)
    return mean, sd


def check_rows(text: str, instance, algorithms, n_samples: int, master: int, header: bool):
    """Failed evaluations (by position) and messages for one paired run."""
    from orientlab import harness

    failed: set[int] = set()
    messages: list[str] = []
    lines = text.splitlines()
    if header:
        if not lines or lines[0] != harness.csv_header():
            return set(range(len(algorithms))), ["CSV header differs from csv_header()"]
        lines = lines[1:]
    columns = harness.csv_header().split(",")
    raw = list(csv.reader(io.StringIO("\n".join(lines))))
    if len(raw) != len(algorithms) or any(len(r) != len(columns) for r in raw):
        return set(range(len(algorithms))), [f"{len(raw)} rows for {len(algorithms)} algorithms"]
    rows = [dict(zip(columns, r)) for r in raw]
    opts = set()
    for pos, (row, (kind, alpha, d)) in enumerate(zip(rows, algorithms)):
        def fail(msg: str) -> None:
            failed.add(pos)
            messages.append(f"{row.get('algorithm')}: {msg}")

        try:
            nums = {k: float(row[k]) for k in ("mean_alg", "mean_opt", "ratio", "ci_lo", "ci_hi")}
            nums.update({k: float(row[k]) for k in ("d", "alpha") if row[k] != ""})
            echoed = (int(row["n_samples"]), int(row["seed"]))
        except ValueError as exc:
            fail(f"unparsable number: {exc}")
            continue
        if not all(math.isfinite(x) for x in nums.values()):
            fail("non-finite number")
            continue
        if row["algorithm"].split("(")[0] != kind:
            fail(f"expected algorithm {kind}")
        if echoed != (n_samples, master):
            fail("n_samples or seed differ from the request")
        slack = ROUNDING * nums["ratio"]
        if not nums["ratio"] >= 1.0 - slack:
            fail(f"ratio {nums['ratio']} < 1")
        if not nums["ci_lo"] - slack <= nums["ratio"] <= nums["ci_hi"] + slack:
            fail(f"ratio {nums['ratio']} outside [{nums['ci_lo']}, {nums['ci_hi']}]")
        if instance.kind == "graph" and kind in ("threshold", "bestvc"):
            mean, sd = exact_alg_mean(instance, kind, alpha, d)
            tol = EXACT_TOLERANCE_SIGMAS * sd / math.sqrt(n_samples) + 1e-9 * (1.0 + mean)
            if abs(nums["mean_alg"] - mean) > tol:
                fail(f"mean_alg {nums['mean_alg']} vs exact {mean} (tolerance {tol})")
        opts.add(nums["mean_opt"])
    if len(opts) > 1:
        return set(range(len(algorithms))), messages + [f"mean_opt differs: {sorted(opts)}"]
    return failed, messages
