"""Acceptance criteria for the whole package, runnable via the CLI
(``orientlab check <suite>``) or pytest.

Each criterion pins the quantity it checks, the tolerance, and the
seeds, so a run is reproducible end to end.  Monte-Carlo tolerances are
sized to cover sampling noise at the stated sample counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algorithms import AlgorithmSpec, OfflineOracle, guaranteed_ratio, hyper_ratio
from .harness import (
    _raise_bounds,
    best_two_stage_cost,
    evaluate,
    evaluate_all,
    exact_expected_opt,
    expected_opt_generalized,
    gen_benchmark,
    gen_generalized,
    gen_random,
    two_stage_expected_opt,
    vertex_split,
)
from .mandatory import (
    estimate_profile,
    hoeffding_sample_count,
    is_feasible,
    mandatory_set,
)
from .model import sample_realization
from .vcover import (
    bipartition,
    build_cover_graph,
    lp_half_integral,
    make_cover_graph,
    vc_bipartite_exact,
    vc_exact_small,
    vc_few_hyperedges,
    vc_local_ratio_2approx,
)

__all__ = ["CriterionResult", "CRITERIA", "SUITES", "run_criterion", "run_suite"]

SEED = 20240 + 817


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, passed: bool, detail: str, start: float) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------


def check_fork_exact_optimum() -> CriterionResult:
    """Exact and Monte-Carlo expected optimum of the fork instance."""
    start = time.perf_counter()
    details = []
    ok = True
    for eps in (0.1, 0.01):
        inst = gen_benchmark("fork", eps=eps)
        expect = 2.0 - (1.0 - eps) ** 2 / 2.0
        exact = exact_expected_opt(inst)
        if abs(exact - expect) > 1e-12:
            ok = False
        rep = evaluate(inst, AlgorithmSpec("offline-opt"), 100_000, SEED, "fork")
        rel = abs(rep.mean_opt - exact) / exact
        if rel > 0.01:
            ok = False
        details.append(f"eps={eps}: exact={exact:.12f} mc={rep.mean_opt:.5f} rel={rel:.4%}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s >= 10s")
    return _result("fork-exact-optimum", ok, "; ".join(details), start)


def check_general_lower_bound() -> CriterionResult:
    """Every implemented two-stage algorithm pays >= 4/3 - tol on the fork."""
    start = time.perf_counter()
    inst = gen_benchmark("fork", eps=0.001)
    bound = 4.0 / 3.0 - 0.02
    specs = [
        AlgorithmSpec("threshold", alpha=1.0),
        AlgorithmSpec("threshold", alpha=2.0, d=0.5),
        AlgorithmSpec("bestvc"),
        AlgorithmSpec("baseline"),
        AlgorithmSpec("fixed-cover", cover=("x",)),
        AlgorithmSpec("fixed-cover", cover=("y", "z")),
    ]
    ratios = []
    ok = True
    reports = _raise_bounds(evaluate_all(inst, specs, 100_000, SEED, "fork"))
    for spec, rep in zip(specs, reports):
        ratios.append(f"{spec.algorithm_id}={rep.ratio:.4f}")
        if rep.ratio < bound:
            ok = False
    return _result(
        "general-lower-bound", ok, f"bound {bound:.4f}; " + ", ".join(ratios), start
    )


def check_threshold_upper_bound() -> CriterionResult:
    """Threshold stays within its guarantee on random unit-cost graphs."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    bound_exact = guaranteed_ratio(1.0) + 0.03
    bound_lr = guaranteed_ratio(2.0, 0.5) + 0.03
    specs = [AlgorithmSpec("threshold", alpha=1.0), AlgorithmSpec("threshold", alpha=2.0, d=0.5)]
    worst_exact = worst_lr = 0.0
    ok = True
    for i in range(50):
        n = int(rng.integers(6, 17))
        p = float(rng.uniform(0.2, 0.4))
        inst = gen_random("gnp", rng, n=n, p=p)
        rep, rep2 = _raise_bounds(evaluate_all(inst, specs, 10_000, SEED + i, f"gnp{i}"))
        worst_exact = max(worst_exact, rep.ratio)
        if rep.ratio > bound_exact:
            ok = False
        worst_lr = max(worst_lr, rep2.ratio)
        if rep2.ratio > bound_lr:
            ok = False
    detail = (
        f"50 instances; worst alpha=1 ratio {worst_exact:.4f} <= {bound_exact:.4f}; "
        f"worst alpha=2 ratio {worst_lr:.4f} <= {bound_lr:.4f}"
    )
    return _result("threshold-upper-bound", ok, detail, start)


def check_threshold_tightness() -> CriterionResult:
    """The trap instances force Threshold close to both guarantee branches."""
    start = time.perf_counter()
    d = 0.618
    n = 50
    star = gen_benchmark("star-trap", d=d, n=n)
    rep_star = evaluate(
        star,
        AlgorithmSpec("threshold", alpha=1.0, d=d),
        20_000,
        SEED,
        "star-trap",
        vc_bound=n + 10,
    )
    star_bound = (n + 1) / (1 + n * d) - 0.05
    edge = gen_benchmark("edge-trap", d=d, eps=0.01)
    rep_edge = evaluate(edge, AlgorithmSpec("threshold", alpha=1.0, d=d), 50_000, SEED, "edge-trap")
    edge_bound = 1.0 + d - 0.03
    ok = rep_star.ratio >= star_bound and rep_edge.ratio >= edge_bound
    detail = (
        f"star ratio {rep_star.ratio:.4f} >= {star_bound:.4f}; "
        f"edge ratio {rep_edge.ratio:.4f} >= {edge_bound:.4f}"
    )
    return _result("threshold-tightness", ok, detail, start)


def check_bestvc_bipartite() -> CriterionResult:
    """Cover-first with the exact min-cut cover stays within 4/3 on
    random bipartite instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    bound = 4.0 / 3.0 + 0.02
    worst = 0.0
    ok = True
    for i in range(50):
        nl = int(rng.integers(3, 7))
        nr = int(rng.integers(3, 7))
        inst = gen_random(
            "bipartite", rng, nl=nl, nr=nr, p=0.45, unit_cost=bool(rng.integers(0, 2))
        )
        rep = evaluate(inst, AlgorithmSpec("bestvc"), 10_000, SEED + i, f"bip{i}")
        worst = max(worst, rep.ratio)
        if rep.ratio > bound:
            ok = False
    return _result(
        "bestvc-bipartite", ok, f"50 instances; worst ratio {worst:.4f} <= {bound:.4f}", start
    )


def check_overlap_pair() -> CriterionResult:
    """Two-interval edge at the maximizing masses."""
    start = time.perf_counter()
    p = math.sqrt(2.0) - 1.0
    inst = gen_benchmark("overlap-pair", p=p, q=p)
    exact = exact_expected_opt(inst)
    expect_opt = 1.0 + p * p
    target = (1.0 + math.sqrt(2.0)) / 2.0
    rep = evaluate(inst, AlgorithmSpec("bestvc"), 100_000, SEED, "overlap-pair")
    ok = abs(exact - expect_opt) <= 1e-12 and abs(rep.ratio - target) <= 0.01
    detail = (
        f"exact opt {exact:.12f} vs {expect_opt:.12f}; "
        f"ratio {rep.ratio:.4f} vs {target:.4f}"
    )
    return _result("overlap-pair", ok, detail, start)


def check_single_set_lower_bound() -> CriterionResult:
    """Both canonical policies on the single-set instance pay >= 9/7 - tol."""
    start = time.perf_counter()
    n = 3
    inst = gen_benchmark("single-set", n=n, eps=0.001)
    exact = exact_expected_opt(inst)
    limit = (n * n - n + 1) / n
    bound = n * n / (n * n - n + 1) - 0.02
    specs = [AlgorithmSpec("baseline"), AlgorithmSpec("leaves-first")]
    rep_center, rep_leaves = _raise_bounds(evaluate_all(inst, specs, 100_000, SEED, "single-set"))
    ok = (
        abs(exact - limit) <= 0.01
        and rep_center.ratio >= bound
        and rep_leaves.ratio >= bound
    )
    detail = (
        f"exact opt {exact:.5f} vs {limit:.5f}; center-first {rep_center.ratio:.4f}, "
        f"leaves-first {rep_leaves.ratio:.4f}, bound {bound:.4f}"
    )
    return _result("single-set-lower-bound", ok, detail, start)


def check_staircase_two_stage() -> CriterionResult:
    """Strict two-stage querying loses a log factor on the staircase."""
    start = time.perf_counter()
    ratios = []
    ok = True
    for n in (64, 256, 1024):
        cost, k = best_two_stage_cost(n)
        opt = two_stage_expected_opt(n)
        ratio = cost / opt
        ratios.append(f"n={n}: best k={k} ratio={ratio:.3f}")
        if ratio <= math.log2(n) / 8.0:
            ok = False
    values = [best_two_stage_cost(n)[0] / two_stage_expected_opt(n) for n in (64, 256, 1024)]
    if not (values[0] < values[1] < values[2]):
        ok = False
    return _result("staircase-two-stage", ok, "; ".join(ratios), start)


def check_cover_choice_barrier() -> CriterionResult:
    """Both stage-1 cover choices pay ~3/2 on the weighted triple."""
    start = time.perf_counter()
    inst = gen_benchmark("weighted-triple", k=100.0, eps=0.01)
    covers = [AlgorithmSpec("fixed-cover", cover=c) for c in (("x",), ("y", "z"))]
    rep_left, rep_rest = _raise_bounds(evaluate_all(inst, covers, 10_000, SEED, "triple"))
    ok = rep_left.ratio >= 1.45 and rep_rest.ratio >= 1.45
    detail = f"cover {{x}} ratio {rep_left.ratio:.4f}, cover {{y,z}} ratio {rep_rest.ratio:.4f}"
    return _result("cover-choice-barrier", ok, detail, start)


def _brute_force_checks(instance, rng) -> str | None:
    """One random instance's oracle equivalences; returns an error or None."""
    ids = list(instance.vertex_ids)
    realization = sample_realization(instance, rng)
    feasible = []
    for mask in range(1 << len(ids)):
        q = frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
        if is_feasible(instance, realization, q):
            feasible.append(q)
    nonexcludable = frozenset.intersection(*feasible) if feasible else frozenset()
    if mandatory_set(instance, realization) != nonexcludable:
        return "mandatory set != brute-force non-excludable set"
    costs = instance.costs
    brute_opt = min(math.fsum(costs[v] for v in q) for q in feasible)
    members, cost = OfflineOracle(instance).opt(realization)
    if abs(cost - brute_opt) > 1e-9:
        return f"offline opt {cost} != brute force {brute_opt}"
    # partition superadditivity
    parts: list[list[str]] = [[], [], []]
    for v in ids:
        parts[int(rng.integers(0, 3))].append(v)
    lhs = cost
    rhs = sum(
        min(math.fsum(costs[v] for v in q if v in set(part)) for q in feasible)
        for part in parts
        if part
    )
    if lhs < rhs - 1e-9:
        return f"superadditivity violated: opt {lhs} < parts {rhs}"
    # every feasible query set covers the cover graph (witness pairs)
    g = build_cover_graph(instance)
    for q in feasible:
        if any(a not in q and b not in q for a, b in g.edges):
            return "a feasible query set misses a cover-graph edge"
    exact = vc_exact_small(g)
    brute_cover = math.inf
    for mask in range(1 << len(ids)):
        sel = {ids[j] for j in range(len(ids)) if mask >> j & 1}
        if all(a in sel or b in sel for a, b in g.edges):
            brute_cover = min(brute_cover, math.fsum(g.weights[v] for v in sel))
    if abs(exact.weight - brute_cover) > 1e-9:
        return f"exact cover {exact.weight} != brute force {brute_cover}"
    lp = lp_half_integral(g)
    if lp.objective > brute_cover + 1e-9:
        return "LP objective above an integral cover"
    if 2.0 * lp.objective < exact.weight - 1e-9:
        return "exact cover above twice the LP objective"
    approx = vc_local_ratio_2approx(g)
    if approx.weight > 2.0 * exact.weight + 1e-9:
        return "local-ratio cover above twice the optimum"
    sides = bipartition(g)
    if sides is not None and g.edges:
        bip = vc_bipartite_exact(g, sides)
        if abs(bip.weight - exact.weight) > 1e-9:
            return "bipartite exact disagrees with exact-small"
    if instance.kind == "hypergraph":
        few = vc_few_hyperedges(instance)
        if abs(few.weight - exact.weight) > 1e-9:
            return "few-hyperedge cover disagrees with exact-small"
    # ones of the LP are a minimum cover of the ones/zeros crossing graph
    cross = [
        (a, b)
        for a, b in g.edges
        if (a in lp.ones and b in lp.zeros) or (a in lp.zeros and b in lp.ones)
    ]
    if cross:
        sub = make_cover_graph(
            {v: g.weights[v] for v in lp.ones | lp.zeros}, cross
        )
        best = vc_bipartite_exact(sub, (lp.ones, lp.zeros))
        ones_weight = math.fsum(g.weights[v] for v in lp.ones)
        if best.weight < ones_weight - 1e-9:
            return "LP ones are not a minimum cover of the crossing graph"
    # the mandatory set plus any cover of the rest is feasible
    rest = [v for v in ids if v not in nonexcludable]
    cover_rest = vc_exact_small(g.induced(rest))
    if not is_feasible(instance, realization, nonexcludable | cover_rest.members):
        return "mandatory set plus remainder cover is infeasible"
    return None


def check_oracle_suite() -> CriterionResult:
    """Brute-force equivalences on 1000 random small instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 11)
    failures = 0
    first = ""
    for i in range(1000):
        fam = ("gnp", "hypergraph", "bipartite", "star", "interval-layers")[i % 5]
        if fam == "gnp":
            inst = gen_random(fam, rng, n=int(rng.integers(3, 7)), p=0.5, unit_cost=False)
        elif fam == "hypergraph":
            inst = gen_random(
                fam, rng, n=int(rng.integers(3, 7)), m=int(rng.integers(1, 4)), unit_cost=False
            )
        elif fam == "bipartite":
            inst = gen_random(fam, rng, nl=3, nr=3, p=0.5)
        elif fam == "star":
            inst = gen_random(fam, rng, n=5)
        else:
            inst = gen_random(fam, rng, k=2, n=6, unit_cost=False)
        err = _brute_force_checks(inst, rng)
        if err is not None:
            failures += 1
            if not first:
                first = f"[{fam} #{i}] {err}"
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    detail = f"1000 instances, {failures} failures, {elapsed:.1f}s"
    if first:
        detail += f"; first: {first}"
    return _result("oracle-suite", ok, detail, start)


def check_sampling_estimator() -> CriterionResult:
    """Hoeffding sample count and repeated-estimate concentration."""
    start = time.perf_counter()
    k = hoeffding_sample_count(0.05, 0.01)
    inst = gen_benchmark("fork", eps=0.1)
    rng = np.random.default_rng(SEED + 3)
    inside = 0
    for _ in range(100):
        y = estimate_profile(inst, 0.05, 0.01, rng).probs["y"]
        if 0.45 <= y <= 0.55:
            inside += 1
    ok = k == 1060 and inside >= 97
    return _result(
        "sampling-estimator", ok, f"k={k} (need 1060); {inside}/100 runs in [0.45, 0.55]", start
    )


def check_vertex_split() -> CriterionResult:
    """Splitting vertices into jointly-mandatory fractions preserves the
    expected optimum exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    ok = True
    for _ in range(100):
        gi = gen_generalized(int(rng.integers(3, 9)), rng)
        base = expected_opt_generalized(gi)
        vid = gi.graph.vertices[int(rng.integers(0, len(gi.graph.vertices)))]
        pieces = int(rng.integers(2, 4))
        raw = rng.uniform(0.2, 1.0, size=pieces)
        fractions = list(raw / raw.sum())
        split = vertex_split(gi, vid, fractions)
        after = expected_opt_generalized(split)
        worst = max(worst, abs(after - base))
        # splits compose
        vid2 = split.graph.vertices[int(rng.integers(0, len(split.graph.vertices)))]
        split2 = vertex_split(split, vid2, [0.5, 0.5])
        worst = max(worst, abs(expected_opt_generalized(split2) - base))
        if worst > 1e-12:
            ok = False
    return _result("vertex-split", ok, f"100 instances; worst |delta| = {worst:.2e}", start)


def check_hypergraph_threshold() -> CriterionResult:
    """Sampled-probability threshold respects its guarantee on most
    random hypergraphs (it holds with probability 1 - delta)."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 13)
    eps, delta = 0.05, 0.1
    bound = hyper_ratio(1.0, eps) + 0.05
    good = 0
    total = 40
    worst = 0.0
    for i in range(total):
        inst = gen_random(
            "hypergraph",
            rng,
            n=int(rng.integers(5, 13)),
            m=int(rng.integers(2, 6)),
            max_size=4,
        )
        spec = AlgorithmSpec("threshold-hyper", alpha=1.0, epsilon=eps, delta=delta)
        rep = evaluate(inst, spec, 2000, SEED + 100 + i, f"hyper{i}")
        worst = max(worst, rep.ratio)
        if rep.ratio <= bound:
            good += 1
    ok = good >= math.ceil(0.9 * total)
    detail = f"{good}/{total} within bound {bound:.4f}; worst ratio {worst:.4f}"
    return _result("hypergraph-threshold", ok, detail, start)


CRITERIA: dict[str, Callable[[], CriterionResult]] = {
    "fork-exact-optimum": check_fork_exact_optimum,
    "general-lower-bound": check_general_lower_bound,
    "threshold-upper-bound": check_threshold_upper_bound,
    "threshold-tightness": check_threshold_tightness,
    "bestvc-bipartite": check_bestvc_bipartite,
    "overlap-pair": check_overlap_pair,
    "single-set-lower-bound": check_single_set_lower_bound,
    "staircase-two-stage": check_staircase_two_stage,
    "cover-choice-barrier": check_cover_choice_barrier,
    "oracle-suite": check_oracle_suite,
    "sampling-estimator": check_sampling_estimator,
    "vertex-split": check_vertex_split,
    "hypergraph-threshold": check_hypergraph_threshold,
}

SUITES: dict[str, tuple[str, ...]] = {
    "oracles": ("oracle-suite", "sampling-estimator"),
    "thresholds": ("threshold-upper-bound", "threshold-tightness", "hypergraph-threshold"),
    "bestvc": ("bestvc-bipartite", "overlap-pair"),
    "lower-bounds": (
        "fork-exact-optimum",
        "general-lower-bound",
        "single-set-lower-bound",
        "staircase-two-stage",
        "cover-choice-barrier",
    ),
    "splits": ("vertex-split",),
    "all": tuple(CRITERIA),
}


def run_criterion(name: str) -> CriterionResult:
    try:
        fn = CRITERIA[name]
    except KeyError:
        raise ValueError(f"unknown criterion {name!r}") from None
    return fn()


def run_suite(name: str) -> list[CriterionResult]:
    try:
        names = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        ) from None
    return [run_criterion(n) for n in names]
