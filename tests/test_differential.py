"""The batched paired evaluator against the scalar reference.

For every realization index of a small run, on every named benchmark and
on the random families with unit and random costs, the batched sampler,
mandatory-set kernel, adaptive completion kernel and the scoring of every
policy must reproduce exactly the query sets and costs that the
per-realization simulator (``_Recorder`` through ``run_fixed_cover`` and
``run_leaves_first``), ``run_two_stage_prefix``, the offline oracle and the
scalar mandatory-set functions give.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientlab import (
    AlgorithmSpec,
    Interval,
    OfflineOracle,
    Pmf,
    PmfCell,
    UncertainVertex,
    build_cover_graph,
    gen_benchmark,
    gen_random,
    is_feasible,
    make_instance,
    mandatory_set,
    run_fixed_cover,
    run_leaves_first,
    run_two_stage_prefix,
    sample_realization,
    vc_exact_small,
)
from orientlab.harness import (
    BENCHMARKS,
    _alg_costs,
    _BlockSampler,
    _PairedBatch,
    _plan,
    _query_sets,
)
from orientlab.mandatory import (
    _edge_state,
    _edge_step,
    completion_matrix,
    feasible_matrix,
    mandatory_matrix,
)
from orientlab.model import weights_from_uniforms

N = 150
SEED = 11
VC_BOUND = 70  # star-trap and staircase leave big stars when the centre is not mandatory


def _cases():
    cases = [(name, gen_benchmark(name)) for name in sorted(BENCHMARKS)]
    rng = np.random.default_rng(2024)
    families = (
        ("gnp", {"n": 8, "p": 0.4}),
        ("hypergraph", {"n": 8, "m": 4}),
        ("bipartite", {"nl": 4, "nr": 4}),
        ("star", {"n": 5}),
    )
    for family, params in families:
        for unit_cost in (True, False):
            for i in range(2):
                label = f"{family}-{'unit' if unit_cost else 'weighted'}-{i}"
                cases.append((label, gen_random(family, rng, unit_cost=unit_cost, **params)))
    return cases


CASES = _cases()
IDS = [name for name, _ in CASES]


def _members(instance, row):
    return frozenset(v for v, hit in zip(instance.vertex_ids, row) if hit)


def _specs(instance):
    """(spec, whether its policy must be simulated step by step)."""
    specs = [
        (AlgorithmSpec("bestvc"), False),
        (AlgorithmSpec("offline-opt"), False),
        (AlgorithmSpec("baseline"), True),
    ]
    if instance.kind == "graph":
        specs.append((AlgorithmSpec("threshold", alpha=1.0), False))
        specs.append((AlgorithmSpec("threshold", alpha=2.0, d=0.5), False))
    else:
        specs.append((AlgorithmSpec("threshold-hyper", epsilon=0.1, delta=0.2), False))
    graph = build_cover_graph(instance)
    cover = vc_exact_small(graph, VC_BOUND).members
    specs.append((AlgorithmSpec("fixed-cover", cover=tuple(sorted(cover))), False))
    # dropping both ends of a cover-graph edge leaves it uncovered
    a, b = graph.edges[0]
    rest = tuple(v for v in instance.vertex_ids if v not in (a, b))
    specs.append((AlgorithmSpec("fixed-cover", cover=rest), True))
    return specs


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_kernels_match_scalar_reference(instance):
    sampler = _BlockSampler(instance, SEED)
    weights = sampler.weights(0, N)
    mandatory = mandatory_matrix(instance, weights)
    rng = np.random.default_rng(SEED)
    queried = rng.random(weights.shape) < 0.7
    feasible = feasible_matrix(instance, weights, queried)
    ids = instance.vertex_ids
    for i in range(N):
        r = sampler.realization(i)
        assert weights[i].tolist() == [r[v] for v in ids]
        assert _members(instance, mandatory[i]) == mandatory_set(instance, r)
        assert feasible[i] == is_feasible(instance, r, _members(instance, queried[i]))


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_sample_realization_is_one_row_of_the_weight_map(instance):
    n = len(instance.vertices)
    for seed in range(5):
        r = sample_realization(instance, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        row = weights_from_uniforms(instance, rng.random((1, 2 * n)), lambda row, j: rng)[0]
        assert [r[v] for v in instance.vertex_ids] == row.tolist()


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_batched_costs_match_scalar_reference(instance):
    """Costs and query sets of every spec; the adaptive ones (baseline and
    the non-covering fixed cover) come from ``completion_matrix``."""
    batch = _PairedBatch(instance, SEED, N, VC_BOUND)
    oracle = OfflineOracle(instance, VC_BOUND)
    sampler = _BlockSampler(instance, SEED)
    realizations = [sampler.realization(i) for i in range(N)]
    optimal = [oracle.opt(r) for r in realizations]
    assert batch.opt.tolist() == [cost for _, cost in optimal]
    for spec, adaptive in _specs(instance):
        policy = _plan(spec, instance, SEED)
        assert policy.adaptive == adaptive, spec.algorithm_id
        alg = _alg_costs(policy, batch)
        sets, index = _query_sets(policy, batch)
        rows = sets[index]
        for i, r in enumerate(realizations):
            if spec.kind == "offline-opt":
                queried, cost = optimal[i]
            else:
                out = run_fixed_cover(instance, policy.stage1, r)
                queried, cost = out.transcript.queried, out.transcript.total_cost
            assert alg[i] == cost, (spec.algorithm_id, i)
            assert _members(instance, rows[i]) == queried, (spec.algorithm_id, i)
            if not policy.adaptive and spec.kind != "offline-opt":
                expect = _members(instance, batch.patterns[batch.pattern[i]]) | set(policy.stage1)
                assert queried == expect, (spec.algorithm_id, i)


def test_leaves_first_matches_scalar_reference():
    for instance in (
        gen_benchmark("single-set", n=3),
        gen_benchmark("single-set", n=5),
        gen_benchmark("staircase"),
    ):
        batch = _PairedBatch(instance, SEED, N, VC_BOUND)
        policy = _plan(AlgorithmSpec("leaves-first"), instance, SEED)
        alg = _alg_costs(policy, batch)
        sets, index = _query_sets(policy, batch)
        rows = sets[index]
        sampler = _BlockSampler(instance, SEED)
        for i in range(N):
            out = run_leaves_first(instance, sampler.realization(i))
            assert _members(instance, rows[i]) == out.transcript.queried, (instance.vertex_ids, i)
            assert alg[i] == out.transcript.total_cost, (instance.vertex_ids, i)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_two_stage_prefix_matches_scalar_reference(k):
    # on the staircase the prefix minimum never falls between two later
    # lower ends; the random hyperedge of six members exercises that case
    for instance in (
        gen_benchmark("staircase"),
        gen_random("hypergraph", 0, n=6, m=1, max_size=6, unit_cost=False),
    ):
        batch = _PairedBatch(instance, SEED, N, VC_BOUND)
        policy = _plan(AlgorithmSpec("two-stage-prefix", k=k), instance, SEED)
        alg = _alg_costs(policy, batch)
        sets, index = _query_sets(policy, batch)
        rows = sets[index]
        members = instance.hyperedges[0]
        prefix_cost = math.fsum(instance.costs[v] for v in members[:k])
        sampler = _BlockSampler(instance, SEED)
        for i in range(N):
            cost = run_two_stage_prefix(instance, k, sampler.realization(i))
            assert alg[i] == cost, i
            # the scalar policy queries the prefix or the whole hyperedge
            expect = members[:k] if cost == prefix_cost and k else members
            assert _members(instance, rows[i]) == set(expect), i


FAMILY_PARAMS = {
    "gnp": {"n": 7, "p": 0.5},
    "bipartite": {"nl": 4, "nr": 3},
    "hypergraph": {"n": 7, "m": 3},
}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["gnp", "bipartite", "hypergraph"]),
    seed=st.integers(0, 2**32 - 1),
    unit_cost=st.booleans(),
    share=st.floats(0.0, 1.0),
)
def test_completion_matrix_property(family, seed, unit_cost, share):
    """Random small instance, random stage-1 subset: every kernel row is
    the scalar transcript's query set."""
    rng = np.random.default_rng(seed)
    instance = gen_random(family, rng, unit_cost=unit_cost, **FAMILY_PARAMS[family])
    stage1 = tuple(v for v in instance.vertex_ids if rng.random() < share)
    sampler = _BlockSampler(instance, seed)
    weights = sampler.weights(0, 40)
    start = np.array([[v in stage1 for v in instance.vertex_ids]] * len(weights))
    rows = completion_matrix(instance, weights, start, mandatory_matrix(instance, weights))
    for i in range(len(weights)):
        out = run_fixed_cover(instance, stage1, sampler.realization(i))
        assert _members(instance, rows[i]) == out.transcript.queried, i


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["gnp", "bipartite", "hypergraph"]),
    seed=st.integers(0, 2**32 - 1),
    share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_first_round_covers_cover_graph(family, seed, share):
    """With no mandatory rows OR-ed in, ``completion_matrix`` returns the
    first round of the completion; from an empty or a random start per
    row, it covers every edge of the cover graph on every row."""
    rng = np.random.default_rng(seed)
    instance = gen_random(family, rng, **FAMILY_PARAMS[family])
    weights = _BlockSampler(instance, seed).weights(0, 40)
    start = rng.random(weights.shape) < share
    first = completion_matrix(instance, weights, start, np.zeros_like(start))
    assert (first >= start).all()
    column = {v: j for j, v in enumerate(instance.vertex_ids)}
    for a, b in build_cover_graph(instance).edges:
        assert (first[:, column[a]] | first[:, column[b]]).all(), (a, b)


def _uniform_vertex(vid, lo, hi):
    interval = Interval(float(lo), float(hi))
    return UncertainVertex(vid, 1.0, interval, Pmf((PmfCell(interval, 1.0),)))


@pytest.mark.parametrize("k", range(1, 8))
def test_edge_step_matches_edge_state(k):
    """``_edge_step`` on every row against the scalar ``_edge_state``.
    Lower ends are drawn from {0, 1, 2}, so members tie on lo (and on the
    whole key but the id), and weights from a quarter grid, so w* can
    equal another member's end.  Row 0 has every member queried, row 1
    none, the rest random masks."""
    rng = np.random.default_rng(k)
    rows = 30
    for _ in range(40):
        ends = [(lo, lo + width) for lo, width in zip(rng.integers(0, 3, k), rng.integers(1, 4, k))]
        names = rng.permutation(k)
        instance = make_instance(
            [_uniform_vertex(f"u{name}", lo, hi) for name, (lo, hi) in zip(names, ends)], []
        )
        members = sorted(instance.vertex_ids, key=lambda u: instance.by_id[u].key)
        lo = np.array([[instance.interval(u).lo] for u in members])
        hi = np.array([[instance.interval(u).hi] for u in members])
        w = lo + rng.integers(1, 4 * (hi - lo), size=(k, rows)) / 4
        q = rng.random((k, rows)) < rng.random()
        q[:, 0], q[:, 1] = True, False
        w_star, pick = _edge_step(w, q, lo, hi)
        assert pick.dtype == np.intp
        for r in range(rows):
            revealed = {u: w[p, r] for p, u in enumerate(members) if q[p, r]}
            status, vid = _edge_state(instance, members, revealed)
            expect = -1 if status == "solved" else members.index(vid)
            assert pick[r] == expect, (members, revealed)
            assert w_star[r] == min(revealed.values(), default=math.inf)


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_stacked_feasibility_matches_scalar_reference(instance):
    """One ``feasible_matrix`` call on a stack of query matrices gives
    :func:`is_feasible` for every set and every index: the optimum and
    every spec's query sets, random sets and the full set."""
    batch = _PairedBatch(instance, SEED, N, VC_BOUND)
    stack = [batch.optimal[batch.pattern]]
    for spec, _ in _specs(instance):
        sets, index = _query_sets(_plan(spec, instance, SEED), batch)
        stack.append(sets[index])
    rng = np.random.default_rng(SEED)
    stack += [rng.random(batch.weights.shape) < share for share in (0.5, 0.9)]
    stack.append(np.ones(batch.weights.shape, dtype=bool))
    stack = np.stack(stack)
    feasible = feasible_matrix(instance, batch.weights, stack)
    assert feasible.shape == stack.shape[:2]
    sampler = _BlockSampler(instance, SEED)
    for i in range(N):
        r = sampler.realization(i)
        for s, queried in enumerate(stack):
            assert feasible[s, i] == is_feasible(instance, r, _members(instance, queried[i])), (s, i)
    # the last set is feasible everywhere and a random half mostly not
    assert feasible[-1].all() and not feasible[-3].all()


def _set_failing_at(batch, row):
    """A query set (distinct masks, index) that is the full set on every
    realization but ``row``, where nothing is queried: on a reduced
    instance the empty set is never feasible."""
    n = len(batch.instance.vertices)
    index = np.zeros(len(batch.weights), dtype=np.intp)
    index[row] = 1
    return np.array([[True] * n, [False] * n]), index


@pytest.mark.parametrize("row", [0, 511, 512, 1023, 1199])
def test_batch_check_sees_every_row_of_every_set(row):
    batch = _PairedBatch(gen_benchmark("fork"), SEED, 1200, VC_BOUND)
    everything = np.ones((1, 3), dtype=bool), np.zeros(1200, dtype=np.intp)
    batch.score(*everything, "first set")
    batch.check()
    batch.score(*_set_failing_at(batch, row), "second set")
    batch.score(*everything, "third set")
    with pytest.raises(AssertionError, match="^second set$"):
        batch.check()


def test_batch_check_reports_optimum_then_specs_in_order():
    batch = _PairedBatch(gen_benchmark("fork"), SEED, 600, VC_BOUND)
    batch.score(*_set_failing_at(batch, 7), "first set")
    batch.score(*_set_failing_at(batch, 3), "second set")
    with pytest.raises(AssertionError, match="^first set$"):
        batch.check()
    batch.optimal[:] = False  # the optimum's sets, scored at construction
    with pytest.raises(AssertionError, match="^offline optimum is not feasible$"):
        batch.check()
