"""The batched paired evaluator against the scalar reference.

For every realization index of a small run, on every named benchmark and
on the random families with unit and random costs, the batched sampler,
mandatory-set kernel and cover-first scoring must reproduce exactly what
the per-realization simulator (``_Recorder`` through ``run_fixed_cover``),
the offline oracle and the scalar mandatory-set functions give.
"""

import numpy as np
import pytest

from orientlab import (
    AlgorithmSpec,
    OfflineOracle,
    build_cover_graph,
    elementary_grid,
    gen_benchmark,
    gen_random,
    is_feasible,
    mandatory_set,
    mandatory_set_cells,
    run_fixed_cover,
    run_leaves_first,
    vc_exact_small,
)
from orientlab.harness import BENCHMARKS, _alg_costs, _BlockSampler, _PairedBatch, _plan
from orientlab.mandatory import feasible_matrix, mandatory_matrix

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
    grid = np.array(elementary_grid(instance))
    cells = np.searchsorted(grid, weights) - 1
    by_midpoint = mandatory_matrix(instance, (grid[cells] + grid[cells + 1]) / 2.0)
    rng = np.random.default_rng(SEED)
    queried = rng.random(weights.shape) < 0.7
    feasible = feasible_matrix(instance, weights, queried)
    ids = instance.vertex_ids
    for i in range(N):
        r = sampler.realization(i)
        assert weights[i].tolist() == [r[v] for v in ids]
        assert _members(instance, mandatory[i]) == mandatory_set(instance, r)
        assignment = dict(zip(ids, cells[i].tolist()))
        by_cells = mandatory_set_cells(instance, assignment, tuple(grid))
        assert _members(instance, by_midpoint[i]) == by_cells
        assert feasible[i] == is_feasible(instance, r, _members(instance, queried[i]))


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_batched_costs_match_scalar_reference(instance):
    batch = _PairedBatch(instance, SEED, N, VC_BOUND)
    oracle = OfflineOracle(instance, VC_BOUND)
    sampler = _BlockSampler(instance, SEED)
    realizations = [sampler.realization(i) for i in range(N)]
    optimal = [oracle.opt(r) for r in realizations]
    assert batch.opt.tolist() == [cost for _, cost in optimal]
    for spec, adaptive in _specs(instance):
        policy = _plan(spec, instance, SEED)
        assert policy.adaptive == adaptive, spec.algorithm_id
        alg = _alg_costs(policy, batch, workers=1)
        for i, r in enumerate(realizations):
            if spec.kind == "offline-opt":
                queried, cost = optimal[i]
            else:
                out = run_fixed_cover(instance, policy.stage1, r)
                queried, cost = out.transcript.queried, out.transcript.total_cost
            assert alg[i] == cost, (spec.algorithm_id, i)
            if not policy.adaptive and spec.kind != "offline-opt":
                expect = _members(instance, batch.patterns[batch.pattern[i]]) | set(policy.stage1)
                assert queried == expect, (spec.algorithm_id, i)


def test_leaves_first_matches_scalar_reference():
    instance = gen_benchmark("single-set")
    batch = _PairedBatch(instance, SEED, N, VC_BOUND)
    policy = _plan(AlgorithmSpec("leaves-first"), instance, SEED)
    alg = _alg_costs(policy, batch, workers=1)
    sampler = _BlockSampler(instance, SEED)
    expect = [
        run_leaves_first(instance, sampler.realization(i)).transcript.total_cost for i in range(N)
    ]
    assert alg.tolist() == expect
