"""The batched paired evaluator against the scalar reference.

For every realization index of a small run, on every named benchmark and
on the random families with unit and random costs, the batched sampler,
mandatory-set kernel, adaptive completion kernel and the scoring of every
policy must reproduce exactly the query sets and costs that the
per-realization simulator (``_Recorder`` through ``run_fixed_cover`` and
``run_leaves_first``), the offline oracle and the scalar mandatory-set
functions give.  The batch's exact E[OPT] over a whole cell enumeration
must equal that of the scalar oracle.
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
    enumerate_cell_realizations,
    exact_expected_opt,
    gen_benchmark,
    gen_random,
    is_feasible,
    make_instance,
    mandatory_set,
    probability_matrix,
    run_adversarial_baseline,
    run_fixed_cover,
    run_leaves_first,
    sample_realization,
    vc_exact_small,
)
from orientlab.algorithms import plan
from orientlab.harness import (
    BENCHMARKS,
    _alg_costs,
    _leaves_first_stage1,
    _PairedBatch,
    _query_sets,
    _sample_weights,
)
from orientlab.mandatory import (
    _block_tests,
    _edge_state,
    completion_matrix,
    feasible_matrix,
    mandatory_matrix,
)
from orientlab.model import weights_from_uniforms
from test_model import realizations

N = 150
SEED = 11
VC_BOUND = 70  # star-trap and staircase leave big stars when the centre is not mandatory


def _batch(instance, seed, n):
    """The evaluator's batch: realizations 0..n-1 of ``seed``."""
    weights = _sample_weights(instance, seed, n)
    return _PairedBatch(instance, weights, OfflineOracle(instance, VC_BOUND))


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
    weights = _sample_weights(instance, SEED, N)
    mandatory = mandatory_matrix(instance, weights)
    rng = np.random.default_rng(SEED)
    queried = rng.random(weights.shape) < 0.7
    feasible = feasible_matrix(instance, weights, queried)
    for i, r in enumerate(realizations(instance, weights)):
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
    batch = _batch(instance, SEED, N)
    oracle = OfflineOracle(instance, VC_BOUND)
    scalar = realizations(instance, batch.weights)
    optimal = [oracle.opt(r) for r in scalar]
    assert batch.opt.tolist() == [cost for _, cost in optimal]
    for spec, adaptive in _specs(instance):
        policy = plan(spec, instance, SEED)
        assert policy.adaptive == adaptive, spec.algorithm_id
        alg = _alg_costs(policy, batch)
        sets, index = _query_sets(policy, batch)
        rows = sets[index]
        for i, r in enumerate(scalar):
            if spec.kind == "offline-opt":
                queried, cost = optimal[i]
            else:
                out = run_fixed_cover(instance, policy.stage1, r)
                queried, cost = out.queried, out.total_cost
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
        batch = _batch(instance, SEED, N)
        policy = plan(AlgorithmSpec("leaves-first"), instance, SEED)
        alg = _alg_costs(policy, batch)
        sets, index = _query_sets(policy, batch)
        rows = sets[index]
        for i, r in enumerate(realizations(instance, batch.weights)):
            out = run_leaves_first(instance, r)
            assert _members(instance, rows[i]) == out.queried, (instance.vertex_ids, i)
            assert alg[i] == out.total_cost, (instance.vertex_ids, i)


def _enumerable_cases():
    """Every named benchmark whose enumeration fits the default bound, and
    seeded random graphs, bipartite graphs and hypergraphs of 3-6 vertices
    with unit and random costs: 13 each of 3, 4 and 5 vertices, and one of
    6 per family (46,656 assignments each)."""
    for name in sorted(BENCHMARKS):
        instance = gen_benchmark(name)
        if math.prod(map(len, probability_matrix(instance).values())) <= 10**6:
            yield name, instance
    rng = np.random.default_rng(19)
    for t in range(42):
        n = 6 if t >= 39 else 3 + t % 3
        family = ("gnp", "bipartite", "hypergraph")[t % 3]
        unit_cost = t % 2 == 0
        if family == "gnp":
            instance = gen_random(family, rng, n=n, p=0.5, unit_cost=unit_cost)
        elif family == "bipartite":
            instance = gen_random(family, rng, nl=n // 2, nr=n - n // 2, p=0.5, unit_cost=unit_cost)
        else:
            instance = gen_random(family, rng, n=n, m=2, max_size=3, unit_cost=unit_cost)
        yield f"{family}-{n}-{'unit' if unit_cost else 'weighted'}-{t}", instance


EXACT_CASES = list(_enumerable_cases())


@pytest.mark.parametrize("instance", [c for _, c in EXACT_CASES], ids=[n for n, _ in EXACT_CASES])
def test_exact_expected_opt_matches_scalar_oracle(instance):
    """The paired batch's E[OPT] is the scalar oracle's: ``opt`` runs the
    scalar ``mandatory_set`` on each representative realization."""
    oracle = OfflineOracle(instance)
    expect = math.fsum(
        prob * oracle.opt(r)[1] for prob, _, r in enumerate_cell_realizations(instance)
    )
    assert exact_expected_opt(instance) == expect


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
    weights = _sample_weights(instance, seed, 40)
    start = np.array([[v in stage1 for v in instance.vertex_ids]] * len(weights))
    tests = _block_tests(instance, weights)
    rows = completion_matrix(instance, tests, start, mandatory_matrix(instance, weights))
    for i, r in enumerate(realizations(instance, weights)):
        out = run_fixed_cover(instance, stage1, r)
        assert _members(instance, rows[i]) == out.queried, i


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
    weights = _sample_weights(instance, seed, 40)
    start = rng.random(weights.shape) < share
    first = completion_matrix(instance, _block_tests(instance, weights), start, np.zeros_like(start))
    assert (first >= start).all()
    column = {v: j for j, v in enumerate(instance.vertex_ids)}
    for a, b in build_cover_graph(instance).edges:
        assert (first[:, column[a]] | first[:, column[b]]).all(), (a, b)


def _uniform_vertex(vid, lo, hi):
    interval = Interval(float(lo), float(hi))
    return UncertainVertex(vid, 1.0, interval, Pmf((PmfCell(interval, 1.0),)))


def _reduced_hyperedge(rng, k):
    """A reduced instance of one hyperedge of k members with integer
    ends: the leftmost l = (lo_l, hi_l) and every other u with lo_l <=
    lo_u < hi_l < hi_u.  Lower ends come from {0, 1, 2}, so members tie
    on lo, and upper ends from two values, so non-leftmost members also
    tie on the whole key but the id.  Ids are shuffled against the key."""
    los = rng.integers(0, 3, k)
    left = int(np.argmin(los))
    hi_l = int(los.max()) + int(rng.integers(1, 3))
    his = [hi_l if p == left else hi_l + int(rng.integers(1, 3)) for p in range(k)]
    names = rng.permutation(k)
    instance = make_instance(
        [_uniform_vertex(f"u{name}", lo, hi) for name, lo, hi in zip(names, los, his)],
        [[f"u{name}" for name in names]],
    )
    assert instance.is_reduced()
    return instance


def _quarter_weights(instance, rng, rows):
    """Rows of weights strictly inside each interval on a quarter grid, so
    a revealed weight can equal another member's end."""
    lo = np.array([instance.interval(v).lo for v in instance.vertex_ids])
    hi = np.array([instance.interval(v).hi for v in instance.vertex_ids])
    return lo + rng.integers(1, 4 * (hi - lo), size=(rows, len(lo))) / 4


@pytest.mark.parametrize("k", range(2, 8))
def test_completion_visit_matches_edge_state(k):
    """One ``completion_matrix`` visit, row by row, against the scalar
    ``_edge_state`` on a one-hyperedge reduced instance: with a zero
    mandatory mask the kernel returns the start plus the visit's pick.
    Row 0 has every member queried, row 1 none, the rest random masks."""
    rng = np.random.default_rng(k)
    rows = 30
    for _ in range(40):
        instance = _reduced_hyperedge(rng, k)
        (members,) = instance.hyperedges
        weights = _quarter_weights(instance, rng, rows)
        start = rng.random(weights.shape) < rng.random()
        start[0], start[1] = True, False
        out = completion_matrix(instance, _block_tests(instance, weights), start, np.zeros_like(start))
        for r in range(rows):
            revealed = {u: w for u, w, q in zip(instance.vertex_ids, weights[r], start[r]) if q}
            status, vid = _edge_state(instance, members, revealed)
            expect = _members(instance, start[r]) | ({vid} if status == "open" else set())
            assert _members(instance, out[r]) == expect, (members, revealed)


BOUNDARY_ROWS = [1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 8193]
POOL = 256  # distinct realizations; every row count draws its rows from them


def _boundary_instances():
    yield "gnp", gen_random("gnp", 3, n=10, p=0.4, unit_cost=False)
    instance = gen_random("hypergraph", 11, n=12, m=4, max_size=8, unit_cost=False)
    assert sorted(map(len, instance.hyperedges)) == [2, 4, 6, 8]
    yield "hypergraph", instance
    yield "staircase", gen_benchmark("staircase", n=64)


BOUNDARY_CASES = list(_boundary_instances())
BOUNDARY_IDS = [name for name, _ in BOUNDARY_CASES]


def _weights_on_ends(instance, rng, rows):
    """Rows of interior weights of which about half sit exactly on another
    vertex's interval end, where the strict and non-strict tests differ."""
    lo = np.array([instance.interval(v).lo for v in instance.vertex_ids])
    hi = np.array([instance.interval(v).hi for v in instance.vertex_ids])
    weights = lo + (hi - lo) * rng.uniform(0.001, 0.999, (rows, len(lo)))
    ends = np.concatenate([lo, hi])
    for j in range(len(lo)):
        inside = ends[(lo[j] < ends) & (ends < hi[j])]
        on_end = rng.random(rows) < 0.5
        if inside.size:
            weights[on_end, j] = rng.choice(inside, on_end.sum())
    return weights


def _first_round(instance, start, realization):
    """The scalar first round of the completion from ``start``: each
    hyperedge visited once, in index order, through ``_edge_state``."""
    queried = set(start)
    for members in instance.hyperedges:
        revealed = {u: realization[u] for u in members if u in queried}
        status, vid = _edge_state(instance, members, revealed)
        if status == "open":
            queried.add(vid)
    return queried


def _masks(instance, sets):
    return np.array([[v in chosen for v in instance.vertex_ids] for chosen in sets])


def _boundary_pool(instance):
    """POOL realizations, their rows, and the row of each of 8,193
    positions, so that every bit position of every block is used."""
    rng = np.random.default_rng(len(instance.vertices))
    weights = _weights_on_ends(instance, rng, POOL)
    return weights, realizations(instance, weights), rng.integers(0, POOL, max(BOUNDARY_ROWS))


@pytest.mark.parametrize("instance", [c for _, c in BOUNDARY_CASES], ids=BOUNDARY_IDS)
def test_completion_matrix_at_bit_boundaries(instance):
    """Row counts around bytes, words and ``_COMPLETION_ROWS`` blocks, from
    an empty start, a random start per row and a cover of the cover
    graph: with the mandatory rows OR-ed in, every row is the scalar
    run's query set; with none, the scalar first round."""
    weights, scalar, position = _boundary_pool(instance)
    rng = np.random.default_rng(7)
    ids = instance.vertex_ids
    leftmost = {members[0] for members in instance.hyperedges}
    assert all(a in leftmost or b in leftmost for a, b in build_cover_graph(instance).edges)
    starts = {
        "empty": np.zeros(weights.shape, dtype=bool),
        "random": rng.random(weights.shape) < rng.random((POOL, 1)),
        "cover": np.array([[v in leftmost for v in ids]] * POOL),
    }
    for label, start in starts.items():
        full, first = [], []
        for row, r in zip(start, scalar):
            stage1 = _members(instance, row)
            full.append(run_fixed_cover(instance, stage1, r).queried)
            first.append(_first_round(instance, stage1, r))
        full, first = _masks(instance, full), _masks(instance, first)
        for rows in BOUNDARY_ROWS:
            at = position[:rows]
            mandatory = mandatory_matrix(instance, weights[at])
            tests = _block_tests(instance, weights[at])
            for m, expect in ((mandatory, full), (np.zeros_like(mandatory), first)):
                out = completion_matrix(instance, tests, start[at], m)
                wrong = np.flatnonzero((out != expect[at]).any(axis=1))
                assert wrong.size == 0, (label, rows, m is mandatory, wrong[:5])


@pytest.mark.parametrize("instance", [c for _, c in BOUNDARY_CASES], ids=BOUNDARY_IDS)
def test_query_sets_at_bit_boundaries(instance):
    """The evaluator's adaptive query sets at the same row counts: the
    baseline against ``run_adversarial_baseline``, a fixed set that is no
    cover against ``run_fixed_cover`` and, on the single hyperedge,
    leaves-first against ``run_leaves_first``."""
    weights, scalar, position = _boundary_pool(instance)
    a, b = build_cover_graph(instance).edges[0]
    rest = tuple(v for v in instance.vertex_ids if v not in (a, b))
    runs = {
        AlgorithmSpec("baseline"): lambda r: run_adversarial_baseline(instance, r),
        AlgorithmSpec("fixed-cover", cover=rest): lambda r: run_fixed_cover(instance, rest, r),
    }
    if len(instance.hyperedges) == 1:
        runs[AlgorithmSpec("leaves-first")] = lambda r: run_leaves_first(instance, r)
    expect = {
        spec: _masks(instance, [run(r).queried for r in scalar]) for spec, run in runs.items()
    }
    oracle = OfflineOracle(instance, VC_BOUND)
    for rows in BOUNDARY_ROWS:
        at = position[:rows]
        batch = _PairedBatch(instance, weights[at], oracle)
        for spec in runs:
            policy = plan(spec, instance, SEED)
            assert policy.adaptive, spec.algorithm_id
            sets, index = _query_sets(policy, batch)
            wrong = np.flatnonzero((sets[index] != expect[spec][at]).any(axis=1))
            assert wrong.size == 0, (spec.algorithm_id, rows, wrong[:5])


def _leaves_first_rows(instance, weights):
    """``_leaves_first_stage1`` and ``run_leaves_first`` on every row: the
    stage-1 masks and the scalar runs' stage-1 sets and query sets."""
    stage1 = _leaves_first_stage1(instance, weights)
    runs = [run_leaves_first(instance, r) for r in realizations(instance, weights)]
    return stage1, runs


@pytest.mark.parametrize("t", range(42))
def test_leaves_first_random_hyperedges_match_scalar_reference(t):
    """Seeded random single hyperedges of 2-8 members, unit and random
    costs: per realization, the batched stage 1 is the scalar run's
    stage-1 set, and the evaluator's query set and cost are the run's."""
    rng = np.random.default_rng([SEED, t])
    k = 2 + t % 7
    vertices = gen_random("hypergraph", rng, n=k, m=1, max_size=k, unit_cost=t % 2 == 0).vertices
    instance = make_instance(vertices, [[v.id for v in vertices]])
    assert instance.is_reduced()
    batch = _batch(instance, SEED + t, 60)
    stage1, runs = _leaves_first_rows(instance, batch.weights)
    policy = plan(AlgorithmSpec("leaves-first"), instance, SEED)
    alg = _alg_costs(policy, batch)
    sets, index = _query_sets(policy, batch)
    for i, out in enumerate(runs):
        expect = {s.vertex for s in out.steps if s.stage == "stage1"}
        assert _members(instance, stage1[i]) == expect, (k, i)
        assert _members(instance, sets[index[i]]) == out.queried, (k, i)
        assert alg[i] == out.total_cost, (k, i)


@pytest.mark.parametrize("k", range(2, 9))
def test_leaves_first_stage1_at_prefix_minimum_hi_l(k):
    """Hand-built rows in which w_p = hi_l is the least of w_1 .. w_p, for
    every p, and one row with every w_p = hi_l: the run goes on to member
    p + 1, as the scalar run does, since I_l is open."""
    rng = np.random.default_rng(k)
    for _ in range(10):
        instance = _reduced_hyperedge(rng, k)
        (members,) = instance.hyperedges
        column = [instance.vertex_ids.index(u) for u in members]
        hi_l = instance.interval(members[0]).hi
        weights = _quarter_weights(instance, rng, 2 * k)
        for p in range(1, k):
            # w_1 .. w_{p-1} above hi_l, w_p = hi_l, the rest random
            for row in (weights[p], weights[k + p]):
                row[column[1:p]] = np.maximum(row[column[1:p]], hi_l + 0.25)
                row[column[p]] = hi_l
        weights[k, column[1:]] = hi_l
        stage1, runs = _leaves_first_rows(instance, weights)
        for i, out in enumerate(runs):
            expect = {s.vertex for s in out.steps if s.stage == "stage1"}
            assert _members(instance, stage1[i]) == expect, (members, weights[i])
        assert stage1[k, column[1:]].all()


@pytest.mark.parametrize("instance", [c for _, c in CASES], ids=IDS)
def test_stacked_feasibility_matches_scalar_reference(instance):
    """One ``feasible_matrix`` call on a stack of query matrices gives
    :func:`is_feasible` for every set and every index: the optimum and
    every spec's query sets, random sets and the full set."""
    batch = _batch(instance, SEED, N)
    stack = [batch.optimal[batch.pattern]]
    for spec, _ in _specs(instance):
        sets, index = _query_sets(plan(spec, instance, SEED), batch)
        stack.append(sets[index])
    rng = np.random.default_rng(SEED)
    stack += [rng.random(batch.weights.shape) < share for share in (0.5, 0.9)]
    stack.append(np.ones(batch.weights.shape, dtype=bool))
    stack = np.stack(stack)
    feasible = feasible_matrix(instance, batch.weights, stack)
    assert feasible.shape == stack.shape[:2]
    for i, r in enumerate(realizations(instance, batch.weights)):
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
    batch = _batch(gen_benchmark("fork"), SEED, 1200)
    everything = np.ones((1, 3), dtype=bool), np.zeros(1200, dtype=np.intp)
    batch.score(*everything, "first set")
    batch.check()
    batch.score(*_set_failing_at(batch, row), "second set")
    batch.score(*everything, "third set")
    with pytest.raises(AssertionError, match="^second set$"):
        batch.check()


def test_batch_check_reports_optimum_then_specs_in_order():
    batch = _batch(gen_benchmark("fork"), SEED, 600)
    batch.score(*_set_failing_at(batch, 7), "first set")
    batch.score(*_set_failing_at(batch, 3), "second set")
    with pytest.raises(AssertionError, match="^first set$"):
        batch.check()
    batch.optimal[:] = False  # the optimum's sets, scored at construction
    with pytest.raises(AssertionError, match="^offline optimum is not feasible$"):
        batch.check()
