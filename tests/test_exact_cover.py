"""The bitmask exact-cover engine against the set-based branch and bound.

``vc_exact_small`` and the offline oracle share one engine on the bit view
of a cover graph: a bit BFS for the components and a branch and bound that
prunes on a greedy matching.  The set-based branch and bound it replaced,
with its max-flow LP bound at every node, is kept here as the reference:
members and weight must be equal on a seeded random corpus, on every named
benchmark and on structured 20-24 vertex graphs, and the oracle must give
M plus the reference cover of G - M, with the same bound message, and
the optima it keeps as bitmasks must unpack to the same members.
``lp_half_integral`` builds its double cover on integer indices; its split
must equal the one of the name-based construction kept here.
"""

import itertools
import math
import time
from collections import deque

import numpy as np
import pytest

from orientlab import (
    BENCHMARKS,
    OfflineOracle,
    SolverBoundError,
    build_cover_graph,
    exact_expected_opt,
    exact_prob_graph,
    estimate_profile,
    gen_benchmark,
    gen_random,
    lp_half_integral,
    make_cover_graph,
    vc_exact_small,
)
from orientlab.mandatory import _bit_rows, _row_bits
from orientlab.vcover import EPS, _FlowNet


# ---------------------------------------------------------------------------
# Reference: the set-based solver and the name-based double cover


def _reference_min_cut(weights, left, right, cross_edges):
    index = {v: i + 1 for i, v in enumerate(itertools.chain(left, right))}
    net = _FlowNet(len(index) + 2)
    s, t = 0, len(index) + 1
    left_set = set(left)
    for v in left:
        net.add(s, index[v], weights[v])
    for v in right:
        net.add(index[v], t, weights[v])
    for a, b in cross_edges:
        u, v = (a, b) if a in left_set else (b, a)
        net.add(index[u], index[v], math.inf)
    value = net.max_flow(s, t)
    reach = net.reachable(s)
    cover = {v for v in left if index[v] not in reach}
    cover |= {v for v in right if index[v] in reach}
    return value, cover


def _reference_lp_core(vertices, weights, edges):
    left = [f"{v}\x00L" for v in vertices]
    right = [f"{v}\x00R" for v in vertices]
    w2 = {f"{v}\x00L": weights[v] for v in vertices}
    w2.update({f"{v}\x00R": weights[v] for v in vertices})
    cross = []
    for a, b in edges:
        cross.append((f"{a}\x00L", f"{b}\x00R"))
        cross.append((f"{b}\x00L", f"{a}\x00R"))
    value, cover = _reference_min_cut(w2, left, right, cross)
    x = {v: ((f"{v}\x00L" in cover) + (f"{v}\x00R" in cover)) / 2.0 for v in vertices}
    return x, value / 2.0


def _reference_matching_bound(edges, weights):
    used = set()
    bound = 0.0
    for a, b in edges:
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            bound += min(weights[a], weights[b])
    return bound


def _reference_bb_min_cover(adjacency, weights):
    best_weight = math.inf
    best_members = None

    def consider(chosen, weight):
        nonlocal best_weight, best_members
        members = tuple(sorted(chosen))
        if weight < best_weight - EPS or (
            abs(weight - best_weight) <= EPS
            and (best_members is None or members < best_members)
        ):
            best_weight = weight
            best_members = members

    def search(adj, chosen, weight):
        active = {v: ns for v, ns in adj.items() if ns}
        if not active:
            consider(chosen, weight)
            return
        if weight > best_weight + EPS:
            return
        edges = sorted((a, b) for a, ns in active.items() for b in ns if a < b)
        if weight + _reference_matching_bound(edges, weights) > best_weight + EPS:
            return
        _, lp_obj = _reference_lp_core(sorted(active), weights, edges)
        if weight + lp_obj > best_weight + EPS:
            return
        v = max(active, key=lambda u: (len(active[u]), u))
        sub = {u: ns - {v} for u, ns in active.items() if u != v}
        search(sub, chosen | {v}, weight + weights[v])
        ns = set(active[v])
        drop = ns | {v}
        sub = {u: adj_ns - drop for u, adj_ns in active.items() if u not in drop}
        search(sub, chosen | ns, weight + math.fsum(weights[u] for u in ns))

    search(adjacency, set(), 0.0)
    return best_weight, best_members


def _reference_components(g):
    seen, comps = set(), []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            for w in g.adjacency[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _reference_cover(g, max_component=24):
    """Members and weight of the set-based ``vc_exact_small``."""
    members = set()
    for comp in _reference_components(g):
        if len(comp) > max_component:
            raise SolverBoundError(
                f"component of size {len(comp)} exceeds bound {max_component}"
            )
        if len(comp) == 1:
            continue
        sub = g.induced(comp)
        adjacency = {v: set(sub.adjacency[v]) for v in sub.vertices}
        members.update(_reference_bb_min_cover(adjacency, sub.weights)[1])
    return frozenset(members), math.fsum(g.weights[v] for v in members)


def _assert_same_cover(g, max_component=24):
    cover = vc_exact_small(g, max_component)
    assert (cover.members, cover.weight) == _reference_cover(g, max_component)


# ---------------------------------------------------------------------------
# Corpora


_WEIGHT_CLASSES = ("unit", "halves", "thirds", "uniform")


def _weights(rng, kind, n):
    if kind == "unit":
        return [1.0] * n
    if kind == "halves":
        return rng.choice([0.5, 1.0, 1.5, 2.0], n).tolist()
    if kind == "thirds":  # sums of equal value can differ by an ulp
        return rng.choice([1 / 3, 2 / 3, 0.1, 0.2, 0.3], n).tolist()
    return rng.uniform(0.1, 3.0, n).tolist()


def _graph(names, weights, pairs):
    return make_cover_graph(
        dict(zip(names, weights)), [(names[i], names[j]) for i, j in pairs]
    )


def _random_corpus(count=3000):
    rng = np.random.default_rng(15)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    for t in range(count):
        n = int(rng.integers(1, 15))
        # names whose sort order is unrelated to the draw order
        names = ["".join(rng.choice(letters, 3)) + str(i) for i in range(n)]
        p = float(rng.uniform(0.1, 0.9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        yield _graph(names, _weights(rng, _WEIGHT_CLASSES[t % 4], n), pairs)


def _random_cubic(rng, n):
    """A random simple 3-regular graph by the configuration model."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        pairs = {tuple(sorted(map(int, pair))) for pair in stubs}
        if len(pairs) == len(stubs) and all(a != b for a, b in pairs):
            return sorted(pairs)


def _structured():
    """A 24-cycle, a 4 x 6 grid, K12,12, K24 and three random cubic
    graphs on 20, 22 and 24 vertices, each with unit and random weights."""
    rng = np.random.default_rng(24)
    shapes = [
        ("cycle24", 24, [(i, (i + 1) % 24) for i in range(24)]),
        (
            "grid4x6",
            24,
            [(6 * r + c, 6 * r + c + 1) for r in range(4) for c in range(5)]
            + [(6 * r + c, 6 * r + c + 6) for r in range(3) for c in range(6)],
        ),
        ("k12_12", 24, [(i, 12 + j) for i in range(12) for j in range(12)]),
        ("k24", 24, list(itertools.combinations(range(24), 2))),
    ]
    shapes += [(f"cubic{n}", n, _random_cubic(rng, n)) for n in (20, 22, 24)]
    for name, n, pairs in shapes:
        names = [f"v{i}" for i in range(n)]
        for kind in ("unit", "uniform"):
            yield f"{name}-{kind}", _graph(names, _weights(rng, kind, n), pairs)


STRUCTURED = dict(_structured())


def _bestvc_weights(instance):
    if instance.kind == "graph":
        profile = exact_prob_graph(instance)
    else:
        profile = estimate_profile(instance, 0.05, 0.1, np.random.default_rng(0))
    return {v.id: (1.0 - profile.probs[v.id]) * v.cost for v in instance.vertices}


# ---------------------------------------------------------------------------
# vc_exact_small


def test_random_corpus_matches_reference():
    mismatches = []
    for t, g in enumerate(_random_corpus()):
        cover = vc_exact_small(g)
        if (cover.members, cover.weight) != _reference_cover(g):
            mismatches.append(t)
    assert mismatches == []


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_cover_graphs_match_reference(name):
    instance = gen_benchmark(name)
    for g in (build_cover_graph(instance), build_cover_graph(instance, _bestvc_weights(instance))):
        _assert_same_cover(g, len(g.vertices))
        if len(g.vertices) > 24:
            with pytest.raises(SolverBoundError) as got:
                vc_exact_small(g)
            with pytest.raises(SolverBoundError) as expect:
                _reference_cover(g)
            assert str(got.value) == str(expect.value)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_graphs_match_reference(name):
    _assert_same_cover(STRUCTURED[name])


def test_structured_set_is_fast():
    # the matching bound alone must not blow up where the LP bound pruned
    start = time.perf_counter()
    for g in STRUCTURED.values():
        vc_exact_small(g)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The offline oracle


def _oracle_cases():
    rng = np.random.default_rng(7)
    for t in range(24):
        family = ("gnp", "hypergraph")[t % 2]
        n = int(rng.integers(6, 15))
        yield gen_random(family, rng, n=n, p=0.45, m=5, unit_cost=t % 4 < 2)


def test_oracle_is_mandatory_set_plus_reference_cover():
    rng = np.random.default_rng(8)
    for instance in _oracle_cases():
        oracle, graph = OfflineOracle(instance), build_cover_graph(instance)
        ids = instance.vertex_ids
        for _ in range(12):
            bits = int(rng.integers(0, 1 << len(ids)))
            mandatory = frozenset(v for j, v in enumerate(ids) if bits >> j & 1)
            cover, _ = _reference_cover(graph.induced(set(ids) - mandatory))
            members = mandatory | cover
            expect = (members, math.fsum(instance.costs[v] for v in members))
            assert oracle.optimum_bits(bits) == sum(1 << j for j, v in enumerate(ids) if v in members)
            assert oracle.solve(mandatory) == expect


def test_unpacked_optimum_bits_are_the_solve_bits_names():
    """The batch's optimal masks: each pattern's optimum as bits, all
    unpacked at once, name the members of ``solve``."""
    rng = np.random.default_rng(8)
    for instance in _oracle_cases():
        ids = instance.vertex_ids
        masks = [int(rng.integers(0, 1 << len(ids))) for _ in range(12)]
        oracle = OfflineOracle(instance)
        optimal = _bit_rows([oracle.optimum_bits(bits) for bits in masks], len(ids))
        assert optimal.dtype == bool and optimal.shape == (len(masks), len(ids))
        names = OfflineOracle(instance)
        for bits, row in zip(masks, optimal.tolist()):
            mandatory = frozenset(v for j, v in enumerate(ids) if bits >> j & 1)
            assert frozenset(itertools.compress(ids, row)) == names.solve(mandatory)[0]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 63, 64, 65, 130])
def test_bit_rows_inverts_row_bits(width):
    masks = np.random.default_rng(width).random((50, width)) < 0.5
    assert np.array_equal(_bit_rows(_row_bits(masks), width), masks)


def test_exact_expected_opt_of_a_weighted_7_vertex_gnp():
    # 7^7 = 823,543 cell assignments
    instance = gen_random("gnp", 0, n=7, p=0.4, unit_cost=False)
    assert exact_expected_opt(instance) == 8.772182045397836


def test_oracle_bound_message_matches_reference():
    rng = np.random.default_rng(9)
    raised = set()
    for instance in _oracle_cases():
        graph, ids = build_cover_graph(instance), instance.vertex_ids
        for bound in (0, 2, 3, 5):
            oracle = OfflineOracle(instance, bound)
            for _ in range(8):
                bits = int(rng.integers(0, 1 << len(ids)))
                rest = [v for j, v in enumerate(ids) if not bits >> j & 1]
                try:
                    expect = _reference_cover(graph.induced(rest), bound)
                except SolverBoundError as exc:
                    raised.add(str(exc))
                    with pytest.raises(SolverBoundError) as got:
                        oracle.optimum_bits(bits)
                    assert str(got.value) == str(exc)
                else:
                    assert oracle.solve(frozenset(ids) - set(rest))[0] == frozenset(
                        v for j, v in enumerate(ids) if bits >> j & 1
                    ) | expect[0]
    assert "component of size 1 exceeds bound 0" in raised


def test_lone_vertex_trips_a_zero_bound():
    instance = gen_benchmark("fork")
    ids = instance.vertex_ids
    # every vertex but the last is mandatory: G - M is one lone vertex,
    # which needs no cover
    bits = (1 << (len(ids) - 1)) - 1
    with pytest.raises(SolverBoundError) as got:
        OfflineOracle(instance, 0).optimum_bits(bits)
    assert str(got.value) == "component of size 1 exceeds bound 0"
    assert OfflineOracle(instance, 1).solve(frozenset(ids[:-1]))[0] == frozenset(ids[:-1])


# ---------------------------------------------------------------------------
# lp_half_integral


def test_lp_split_matches_name_based_double_cover():
    graphs = list(itertools.islice(_random_corpus(), 1000)) + list(STRUCTURED.values())
    for g in graphs:
        sol = lp_half_integral(g)
        x, objective = _reference_lp_core(g.vertices, g.weights, g.edges)
        assert sol.objective == objective
        assert sol.values == tuple(sorted(x.items()))
        assert sol.ones == frozenset(v for v, val in x.items() if val == 1.0)
        assert sol.halves == frozenset(v for v, val in x.items() if val == 0.5)
        assert sol.zeros == frozenset(v for v, val in x.items() if val == 0.0)
