"""The one-off costs of an evaluation against their references.

The offline oracle keeps the cover graph as neighbour bitmasks and
memoizes the cover of each component of G - M: it must give the optimum
of a brute-force search, the members of ``vc_exact_small`` on all of
G - M, its bound message, and trip the bound on the first mandatory
pattern in realization order.  ``estimate_profiles`` draws one planning
sample for several requests: every profile must equal a separate
``estimate_profile`` call, also when an endpoint redraw forces a request
back to a draw of its own.
"""

import itertools
import math

import numpy as np
import pytest

from orientlab import (
    AlgorithmSpec,
    OfflineOracle,
    SolverBoundError,
    build_cover_graph,
    estimate_profile,
    estimate_profiles,
    gen_benchmark,
    gen_random,
    hoeffding_sample_count,
    make_instance,
    mandatory_set,
    vc_exact_small,
)
from orientlab import mandatory, vcover
from orientlab.harness import _PairedBatch, _sample_weights, evaluate_all
from test_model import realizations, uniform_vertex


def _reference(instance, mandatory, bound):
    """M plus ``vc_exact_small`` on the cover graph induced on the rest."""
    rest = [v for v in instance.vertex_ids if v not in mandatory]
    cover = vc_exact_small(build_cover_graph(instance).induced(rest), bound)
    members = mandatory | cover.members
    return members, math.fsum(instance.costs[v] for v in members)


def _brute_cover_weight(instance, rest):
    """Minimum weight of a cover of the cover graph induced on ``rest``,
    by trying every subset."""
    graph = build_cover_graph(instance).induced(rest)
    best = math.inf
    for size in range(len(rest) + 1):
        for chosen in map(set, itertools.combinations(rest, size)):
            if all(a in chosen or b in chosen for a, b in graph.edges):
                best = min(best, math.fsum(instance.costs[v] for v in chosen))
    return best


def _small_cases():
    rng = np.random.default_rng(31)
    cases = []
    for unit_cost in (True, False):
        for n in (4, 7, 10):
            cases.append(gen_random("gnp", rng, n=n, p=0.45, unit_cost=unit_cost))
            cases.append(gen_random("hypergraph", rng, n=n, m=4, unit_cost=unit_cost))
    return cases


@pytest.mark.parametrize("instance", _small_cases())
def test_bitmask_oracle_matches_brute_force_and_reference(instance):
    oracle = OfflineOracle(instance)
    ids = instance.vertex_ids
    rng = np.random.default_rng(len(ids))
    sets = [frozenset(), frozenset(ids)]
    sets += [frozenset(itertools.compress(ids, rng.random(len(ids)) < p)) for p in (0.2, 0.5) * 6]
    for mandatory_set_ in sets:
        members, cost = oracle.solve(mandatory_set_)
        assert (members, cost) == _reference(instance, mandatory_set_, 24)
        rest = [v for v in ids if v not in mandatory_set_]
        base = math.fsum(instance.costs[v] for v in mandatory_set_)
        assert cost == pytest.approx(base + _brute_cover_weight(instance, rest), abs=1e-9)
        assert oracle.solve(mandatory_set_) == (members, cost)


def test_bitmask_oracle_on_the_70_vertex_staircase():
    instance = gen_benchmark("staircase", n=70)
    (hyperedge,) = instance.hyperedges
    centre, leaves = hyperedge[0], hyperedge[1:]
    oracle = OfflineOracle(instance, vc_bound=70)
    rng = np.random.default_rng(70)
    for p in (0.0, 0.1, 0.5, 0.9):
        for _ in range(3):
            drawn = frozenset(v for v in instance.vertex_ids if rng.random() < p)
            members, cost = oracle.solve(drawn)
            assert (members, cost) == _reference(instance, drawn, 70)
            # the cover graph is a star: a cover of its rest is the centre
            # or every leaf left
            free = [v for v in leaves if v not in drawn]
            star = min(instance.costs[centre], math.fsum(instance.costs[v] for v in free))
            rest = 0.0 if centre in drawn or not free else star
            base = math.fsum(instance.costs[v] for v in drawn)
            assert cost == pytest.approx(base + rest, abs=1e-9)


def test_oracle_owns_its_memo():
    assert not hasattr(vcover, "_small_cache")
    instance = gen_random("hypergraph", 3, n=8, m=4, unit_cost=False)
    first, second = OfflineOracle(instance), OfflineOracle(instance)
    first.solve(frozenset())
    assert first._covers and not second._covers


def _two_paths(first, second):
    """Paths a0-a1-... and b0-b1-... of the given lengths: one cover graph
    with two components."""
    vertices, edges = [], []
    for name, length in (("a", first), ("b", second)):
        vertices += [uniform_vertex(f"{name}{i}", i, i + 1.5) for i in range(length)]
        edges += [[f"{name}{i}", f"{name}{i + 1}"] for i in range(length - 1)]
    return make_instance(vertices, edges)


@pytest.mark.parametrize("first, second", [(4, 5), (5, 4)])
def test_bound_trips_on_the_component_with_the_least_vertex(first, second):
    instance = _two_paths(first, second)
    with pytest.raises(SolverBoundError) as expect:
        _reference(instance, frozenset(), 3)
    with pytest.raises(SolverBoundError) as got:
        OfflineOracle(instance, 3).solve(frozenset())
    assert str(got.value) == str(expect.value) == f"component of size {first} exceeds bound 3"


def _bound_cases():
    rng = np.random.default_rng(1)
    cases = []
    for t in range(16):
        family = ("gnp", "hypergraph")[t % 2]
        instance = gen_random(family, rng, n=10, p=0.4, m=4, unit_cost=False)
        cases += [(instance, 2), (instance, 3)]
    cases += [(gen_benchmark("star-trap", n=8), 4), (gen_benchmark("fork"), 0)]
    return cases


def test_bound_message_and_first_pattern_in_realization_order():
    """The batch raises what a realization-by-realization scan with
    ``vc_exact_small`` on all of G - M raises first, and the oracle raises
    the reference's message on every failing pattern."""
    varied = 0
    for instance, bound in _bound_cases():
        graph = build_cover_graph(instance)
        oracle = OfflineOracle(instance, bound)
        weights = _sample_weights(instance, 5, 200)
        messages = []
        for r in realizations(instance, weights):
            drawn = mandatory_set(instance, r)
            rest = [v for v in instance.vertex_ids if v not in drawn]
            try:
                vc_exact_small(graph.induced(rest), bound)
            except SolverBoundError as exc:
                messages.append(str(exc))
                with pytest.raises(SolverBoundError) as got:
                    oracle.solve(drawn)
                assert str(got.value) == str(exc)
        varied += len(set(messages)) > 1
        if messages:
            with pytest.raises(SolverBoundError) as got:
                _PairedBatch(instance, weights, OfflineOracle(instance, bound))
            assert str(got.value) == messages[0]
        else:
            _PairedBatch(instance, weights, OfflineOracle(instance, bound))
    assert varied  # some instance fails on patterns with different messages


# ---------------------------------------------------------------------------
# One planning sample for several requests

REQUESTS = [(0.05, 0.1), (0.02, 0.01), (0.1, 0.3), (0.05, 0.1), (0.03, 0.05), (0.04, 0.5)]


def _profile_cases():
    return [
        gen_benchmark("fork"),
        gen_random("gnp", 8, n=9, p=0.4, unit_cost=False),
        gen_random("hypergraph", 9, n=12, m=5, max_size=4, unit_cost=False),
        gen_random("hypergraph", 10, n=7, m=3, unit_cost=True),
    ]


@pytest.mark.parametrize("instance", _profile_cases())
def test_shared_sample_profiles_equal_separate_draws(instance):
    rng = np.random.default_rng(44)
    shared = estimate_profiles(instance, REQUESTS, rng)
    for (epsilon, delta), profile in zip(REQUESTS, shared):
        assert profile == estimate_profile(instance, epsilon, delta, np.random.default_rng(44))
    # the generator ends after the largest request's draw
    largest = max(REQUESTS, key=lambda r: hoeffding_sample_count(*r))
    alone = np.random.default_rng(44)
    estimate_profile(instance, *largest, alone)
    assert rng.random() == alone.random()


class _Planted:
    """A generator whose stream reads 0.0 at the given positions.  A 0.0
    position uniform puts a weight on its cell's lower end, an exact
    endpoint hit that the weight map redraws."""

    def __init__(self, seed, zeros):
        self.rng = np.random.default_rng(seed)
        self.zeros = zeros
        self.drawn = 0

    def random(self, size=None):
        if size is None:
            return float(self.random(1)[0])
        out = self.rng.random(size)
        flat = out.reshape(-1)
        for z in self.zeros:
            if self.drawn <= z < self.drawn + flat.size:
                flat[z - self.drawn] = 0.0
        self.drawn += flat.size
        return out


@pytest.mark.parametrize(
    "rows, fallback", [((4100, 6600), True), ((0, 4000), False), ((6700, 8100), False)]
)
def test_endpoint_hit_in_a_shorter_prefix_takes_its_own_draw(monkeypatch, rows, fallback):
    """Requests of 6,623 and 11,775 rows; the shorter one's last block
    (rows 4,096-8,191 of the shared draw) is cut short.  Redraws in it
    below row 6,623 take other values than in a draw of 6,623 rows, so
    that request is drawn again alone; redraws in an earlier, whole block
    or past its rows change nothing."""
    instance = gen_random("hypergraph", 9, n=12, m=5, max_size=4, unit_cost=False)
    requests = [(0.02, 0.01), (0.015, 0.01)]
    assert [hoeffding_sample_count(*r) for r in requests] == [6623, 11775]
    n = len(instance.vertices)
    # position uniforms of 100 rows, vertex row mod n in each
    zeros = [r * 2 * n + 2 * (r % n) + 1 for r in range(*rows, (rows[1] - rows[0]) // 100)]
    calls = []
    counts = mandatory._sample_mandatory_counts

    def counted(*args):
        calls.append(args[1])
        return counts(*args)

    monkeypatch.setattr(mandatory, "_sample_mandatory_counts", counted)
    shared = estimate_profiles(instance, requests, _Planted(3, zeros))
    assert calls == ([[6623, 11775], [6623]] if fallback else [[6623, 11775]])
    for (epsilon, delta), profile in zip(requests, shared):
        assert profile == estimate_profile(instance, epsilon, delta, _Planted(3, zeros))


def test_hyper_paired_evaluation_draws_one_planning_sample(monkeypatch):
    """threshold-hyper (6,792 rows) and hypergraph bestvc (3,745 rows)
    share one draw of 6,792 planning rows."""
    instance = gen_random("hypergraph", 2, n=12, m=5, max_size=4, unit_cost=False)
    specs = [
        AlgorithmSpec("threshold-hyper", epsilon=0.02),
        AlgorithmSpec("bestvc", epsilon=0.02),
        AlgorithmSpec("baseline"),
    ]
    rows = []
    weights_from_uniforms = mandatory.weights_from_uniforms

    def counted(instance, uniforms, redraw):
        rows.append(len(uniforms))
        return weights_from_uniforms(instance, uniforms, redraw)

    monkeypatch.setattr(mandatory, "weights_from_uniforms", counted)
    evaluate_all(instance, specs, 400, 17)
    assert sum(rows) == 6792
