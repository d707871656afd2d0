import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orientlab import (
    Interval,
    MandatoryProfile,
    Realization,
    elementary_grid,
    estimate_prob,
    estimate_profile,
    exact_prob_graph,
    gen_benchmark,
    gen_random,
    hoeffding_sample_count,
    is_feasible,
    make_instance,
    mandatory_set,
    probability_matrix,
    sample_realization,
)
from orientlab.harness import BENCHMARKS, _cell_blocks
from orientlab.mandatory import _edge_state, _sample_mandatory_counts, mandatory_matrix
from orientlab.model import weights_from_uniforms
from test_model import uniform_vertex, vertex


@pytest.fixture(scope="module")
def fork():
    return gen_benchmark("fork", eps=0.1)


def weights(**kw):
    return Realization(dict(kw))


class TestMandatorySet:
    def test_fork_cheap_minimum(self, fork):
        assert mandatory_set(fork, weights(x=0.5, y=2.5, z=2.5)) == frozenset()

    def test_fork_middle_minimum(self, fork):
        assert mandatory_set(fork, weights(x=1.5, y=2.5, z=2.5)) == {"y", "z"}

    def test_fork_all_mandatory(self, fork):
        assert mandatory_set(fork, weights(x=1.5, y=1.8, z=2.5)) == {"x", "y", "z"}

    def test_hyperedge_path_matches_graph_path(self):
        # same edges expressed as size-2 hyperedges vs the generic branch
        rng = np.random.default_rng(0)
        for _ in range(50):
            inst = gen_random("gnp", rng, n=6, p=0.5)
            r = sample_realization(inst, rng)
            generic = frozenset()
            for members in inst.hyperedges:
                m = min(members, key=lambda u: (r[u], u))
                for u in members:
                    if u != m and inst.interval(u).contains(r[m]):
                        generic |= {u}
                    if u != m and inst.interval(m).contains(r[u]):
                        generic |= {m}
            assert mandatory_set(inst, r) == generic


class TestFeasibility:
    def test_fork_single_query_enough(self, fork):
        assert is_feasible(fork, weights(x=0.5, y=2.5, z=2.5), {"x"})

    def test_full_query_set_always_feasible(self, fork):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = sample_realization(fork, rng)
            assert is_feasible(fork, r, set(fork.vertex_ids))

    def test_excluding_mandatory_vertex_infeasible(self, fork):
        assert not is_feasible(fork, weights(x=1.5, y=1.8, z=2.5), {"y", "z"})

    def test_mandatory_equals_nonexcludable_brute_force(self):
        rng = np.random.default_rng(2)
        for i in range(40):
            fam = ("gnp", "hypergraph")[i % 2]
            inst = gen_random(fam, rng, n=5, m=3, p=0.5, unit_cost=False)
            r = sample_realization(inst, rng)
            ids = list(inst.vertex_ids)
            feasible = [
                frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
                for mask in range(1 << len(ids))
                if is_feasible(
                    inst,
                    r,
                    frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1),
                )
            ]
            assert feasible, "the full set must always be feasible"
            assert mandatory_set(inst, r) == frozenset.intersection(*feasible)


def orientation_state(instance, revealed):
    """:func:`_edge_state` of every hyperedge, by index."""
    edges = enumerate(instance.hyperedges)
    return {i: _edge_state(instance, members, revealed) for i, members in edges}


class TestOrientationState:
    def test_fork_solved_by_x(self, fork):
        state = orientation_state(fork, {"x": 0.5})
        assert state == {0: ("solved", "x"), 1: ("solved", "x")}

    def test_fork_open_after_x(self, fork):
        state = orientation_state(fork, {"x": 1.5})
        assert state == {0: ("open", "y"), 1: ("open", "z")}

    def test_fully_revealed_returns_argmin(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 3), uniform_vertex("b", 1, 4), uniform_vertex("c", 2, 5)],
            [["a", "b", "c"]],
        )
        state = orientation_state(inst, {"a": 2.5, "b": 1.5, "c": 2.6})
        assert state == {0: ("solved", "b")}

    def test_unqueried_winner(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 2), uniform_vertex("b", 1, 4)], [["a", "b"]]
        )
        # b right of a's interval: a wins without being queried
        assert orientation_state(inst, {"b": 3.5}) == {0: ("solved", "a")}

    def test_no_reveals_opens_leftmost(self, fork):
        assert orientation_state(fork, {}) == {0: ("open", "x"), 1: ("open", "x")}


class TestExactProb:
    def test_fork_values(self, fork):
        profile = exact_prob_graph(fork)
        assert profile.method == "exact-graph"
        assert profile.probs["x"] == pytest.approx(0.19, abs=1e-15)
        assert profile.probs["y"] == 0.5
        assert profile.probs["z"] == 0.5

    def test_isolated_vertex(self):
        inst = make_instance([uniform_vertex("a", 0, 1)], [])
        assert exact_prob_graph(inst).probs["a"] == 0.0

    def test_path_product_formula(self):
        u = vertex("u", 0, 2, [(0, 1, 0.7), (1, 2, 0.3)])
        v = uniform_vertex("v", 1, 3)
        w = vertex("w", 2, 4, [(2, 3, 0.5), (3, 4, 0.5)])
        inst = make_instance([u, v, w], [["u", "v"], ["v", "w"]])
        p_v = exact_prob_graph(inst).probs["v"]
        assert p_v == pytest.approx(1 - 0.7 * 0.5, abs=1e-15)
        # cross-check against the sampled mandatory frequency
        rng = np.random.default_rng(3)
        n = 100_000
        hits = sum("v" in mandatory_set(inst, sample_realization(inst, rng)) for _ in range(n))
        sigma = math.sqrt(p_v * (1 - p_v) / n)
        assert abs(hits / n - p_v) <= 4 * sigma

    def test_rejects_hypergraph(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 2), uniform_vertex("b", 1, 3), uniform_vertex("c", 1.5, 4)],
            [["a", "b", "c"]],
        )
        with pytest.raises(ValueError, match="graph"):
            exact_prob_graph(inst)

    def test_exact_frequency_agreement_random(self):
        rng = np.random.default_rng(4)
        inst = gen_random("gnp", rng, n=5, p=0.6)
        profile = exact_prob_graph(inst)
        n = 20_000
        counts = {v: 0 for v in inst.vertex_ids}
        for _ in range(n):
            for v in mandatory_set(inst, sample_realization(inst, rng)):
                counts[v] += 1
        for v, p in profile.probs.items():
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / n)
            assert abs(counts[v] / n - p) <= 4 * sigma + 1e-9


def _enumerable_cases():
    """Every named benchmark, staircase and star-trap at 4 vertices, and
    the random families at 5 vertices: few enough cell combinations to
    enumerate them all."""
    small = {"staircase": {"n": 4}, "star-trap": {"n": 4}}
    cases = [gen_benchmark(name, **small.get(name, {})) for name in sorted(BENCHMARKS)]
    rng = np.random.default_rng(2025)
    families = (
        ("gnp", {"n": 5, "p": 0.5}),
        ("hypergraph", {"n": 5, "m": 3}),
        ("bipartite", {"nl": 2, "nr": 3}),
        ("star", {"n": 4}),
    )
    for family, params in families:
        for unit_cost in (True, False):
            cases.append(gen_random(family, rng, unit_cost=unit_cost, **params))
    return cases


class TestCellLogic:
    def test_cells_match_continuous(self):
        """Cells decide M: on every joint cell assignment,
        :func:`mandatory_set` at two random interior positions in the same
        cells agrees with :func:`mandatory_matrix` on the enumeration's
        representative weights."""
        rng = np.random.default_rng(5)
        for inst in _enumerable_cases():
            grid = np.array(elementary_grid(inst))
            for _, cells, reps in _cell_blocks(inst, 10**4):
                expect = mandatory_matrix(inst, reps).tolist()
                lo, width = grid[cells], grid[cells + 1] - grid[cells]
                for _ in range(2):
                    moved = lo + width * rng.uniform(0.01, 0.99, size=cells.shape)
                    for row, mandatory in zip(moved.tolist(), expect):
                        r = Realization(dict(zip(inst.vertex_ids, row)))
                        expect_set = {v for v, hit in zip(inst.vertex_ids, mandatory) if hit}
                        assert mandatory_set(inst, r) == expect_set

    def test_shared_minimum_cell_makes_all_covering_mandatory(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 2), uniform_vertex("b", 0, 2), uniform_vertex("c", 1, 3)],
            [["a", "b", "c"]],
        )
        for a, b in ((0.3, 0.6), (0.6, 0.3)):
            # a and b both in (0, 1): both mandatory, c not (cell outside I_c)
            assert mandatory_set(inst, weights(a=a, b=b, c=2.5)) == {"a", "b"}
            # a and b in (1, 2), which sits inside all three intervals
            assert mandatory_set(inst, weights(a=1 + a, b=1 + b, c=2.5)) == {"a", "b", "c"}


class TestEstimation:
    def test_sample_count(self):
        assert hoeffding_sample_count(0.05, 0.01) == 1060

    def test_isolated_vertex_estimates_zero(self):
        inst = make_instance([uniform_vertex("a", 0, 1), uniform_vertex("b", 0, 1)], [])
        rng = np.random.default_rng(0)
        assert estimate_prob(inst, "a", 0.2, 0.2, rng) == 0.0

    def test_fork_estimate_within_band(self, fork):
        rng = np.random.default_rng(6)
        inside = 0
        for _ in range(30):
            y = estimate_prob(fork, "y", 0.05, 0.01, rng)
            inside += 0.45 <= y <= 0.55
        assert inside >= 29

    def test_profile_matches_exact_graph(self, fork):
        rng = np.random.default_rng(7)
        profile = estimate_profile(fork, 0.05, 0.01, rng)
        profile.validate(fork)
        exact = exact_prob_graph(fork)
        for vid in fork.vertex_ids:
            assert abs(profile.probs[vid] - exact.probs[vid]) < 0.06

    def test_profile_invariant_enforced(self, fork):
        bad = MandatoryProfile(
            {v: 0.0 for v in fork.vertex_ids},
            method="sampled",
            epsilon=0.05,
            delta=0.01,
            sample_count=10,
        )
        with pytest.raises(ValueError, match="sample_count"):
            bad.validate(fork)


# ---------------------------------------------------------------------------
# Sampled planning against one call of the weight map


def _one_map_call(instance, count, rng):
    """Per-vertex mandatory counts of ``count`` realizations drawn in one
    shot: ``rng.random((count, 2n))`` through one
    :func:`weights_from_uniforms` and one :func:`mandatory_matrix` call."""
    uniforms = rng.random((count, 2 * len(instance.vertices)))
    weights = weights_from_uniforms(instance, uniforms, lambda row, j: rng)
    return mandatory_matrix(instance, weights).sum(axis=0)


def _sampled_cases():
    cases = [gen_benchmark(name) for name in sorted(BENCHMARKS)]
    rng = np.random.default_rng(606)
    for unit_cost in (True, False):
        for _ in range(3):
            n = int(rng.integers(5, 13))
            cases.append(gen_random("hypergraph", rng, n=n, m=5, max_size=4, unit_cost=unit_cost))
    return cases


@pytest.mark.parametrize("instance", _sampled_cases())
def test_sampled_planning_matches_one_shot_reference(instance):
    for count in (4095, 4096, 4097, 6792):
        got = _sample_mandatory_counts(instance, count, np.random.default_rng(count))
        expect = _one_map_call(instance, count, np.random.default_rng(count))
        assert np.array_equal(got, expect)
    k = hoeffding_sample_count(0.02, 0.01)  # 6623 rows: two blocks
    expect = _one_map_call(instance, k, np.random.default_rng(3))
    profile = estimate_profile(instance, 0.02, 0.01, np.random.default_rng(3))
    assert profile.probs == {v: int(c) / k for v, c in zip(instance.vertex_ids, expect)}
    last = instance.vertex_ids[-1]
    assert estimate_prob(instance, last, 0.02, 0.01, np.random.default_rng(3)) == int(expect[-1]) / k


def test_estimate_profile_memory_does_not_grow_with_the_sample_count():
    instance = gen_random("hypergraph", 12, n=12, m=5, max_size=4, unit_cost=False)
    k = hoeffding_sample_count(0.005, 0.01)  # 105,967 rows
    assert k * len(instance.vertices) * 8 > 9 * 2**20  # the k x n weights
    estimate_profile(instance, 0.05, 0.1, np.random.default_rng(1))
    tracemalloc.start()
    try:
        estimate_profile(instance, 0.005, 0.01, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2.8 MiB in 4,096-row blocks: no k x n matrix is ever held
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# Exact probabilities against a rational-arithmetic reference


def _mass_in_fraction(pmf, window):
    """P[w in window] as a Fraction: the reference for ``Pmf.mass_ratio``."""
    total = Fraction(0)
    for c in pmf.cells:
        lo, hi = max(c.cell.lo, window.lo), min(c.cell.hi, window.hi)
        if lo < hi:
            width = Fraction(c.cell.hi) - Fraction(c.cell.lo)
            total += Fraction(c.mass) * (Fraction(hi) - Fraction(lo)) / width
    return total


def _exact_prob_graph_fraction(instance):
    probs = {}
    for v in instance.vertices:
        miss = Fraction(1)
        for u in instance.graph_neighbors[v.id]:
            miss *= 1 - _mass_in_fraction(instance.by_id[u].pmf, v.interval)
        probs[v.id] = float(1 - miss)
    return probs


def _probability_matrix_fraction(instance):
    grid = elementary_grid(instance)
    rows = {}
    for v in instance.vertices:
        cells = [(i, Interval(grid[i], grid[i + 1])) for i in range(len(grid) - 1)]
        masses = [(i, float(_mass_in_fraction(v.pmf, c))) for i, c in cells if v.interval.covers(c)]
        rows[v.id] = [(i, m) for i, m in masses if m > 0.0]
    return rows


def _exact_cases():
    cases = [gen_benchmark(name) for name in sorted(BENCHMARKS)]
    rng = np.random.default_rng(505)
    for unit_cost in (True, False):
        for _ in range(12):
            n = int(rng.integers(4, 17))
            cases.append(gen_random("gnp", rng, n=n, p=float(rng.uniform(0.2, 0.5)), unit_cost=unit_cost))
            nl, nr = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            cases.append(gen_random("bipartite", rng, nl=nl, nr=nr, p=0.45, unit_cost=unit_cost))
            cases.append(gen_random("hypergraph", rng, n=n, m=5, unit_cost=unit_cost))
    return cases


@pytest.mark.parametrize("instance", _exact_cases())
def test_integer_ratios_equal_rational_reference(instance):
    for v in instance.vertices:
        for u in instance.vertices:
            num, den = v.pmf.mass_ratio(u.interval)
            assert Fraction(num, den) == _mass_in_fraction(v.pmf, u.interval)
            assert v.pmf.mass_in(u.interval) == float(Fraction(num, den))
    assert probability_matrix(instance) == _probability_matrix_fraction(instance)
    if instance.kind == "graph":
        assert exact_prob_graph(instance).probs == _exact_prob_graph_fraction(instance)
