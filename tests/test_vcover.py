import itertools
import math

import numpy as np
import pytest

from orientlab import (
    SolverBoundError,
    bipartition,
    build_cover_graph,
    gen_benchmark,
    gen_random,
    lp_half_integral,
    make_cover_graph,
    make_instance,
    vc_bipartite_exact,
    vc_exact_small,
    vc_few_hyperedges,
    vc_local_ratio_2approx,
)
from test_model import uniform_vertex


def unit_graph(edges, extra=()):
    ids = set(extra)
    for a, b in edges:
        ids |= {a, b}
    return make_cover_graph({v: 1.0 for v in ids}, edges)


def brute_min_cover(g):
    ids = list(g.vertices)
    best = math.inf
    for mask in range(1 << len(ids)):
        sel = {ids[j] for j in range(len(ids)) if mask >> j & 1}
        if all(a in sel or b in sel for a, b in g.edges):
            best = min(best, math.fsum(g.weights[v] for v in sel))
    return best


def brute_min_half_integral(g):
    """Optimal objective over all assignments with values in {0, 1/2, 1}."""
    ids = list(g.vertices)
    best = math.inf
    for combo in itertools.product((0.0, 0.5, 1.0), repeat=len(ids)):
        x = dict(zip(ids, combo))
        if all(x[a] + x[b] >= 1.0 for a, b in g.edges):
            best = min(best, math.fsum(g.weights[v] * x[v] for v in ids))
    return best


def random_cover_graph(rng, n=6, p=0.5, unit=False):
    ids = [f"v{i}" for i in range(n)]
    weights = {v: 1.0 if unit else float(rng.uniform(0.3, 2.5)) for v in ids}
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return make_cover_graph(weights, edges)


class TestBuildCoverGraph:
    def test_single_hyperedge_star(self):
        inst = make_instance(
            [
                uniform_vertex("a", 0, 3),
                uniform_vertex("b", 1, 4),
                uniform_vertex("c", 2, 5),
                uniform_vertex("d", 2.5, 6),
            ],
            [["a", "b", "c", "d"]],
        )
        g = build_cover_graph(inst)
        assert g.edges == (("a", "b"), ("a", "c"), ("a", "d"))

    def test_overlap_family_is_complete_bipartite(self):
        inst = gen_benchmark("overlap-family", k=3)
        g = build_cover_graph(inst)
        xs = [v for v in g.vertices if v.startswith("x")]
        rest = [v for v in g.vertices if v.startswith(("y", "z"))]
        expected = {tuple(sorted(e)) for e in itertools.product(xs, rest)}
        assert set(g.edges) == expected
        assert bipartition(g) is not None

    def test_graph_instance_identity(self):
        rng = np.random.default_rng(0)
        inst = gen_random("gnp", rng, n=7, p=0.4)
        g = build_cover_graph(inst)
        expected = {tuple(sorted(f)) for f in inst.hyperedges}
        assert set(g.edges) == expected

    def test_hub_biclique_not_bipartite(self):
        inst = gen_benchmark("hub-biclique", k=2)
        g = build_cover_graph(inst)
        assert bipartition(g) is None


class TestHalfIntegralLP:
    def test_single_edge_uneven_weights(self):
        g = make_cover_graph({"u": 1.0, "v": 2.0}, [("u", "v")])
        sol = lp_half_integral(g)
        assert sol.value_of == {"u": 1.0, "v": 0.0}
        assert sol.objective == pytest.approx(1.0)

    def test_triangle_all_halves(self):
        g = unit_graph([("a", "b"), ("b", "c"), ("a", "c")])
        sol = lp_half_integral(g)
        assert sol.halves == {"a", "b", "c"}
        assert sol.objective == pytest.approx(1.5)
        assert sol.objective == pytest.approx(brute_min_half_integral(g))

    def test_edgeless(self):
        g = make_cover_graph({"a": 1.0, "b": 2.0}, [])
        sol = lp_half_integral(g)
        assert sol.zeros == {"a", "b"}
        assert sol.objective == 0.0

    def test_matches_half_integral_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            g = random_cover_graph(rng, n=6, p=0.5)
            sol = lp_half_integral(g)
            assert sol.objective == pytest.approx(brute_min_half_integral(g), abs=1e-9)

    def test_matches_scipy_linprog(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = random_cover_graph(rng, n=9, p=0.4)
            if not g.edges:
                continue
            ids = list(g.vertices)
            pos = {v: i for i, v in enumerate(ids)}
            c = [g.weights[v] for v in ids]
            a_ub = []
            for a, b in g.edges:
                row = [0.0] * len(ids)
                row[pos[a]] = -1.0
                row[pos[b]] = -1.0
                a_ub.append(row)
            res = scipy_opt.linprog(
                c, A_ub=a_ub, b_ub=[-1.0] * len(a_ub), bounds=[(0, None)] * len(ids)
            )
            assert res.success
            assert lp_half_integral(g).objective == pytest.approx(res.fun, abs=1e-7)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_cover_graph(rng, n=8, p=0.5)
        assert lp_half_integral(g) == lp_half_integral(g)


class TestBipartiteExact:
    def test_single_edge(self):
        g = make_cover_graph({"u": 3.0, "v": 1.0}, [("u", "v")])
        cover = vc_bipartite_exact(g)
        assert cover.members == {"v"}
        assert cover.weight == 1.0

    def test_k23_unit(self):
        edges = [(a, b) for a in ("l0", "l1") for b in ("r0", "r1", "r2")]
        cover = vc_bipartite_exact(unit_graph(edges))
        assert cover.members == {"l0", "l1"}
        assert cover.weight == 2.0

    def test_path_weights(self):
        g = make_cover_graph({"a": 1.0, "b": 3.0, "c": 1.0}, [("a", "b"), ("b", "c")])
        cover = vc_bipartite_exact(g)
        assert cover.members == {"a", "c"}
        assert cover.weight == 2.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            nl, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            left = [f"l{i}" for i in range(nl)]
            right = [f"r{j}" for j in range(nr)]
            weights = {v: float(rng.uniform(0.2, 3.0)) for v in left + right}
            edges = [(a, b) for a in left for b in right if rng.random() < 0.5]
            g = make_cover_graph(weights, edges)
            assert vc_bipartite_exact(g).weight == pytest.approx(brute_min_cover(g), abs=1e-9)

    def test_rejects_odd_cycle(self):
        g = unit_graph([("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(ValueError, match="bipartite"):
            vc_bipartite_exact(g)


class TestExactSmall:
    def test_triangle(self):
        cover = vc_exact_small(unit_graph([("a", "b"), ("b", "c"), ("a", "c")]))
        assert cover.weight == 2.0

    def test_star_weighted(self):
        weights = {"c": 10.0, **{f"u{i}": 1.0 for i in range(5)}}
        g = make_cover_graph(weights, [("c", f"u{i}") for i in range(5)])
        cover = vc_exact_small(g)
        assert cover.members == {f"u{i}" for i in range(5)}
        assert cover.weight == 5.0

    def test_edgeless(self):
        cover = vc_exact_small(make_cover_graph({"a": 1.0}, []))
        assert cover.members == frozenset()
        assert cover.weight == 0.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_cover_graph(rng, n=7, p=0.45)
            assert vc_exact_small(g).weight == pytest.approx(brute_min_cover(g), abs=1e-9)

    def test_lexicographic_tie_break(self):
        g = unit_graph([("a", "b")])
        assert vc_exact_small(g).members == {"a"}
        g2 = unit_graph([("b", "z"), ("z", "c")])  # center z optimal, unique
        assert vc_exact_small(g2).members == {"z"}

    def test_size_bound(self):
        edges = [(f"v{i}", f"v{i+1}") for i in range(30)]
        with pytest.raises(SolverBoundError):
            vc_exact_small(unit_graph(edges))
        # per-component bound: many small components are fine
        edges = [(f"a{i}", f"b{i}") for i in range(30)]
        assert vc_exact_small(unit_graph(edges)).weight == 30.0


class TestLocalRatio:
    def test_single_edge(self):
        g = make_cover_graph({"u": 1.0, "v": 5.0}, [("u", "v")])
        cover = vc_local_ratio_2approx(g)
        assert cover.members == {"u"}

    def test_triangle_within_factor_two(self):
        cover = vc_local_ratio_2approx(unit_graph([("a", "b"), ("b", "c"), ("a", "c")]))
        assert cover.weight <= 4.0

    def test_edgeless(self):
        assert vc_local_ratio_2approx(make_cover_graph({"a": 2.0}, [])).members == frozenset()

    def test_factor_two_random(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            g = random_cover_graph(rng, n=7, p=0.5)
            approx = vc_local_ratio_2approx(g)
            assert approx.weight <= 2.0 * brute_min_cover(g) + 1e-9


class TestFewHyperedges:
    def test_single_hyperedge_prefers_leftmost(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 3), uniform_vertex("b", 1, 4), uniform_vertex("c", 2, 5)],
            [["a", "b", "c"]],
        )
        cover = vc_few_hyperedges(inst)
        assert cover.members == {"a"}
        assert cover.weight == 1.0

    def test_two_disjoint_hyperedges(self):
        inst = make_instance(
            [
                uniform_vertex("a", 0, 2),
                uniform_vertex("b", 1, 3),
                uniform_vertex("p", 10, 12),
                uniform_vertex("q", 11, 13),
            ],
            [["a", "b"], ["p", "q"]],
        )
        cover = vc_few_hyperedges(inst)
        assert cover.weight == 2.0
        assert cover.members == {"a", "p"}

    def test_overlap_family_k2(self):
        inst = gen_benchmark("overlap-family", k=2)
        assert vc_few_hyperedges(inst).weight == 2.0

    def test_matches_exact_small(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            inst = gen_random("hypergraph", rng, n=7, m=4, unit_cost=False)
            g = build_cover_graph(inst)
            assert vc_few_hyperedges(inst).weight == pytest.approx(
                vc_exact_small(g).weight, abs=1e-9
            )

    def test_subset_matches_induced_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = gen_random("hypergraph", rng, n=7, m=4)
            ids = list(inst.vertex_ids)
            subset = [v for v in ids if rng.random() < 0.6]
            g = build_cover_graph(inst).induced(subset)
            assert vc_few_hyperedges(inst, subset=subset).weight == pytest.approx(
                vc_exact_small(g).weight, abs=1e-9
            )

    def test_bound(self):
        rng = np.random.default_rng(9)
        inst = gen_random("hypergraph", rng, n=10, m=6)
        with pytest.raises(SolverBoundError):
            vc_few_hyperedges(inst, max_hyperedges=2)


class TestLpStructureProperties:
    def test_ones_cover_crossing_graph_minimally(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            g = random_cover_graph(rng, n=7, p=0.45)
            sol = lp_half_integral(g)
            cross = [
                (a, b)
                for a, b in g.edges
                if (a in sol.ones and b in sol.zeros) or (a in sol.zeros and b in sol.ones)
            ]
            if not cross:
                continue
            sub = make_cover_graph({v: g.weights[v] for v in sol.ones | sol.zeros}, cross)
            best = vc_bipartite_exact(sub, (sol.ones, sol.zeros))
            ones_weight = math.fsum(g.weights[v] for v in sol.ones)
            assert ones_weight <= best.weight + 1e-9

    def test_sandwich_and_half_count(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_cover_graph(rng, n=7, p=0.5, unit=True)
            sol = lp_half_integral(g)
            best = brute_min_cover(g)
            assert sol.objective <= best + 1e-9
            assert 2.0 * sol.objective >= best - 1e-9
            # unit weights: the half-valued part needs a cover of at least
            # half its size
            sub = g.induced(sol.halves)
            if sol.halves:
                assert len(sol.halves) <= 2.0 * vc_exact_small(sub).weight + 1e-9
