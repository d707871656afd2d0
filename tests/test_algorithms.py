import math

import numpy as np
import pytest

from orientlab import (
    OfflineOracle,
    Realization,
    ThresholdConfig,
    build_cover_graph,
    elementary_grid,
    enumerate_cell_realizations,
    estimate_profile,
    exact_expected_cost,
    exact_expected_opt,
    gen_benchmark,
    gen_random,
    guaranteed_ratio,
    hyper_ratio,
    hyper_threshold,
    is_feasible,
    mandatory_set,
    optimal_d,
    run_adversarial_baseline,
    run_fixed_cover,
    run_leaves_first,
    sample_realization,
)
from orientlab.algorithms import plan_best_vc, plan_threshold
from orientlab.harness import _BlockSampler

GOLDEN = (1 + math.sqrt(5)) / 2


def threshold_runner(inst, config, oracle=None):
    """The threshold algorithm on exact probabilities: one plan, then
    :func:`run_fixed_cover` from its stage 1 on each realization."""
    plan = plan_threshold(inst, config)
    return lambda r: run_fixed_cover(inst, plan.stage1, r, oracle)


def sampled_plan(inst, config, delta, rng):
    """The threshold plan from sampled probabilities, each vertex's
    estimate failing with probability delta_v so that all hold together
    with probability 1 - delta, as the harness plans threshold-hyper."""
    delta_v = 1.0 - (1.0 - delta) ** (1.0 / len(inst.vertices))
    return plan_threshold(inst, config, estimate_profile(inst, config.epsilon, delta_v, rng))


def best_vc_runner(inst, strategy, oracle=None):
    """The best cover-first algorithm: one cover, then
    :func:`run_fixed_cover` from it on each realization."""
    _, cover = plan_best_vc(inst, strategy)
    return lambda r: run_fixed_cover(inst, cover.members, r, oracle)


class TestParameters:
    def test_optimal_d_exact_solver(self):
        assert optimal_d(1.0) == pytest.approx(2 / (1 + math.sqrt(5)))
        assert guaranteed_ratio(1.0) == pytest.approx(GOLDEN)

    def test_optimal_d_factor_two(self):
        assert optimal_d(2.0) == pytest.approx(0.5)
        assert guaranteed_ratio(2.0) == pytest.approx(2.0)

    def test_optimum_balances_both_branches(self):
        for alpha in (1.0, 1.3, 1.7, 2.0):
            d = optimal_d(alpha)
            assert 1 / d == pytest.approx(alpha + (2 - alpha) * d, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            optimal_d(0.5)
        with pytest.raises(ValueError):
            guaranteed_ratio(1.0, 0.0)

    def test_hyper_ratio_matches_graph_limit(self):
        assert hyper_ratio(1.0, 0.0) == pytest.approx(GOLDEN)
        assert hyper_ratio(2.0, 0.0) == pytest.approx(2.0)
        assert hyper_threshold(1.0, 0.0) == pytest.approx(1 / GOLDEN)


class TestOfflineOpt:
    def test_fork_examples(self):
        fork = gen_benchmark("fork", eps=0.1)
        members, cost = OfflineOracle(fork).opt(Realization({"x": 1.5, "y": 2.5, "z": 2.5}))
        assert members == {"y", "z"} and cost == 2.0
        members, cost = OfflineOracle(fork).opt(Realization({"x": 0.5, "y": 2.5, "z": 2.5}))
        assert members == {"x"} and cost == 1.0

    def test_all_mandatory(self):
        fork = gen_benchmark("fork", eps=0.1)
        members, cost = OfflineOracle(fork).opt(Realization({"x": 1.5, "y": 1.8, "z": 1.9}))
        assert members == {"x", "y", "z"} and cost == 3.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            fam = ("gnp", "hypergraph")[i % 2]
            inst = gen_random(fam, rng, n=6, m=3, p=0.5, unit_cost=False)
            r = sample_realization(inst, rng)
            ids = list(inst.vertex_ids)
            best = math.inf
            for mask in range(1 << len(ids)):
                q = frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
                if is_feasible(inst, r, q):
                    best = min(best, math.fsum(inst.costs[v] for v in q))
            assert OfflineOracle(inst).opt(r)[1] == pytest.approx(best, abs=1e-9)


class TestThresholdGraph:
    def test_fork_plan_is_center(self):
        fork = gen_benchmark("fork", eps=0.01)
        plan = plan_threshold(fork, ThresholdConfig(alpha=1.0))
        assert plan.high_prob == frozenset()
        assert plan.stage1 == ("x",)

    def test_fork_expected_cost_exactly_two(self):
        fork = gen_benchmark("fork", eps=0.01)
        oracle = OfflineOracle(fork)
        runner = threshold_runner(fork, ThresholdConfig(alpha=1.0), oracle)
        assert exact_expected_cost(fork, runner) == pytest.approx(2.0, abs=1e-12)

    def test_edge_trap_expected_cost(self):
        d, eps, eps2 = 0.618, 0.01, 1e-4
        inst = gen_benchmark("edge-trap", d=d, eps=eps, eps2=eps2)
        oracle = OfflineOracle(inst)
        config = ThresholdConfig(alpha=1.0, d=d)
        runner = threshold_runner(inst, config, oracle)
        # the canonical cover pick is the almost-never-mandatory vertex,
        # so the other endpoint still gets queried with probability d - eps
        assert exact_expected_cost(inst, runner) == pytest.approx(1 + d - eps, abs=1e-12)
        assert exact_expected_opt(inst) == pytest.approx(1 + (d - eps) * eps2, abs=1e-12)

    def test_star_trap_queries_everything(self):
        d, n, eta = 0.618, 8, 0.01
        inst = gen_benchmark("star-trap", d=d, n=n, eta=eta)
        plan = plan_threshold(inst, ThresholdConfig(alpha=1.0, d=d))
        assert plan.high_prob == frozenset(inst.vertex_ids)
        assert exact_expected_opt(inst) == pytest.approx(1 + n * d - eta * d, abs=1e-12)

    def test_edgeless_queries_nothing(self):
        inst = gen_random("gnp", 1, n=4, p=0.0)
        runner = threshold_runner(inst, ThresholdConfig(alpha=1.0))
        out = runner(sample_realization(inst, np.random.default_rng(0)))
        assert out.transcript.total_cost == 0.0

    def test_exact_probs_reject_hypergraph(self):
        inst = gen_benchmark("weighted-triple")
        with pytest.raises(ValueError):
            plan_threshold(inst, ThresholdConfig(alpha=1.0))

    def test_guarantee_in_expectation_unit_costs(self):
        rng = np.random.default_rng(1)
        for i in range(6):
            inst = gen_random("gnp", rng, n=5, p=0.4)
            oracle = OfflineOracle(inst)
            for alpha, strategy in ((1.0, "exact-small"), (2.0, "local-ratio")):
                config = ThresholdConfig(alpha=alpha, vc_strategy=strategy)
                plan_cost = exact_expected_cost(inst, threshold_runner(inst, config, oracle))
                opt = exact_expected_opt(inst)
                assert plan_cost <= guaranteed_ratio(alpha) * opt + 1e-9

    def test_guarantee_in_expectation_arbitrary_costs(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            inst = gen_random("gnp", rng, n=5, p=0.4, unit_cost=False)
            oracle = OfflineOracle(inst)
            cost = exact_expected_cost(
                inst, threshold_runner(inst, ThresholdConfig(alpha=1.0), oracle)
            )
            assert cost <= guaranteed_ratio(1.0) * exact_expected_opt(inst) + 1e-9


class TestThresholdHypergraph:
    def test_matches_graph_plan_on_fork(self):
        fork = gen_benchmark("fork", eps=0.1)
        rng = np.random.default_rng(3)
        config = ThresholdConfig(alpha=1.0, vc_strategy="exact-small", epsilon=0.02)
        plan = sampled_plan(fork, config, 0.05, rng)
        graph_plan = plan_threshold(fork, ThresholdConfig(alpha=1.0))
        assert plan.stage1 == graph_plan.stage1 == ("x",)

    def test_feasible_on_overlap_family(self):
        inst = gen_benchmark("overlap-family", k=3, eps=0.05)
        rng = np.random.default_rng(4)
        config = ThresholdConfig(alpha=1.0, vc_strategy="few-hyperedges", epsilon=0.1)
        oracle = OfflineOracle(inst)
        sampler = _BlockSampler(inst, 99)
        for i in range(1000):
            r = sampler.realization(i)
            plan = sampled_plan(inst, config, 0.2, rng)  # a fresh estimate each time
            out = run_fixed_cover(inst, plan.stage1, r, oracle)
            # feasibility is asserted inside the runner; check pairing too
            assert out.opt_cost <= out.transcript.total_cost + 1e-9

    def test_single_hyperedge_stage2_walks_left_to_right(self):
        inst = gen_benchmark("single-set", n=3, eps=0.2)
        rng = np.random.default_rng(5)
        config = ThresholdConfig(alpha=1.0, vc_strategy="few-hyperedges", epsilon=0.1)
        r = Realization({"e0": 1.5, "e1": 1.6, "e2": 2.5, "e3": 2.6})
        out = run_fixed_cover(inst, sampled_plan(inst, config, 0.2, rng).stage1, r)
        stages = [(s.vertex, s.stage) for s in out.transcript.steps]
        stage2 = [v for v, stage in stages if stage == "stage2"]
        assert stage2 == sorted(stage2)  # ids sorted = left endpoint order here
        assert is_feasible(inst, r, out.transcript.queried)

    def test_requires_sampled_mode(self):
        inst = gen_benchmark("weighted-triple")
        # a hypergraph has no exact profile: the caller must sample one
        with pytest.raises(ValueError, match="sampled"):
            plan_threshold(inst, ThresholdConfig(alpha=1.0))


class TestBestVc:
    def test_overlap_pair_expected_costs(self):
        p = q = 0.4
        inst = gen_benchmark("overlap-pair", p=p, q=q)
        oracle = OfflineOracle(inst)
        runner = best_vc_runner(inst, "exact-small", oracle)
        assert exact_expected_cost(inst, runner) == pytest.approx(1 + p, abs=1e-12)
        assert exact_expected_opt(inst) == pytest.approx(1 + p * q, abs=1e-12)

    def test_overlap_pair_tie_breaks_to_v0(self):
        inst = gen_benchmark("overlap-pair", p=0.4, q=0.4)
        out = best_vc_runner(inst, "exact-small")(Realization({"v0": 0.5, "v1": 2.5}))
        assert [s.vertex for s in out.transcript.steps] == ["v0"]

    def test_zero_reduced_weight_joins_cover(self):
        # v1's weight never leaves v0's interval, so p_v0 = 1 and the
        # cover under (1 - p) c weights contains v0 for free
        from test_model import vertex, uniform_vertex

        v0 = uniform_vertex("v0", 0, 2)
        v1 = vertex("v1", 1, 3, [(1, 2, 1.0 - 1e-9), (2, 3, 1e-9)])
        from orientlab import make_instance

        inst = make_instance([v0, v1], [["v0", "v1"]])
        _, cover = plan_best_vc(inst, "exact-small")
        assert "v0" in cover.members

    def test_star_per_realization_bound(self):
        n = 3
        inst = gen_benchmark("single-set", n=n, eps=0.2)
        oracle = OfflineOracle(inst)
        for _, cells, r in enumerate_cell_realizations(inst):
            out = run_fixed_cover(inst, (f"e{0}",), r, oracle)
            members, opt_cost = oracle.opt(r)
            if f"e{0}" not in members:
                assert out.transcript.total_cost <= (n + 1) / n * opt_cost + 1e-9
            else:
                assert out.transcript.total_cost == pytest.approx(opt_cost)

    def test_bipartite_strategy_on_random(self):
        rng = np.random.default_rng(6)
        inst = gen_random("bipartite", rng, nl=3, nr=4, p=0.5)
        r = sample_realization(inst, rng)
        out = best_vc_runner(inst, "bipartite")(r)
        assert is_feasible(inst, r, out.transcript.queried)


class TestBaselineAndPolicies:
    def test_baseline_fork_example(self):
        fork = gen_benchmark("fork", eps=0.1)
        out = run_adversarial_baseline(fork, Realization({"x": 0.5, "y": 2.5, "z": 2.5}))
        assert [s.vertex for s in out.transcript.steps] == ["x"]
        assert out.transcript.total_cost == 1.0

    def test_baseline_queries_nothing_when_disjoint(self):
        from orientlab import make_instance, reduce_instance
        from test_model import uniform_vertex

        inst = make_instance(
            [uniform_vertex("u", 0, 1), uniform_vertex("v", 5, 6)], [["u", "v"]]
        )
        reduced, _ = reduce_instance(inst)
        out = run_adversarial_baseline(reduced, Realization({"u": 0.5, "v": 5.5}))
        assert out.transcript.total_cost == 0.0

    def test_baseline_prefix_until_certain(self):
        inst = gen_benchmark("single-set", n=3, eps=0.2)
        r = Realization({"e0": 0.5, "e1": 2.5, "e2": 2.6, "e3": 2.7})
        out = run_adversarial_baseline(inst, r)
        assert [s.vertex for s in out.transcript.steps] == ["e0"]

    def test_baseline_within_factor_two_expected(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            inst = gen_random("hypergraph", rng, n=5, m=3, unit_cost=False)
            oracle = OfflineOracle(inst)
            cost = exact_expected_cost(
                inst, lambda r: run_adversarial_baseline(inst, r, oracle)
            )
            assert cost <= 2.0 * exact_expected_opt(inst) + 1e-9

    def test_single_set_policies_match_formulas(self):
        n, eps = 3, 0.001
        inst = gen_benchmark("single-set", n=n, eps=eps)
        oracle = OfflineOracle(inst)
        center = exact_expected_cost(
            inst, lambda r: run_adversarial_baseline(inst, r, oracle)
        )
        assert center == pytest.approx(n, abs=1e-12)
        leaves = exact_expected_cost(
            inst, lambda r: run_leaves_first(inst, r, oracle)
        )
        expect = n - n / n + (1 + 1 / (n * eps)) * (1 - (1 - eps) ** n)
        assert leaves == pytest.approx(expect, abs=1e-9)

    def test_leaves_first_requires_single_hyperedge(self):
        fork = gen_benchmark("fork")
        with pytest.raises(ValueError):
            run_leaves_first(fork, Realization({"x": 0.5, "y": 2.5, "z": 2.5}))


class TestWeightedTriple:
    def setup_method(self):
        self.k, self.eps = 10.0, 0.05
        self.inst = gen_benchmark("weighted-triple", k=self.k, eps=self.eps)
        self.oracle = OfflineOracle(self.inst)

    def test_cover_center_cost(self):
        k, eps = self.k, self.eps
        cost = exact_expected_cost(
            self.inst, lambda r: run_fixed_cover(self.inst, ("x",), r, self.oracle)
        )
        assert cost == pytest.approx(k + (1 - eps) * (1 + k / 2), abs=1e-9)

    def test_cover_rest_cost(self):
        k, eps = self.k, self.eps
        cost = exact_expected_cost(
            self.inst, lambda r: run_fixed_cover(self.inst, ("y", "z"), r, self.oracle)
        )
        assert cost == pytest.approx(k + 1 + k * (1 - (1 - eps) / 2), abs=1e-9)

    def test_expected_opt(self):
        k, eps = self.k, self.eps
        expect = eps * k + (1 - eps) * (k + 1) + (1 - eps) * 0.5 * eps * k
        assert exact_expected_opt(self.inst) == pytest.approx(expect, abs=1e-9)


class TestRunInvariants:
    def algorithms(self, inst, oracle):
        yield lambda r: run_adversarial_baseline(inst, r, oracle)
        yield best_vc_runner(inst, "exact-small", oracle)
        if inst.kind == "graph":
            yield threshold_runner(inst, ThresholdConfig(alpha=1.0), oracle)

    def test_feasible_and_opt_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = gen_random("gnp", rng, n=7, p=0.4, unit_cost=False)
            oracle = OfflineOracle(inst)
            for runner in self.algorithms(inst, oracle):
                for _ in range(20):
                    r = sample_realization(inst, rng)
                    out = runner(r)
                    assert is_feasible(inst, r, out.transcript.queried)
                    assert out.opt_cost <= out.transcript.total_cost + 1e-9
                    out.transcript.validate(inst)

    def test_stage2_queries_certified_mandatory(self):
        rng = np.random.default_rng(9)
        for i in range(6):
            fam = ("gnp", "hypergraph")[i % 2]
            inst = gen_random(fam, rng, n=4, m=2, p=0.5)
            grid = elementary_grid(inst)
            from orientlab import probability_matrix

            matrix = probability_matrix(inst)
            supports = {v: [c for c, _ in matrix[v]] for v in inst.vertex_ids}
            oracle = OfflineOracle(inst)
            cover = build_cover_graph(inst)
            from orientlab import vc_exact_small

            cover_members = vc_exact_small(cover).members
            for _ in range(4):
                r = sample_realization(inst, rng)
                out = run_fixed_cover(inst, cover_members, r, oracle)
                revealed_cells = {}
                actual_cells = {
                    v: max(j for j in range(len(grid) - 1) if grid[j] < r[v])
                    for v in inst.vertex_ids
                }
                for step in out.transcript.steps:
                    if step.stage == "stage2":
                        # mandatory in every realization consistent with
                        # what was revealed before this query
                        free = [v for v in inst.vertex_ids if v not in revealed_cells]
                        import itertools as it

                        for combo in it.product(*(supports[v] for v in free)):
                            cells = dict(zip(free, combo))
                            cells.update(revealed_cells)
                            # one interior weight per cell decides M
                            # (TestCellLogic in test_mandatory.py)
                            weights = {
                                v: grid[c] + (grid[c + 1] - grid[c]) * (j + 1) / (len(cells) + 1)
                                for j, (v, c) in enumerate(sorted(cells.items()))
                            }
                            assert step.vertex in mandatory_set(inst, Realization(weights))
                    revealed_cells[step.vertex] = actual_cells[step.vertex]

    def test_partition_superadditivity_per_realization(self):
        rng = np.random.default_rng(10)
        for i in range(20):
            fam = ("gnp", "hypergraph")[i % 2]
            inst = gen_random(fam, rng, n=6, m=3, p=0.5, unit_cost=False)
            r = sample_realization(inst, rng)
            ids = list(inst.vertex_ids)
            feasible = [
                frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
                for mask in range(1 << len(ids))
                if is_feasible(
                    inst, r, frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
                )
            ]
            opt = min(math.fsum(inst.costs[v] for v in q) for q in feasible)
            parts = [ids[::2], ids[1::2]]
            lower = sum(
                min(math.fsum(inst.costs[v] for v in q if v in set(part)) for q in feasible)
                for part in parts
            )
            assert opt >= lower - 1e-9


class TestBalancedStar:
    """Weighted star tuned so querying the center first and querying the
    leaves first cost the same in expectation; the cover-first algorithm
    must then stay within 4/3 of the optimum."""

    def build(self, n=3, d=0.4, b=0.3):
        from test_model import vertex
        from orientlab import make_instance

        p_center = 1 - (1 - b) ** n
        k = n * (1 - d) / (1 - p_center)
        verts = [vertex("c", 0, 2, [(0, 1, 1 - d), (1, 2, d)], cost=k)]
        edges = []
        for i in range(n):
            verts.append(vertex(f"u{i}", 1, 3, [(1, 2, b), (2, 3, 1 - b)]))
            edges.append(["c", f"u{i}"])
        return make_instance(verts, edges), k, p_center

    def test_both_covers_cost_the_same(self):
        inst, k, p_center = self.build()
        oracle = OfflineOracle(inst)
        center = exact_expected_cost(
            inst, lambda r: run_fixed_cover(inst, ("c",), r, oracle)
        )
        leaves = exact_expected_cost(
            inst, lambda r: run_fixed_cover(inst, ("u0", "u1", "u2"), r, oracle)
        )
        assert center == pytest.approx(leaves, abs=1e-9)
        assert center == pytest.approx(k + 3 * 0.4, abs=1e-9)

    def test_best_vc_within_four_thirds(self):
        inst, _, _ = self.build()
        oracle = OfflineOracle(inst)
        cost = exact_expected_cost(inst, best_vc_runner(inst, "bipartite", oracle))
        assert cost <= 4.0 / 3.0 * exact_expected_opt(inst) + 1e-9
