import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientlab import (
    AlgorithmSpec,
    Instance,
    InstanceError,
    SolverBoundError,
    best_two_stage_cost,
    build_cover_graph,
    csv_header,
    csv_row,
    evaluate,
    exact_expected_opt,
    expected_opt_generalized,
    expected_opt_generalized_part,
    gen_benchmark,
    gen_generalized,
    gen_random,
    make_generalized,
    make_instance,
    run_two_stage_prefix,
    sample_realization,
    serialize_instance,
    two_stage_expected_opt,
    vertex_split,
)
from orientlab import algorithms, harness, mandatory, model
from orientlab.algorithms import plan, profiles
from orientlab.harness import _sample_weights
from orientlab.model import per_instance
from test_bootstrap_gather import _BOOT_TAG, _block_sums, _bootstrap_ci, _percentiles
from test_model import realizations, uniform_vertex


class TestBenchmarks:
    def test_all_benchmarks_reduced_and_valid(self):
        from orientlab.harness import BENCHMARKS

        for name in BENCHMARKS:
            inst = gen_benchmark(name)
            assert inst.is_reduced(), name
            inst.validate()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            gen_benchmark("nope")

    def test_fork_exact_opt_closed_form(self):
        for eps in (0.1, 0.01):
            inst = gen_benchmark("fork", eps=eps)
            assert exact_expected_opt(inst) == pytest.approx(
                2 - (1 - eps) ** 2 / 2, abs=1e-12
            )

    def test_staircase_shape(self):
        inst = gen_benchmark("staircase", n=16)
        assert len(inst.vertices) == 16
        assert len(inst.hyperedges) == 1
        first = inst.hyperedges[0][0]
        assert inst.interval(first).lo == 1.0
        assert inst.interval(first).hi == 17.0

    def test_single_set_exact_opt_formula(self):
        for n, eps in ((2, 0.01), (3, 0.001), (4, 0.05)):
            inst = gen_benchmark("single-set", n=n, eps=eps)
            expect = n - (n - 1) / n * (1 - eps) ** n
            assert exact_expected_opt(inst) == pytest.approx(expect, abs=1e-9)

    def test_hub_biclique_edge_count(self):
        inst = gen_benchmark("hub-biclique", k=3)
        g = build_cover_graph(inst)
        assert len(g.edges) == 3 * 3 + 2 * 3


class TestRandomFamilies:
    def test_gnp_reduced(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = gen_random("gnp", rng, n=8, p=0.4)
            assert inst.is_reduced()
            assert inst.kind == "graph"

    def test_interval_layers_reduced_triangle_free(self):
        rng = np.random.default_rng(1)
        text = ""
        for _ in range(10):
            inst = gen_random("interval-layers", rng, k=2, n=8)
            assert isinstance(inst, Instance)
            assert inst.is_reduced()
            assert inst.kind == "graph"
            g = build_cover_graph(inst)
            for a, b in g.edges:
                assert not set(g.adjacency[a]) & set(g.adjacency[b])
            text += serialize_instance(inst)
        # the family's draws are pinned: the oracle suite sees these instances
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0864d837cc777fc4b7e40c2d9a03c6b40d8b1dfe2e1451500c4a82b519a7b1f3"
        )

    def test_star_shape(self):
        inst = gen_random("star", 3, n=5)
        g = build_cover_graph(inst)
        assert len(g.vertices) == 6

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown random family"):
            gen_random("nope", 1)


class TestTwoStage:
    def test_formula_minimum(self):
        cost, k = best_two_stage_cost(64)
        assert cost == pytest.approx(64 / 2**5 + 5 * (1 - 2**-5))
        assert k == 5

    def test_exact_opt_closed_form_matches_enumeration(self):
        for n in (2, 3, 4, 5):
            inst = gen_benchmark("staircase", n=n)
            assert exact_expected_opt(inst) == pytest.approx(
                two_stage_expected_opt(n), abs=1e-12
            )

    def test_prefix_policy_cost_formula_monte_carlo(self):
        n, k = 8, 3
        inst = gen_benchmark("staircase", n=n)
        draws = 20_000
        total = 0.0
        for r in realizations(inst, _sample_weights(inst, 77, draws)):
            total += run_two_stage_prefix(inst, k, r)
        expect = n / 2**k + k * (1 - 2**-k)
        sigma = (n - k) * math.sqrt(2**-k * (1 - 2**-k) / draws)
        assert abs(total / draws - expect) <= 4 * sigma

    def test_prefix_zero_queries_everything(self):
        inst = gen_benchmark("staircase", n=4)
        r = sample_realization(inst, np.random.default_rng(3))
        assert run_two_stage_prefix(inst, 0, r) == 4.0

    def test_staircase_opt_via_offline_oracle(self):
        # closed form 2 - 3/2^n against paired Monte Carlo on a larger n
        from orientlab.algorithms import OfflineOracle

        n = 32
        inst = gen_benchmark("staircase", n=n)
        oracle = OfflineOracle(inst, vc_bound=40)
        draws = 4000
        total = 0.0
        for r in realizations(inst, _sample_weights(inst, 5, draws)):
            total += oracle.opt(r)[1]
        assert abs(total / draws - two_stage_expected_opt(n)) < 0.1


class TestGeneralized:
    def triangle(self):
        law = {
            frozenset(): 0.25,
            frozenset({"a"}): 0.25,
            frozenset({"a", "b"}): 0.3,
            frozenset({"a", "b", "c"}): 0.2,
        }
        return make_generalized(
            {"a": 1.0, "b": 2.0, "c": 0.5},
            [("a", "b"), ("b", "c"), ("a", "c")],
            law,
        )

    def test_expected_opt_by_hand(self):
        gi = self.triangle()
        # per mandatory set: cost of the set plus the cheapest cover of the rest
        expect = (
            0.25 * (0.0 + 1.5)  # cover {a, c} of the full triangle
            + 0.25 * (1.0 + 0.5)  # a forced, cover {c} of edge b-c
            + 0.3 * (3.0 + 0.0)
            + 0.2 * (3.5 + 0.0)
        )
        assert expected_opt_generalized(gi) == pytest.approx(expect, abs=1e-12)

    def test_identity_split(self):
        gi = self.triangle()
        split = vertex_split(gi, "a", [1.0])
        assert expected_opt_generalized(split) == pytest.approx(
            expected_opt_generalized(gi), abs=1e-12
        )

    def test_path_split_preserves_opt(self):
        law = {frozenset(): 0.5, frozenset({"v"}): 0.5}
        gi = make_generalized(
            {"u": 1.0, "v": 1.0, "w": 1.0}, [("u", "v"), ("v", "w")], law
        )
        split = vertex_split(gi, "v", [0.5, 0.5])
        assert expected_opt_generalized(split) == pytest.approx(
            expected_opt_generalized(gi), abs=1e-12
        )

    def test_split_fraction_validation(self):
        gi = self.triangle()
        with pytest.raises(ValueError):
            vertex_split(gi, "a", [0.5, 0.4])
        with pytest.raises(ValueError):
            vertex_split(gi, "nope", [0.5, 0.5])

    def test_partition_bound_with_copies(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            gi = gen_generalized(int(rng.integers(3, 7)), rng)
            vid = gi.graph.vertices[0]
            split = vertex_split(gi, vid, [0.25, 0.75])
            total = expected_opt_generalized(split)
            ids = list(split.graph.vertices)
            parts = [ids[::2], ids[1::2]]
            lower = sum(expected_opt_generalized_part(split, part) for part in parts)
            assert total >= lower - 1e-9

    def test_law_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums"):
            make_generalized({"a": 1.0}, [], {frozenset(): 0.5})


class TestEvaluate:
    def test_reports_reproducible(self):
        inst = gen_benchmark("fork", eps=0.01)
        spec = AlgorithmSpec("baseline")
        rep1 = evaluate(inst, spec, 3000, 42, "fork")
        rep2 = evaluate(inst, spec, 3000, 42, "fork")
        assert rep1.mean_alg == rep2.mean_alg
        assert rep1.mean_opt == rep2.mean_opt
        assert rep1.ci95_ratio == rep2.ci95_ratio

    def test_mean_opt_converges_to_exact(self):
        for name, kwargs in (("fork", {"eps": 0.1}), ("overlap-pair", {"p": 0.3, "q": 0.6})):
            inst = gen_benchmark(name, **kwargs)
            exact = exact_expected_opt(inst)
            rep = evaluate(inst, AlgorithmSpec("offline-opt"), 20_000, 9, name)
            # crude per-sample deviation bound: costs are within [0, n]
            sigma = len(inst.vertices) / math.sqrt(rep.n_samples)
            assert abs(rep.mean_opt - exact) <= 4 * sigma
            assert rep.ratio == pytest.approx(1.0)

    def test_ratio_is_ratio_of_means(self):
        inst = gen_benchmark("fork", eps=0.01)
        rep = evaluate(inst, AlgorithmSpec("baseline"), 2000, 3, "fork")
        assert rep.ratio == pytest.approx(rep.mean_alg / rep.mean_opt)
        lo, hi = rep.ci95_ratio
        assert lo <= rep.ratio <= hi

    def test_optimal_algorithms_report_exactly_one(self):
        # query sets are costed as exact sums, so an algorithm that queries
        # the optimal set on every realization has ratio and CI exactly 1
        inst = gen_random("gnp", 5, n=10, p=0.3, unit_cost=False)
        rep = evaluate(inst, AlgorithmSpec("offline-opt"), 2000, 8, "gnp")
        assert rep.ratio == 1.0
        assert rep.ci95_ratio == (1.0, 1.0)
        # bestvc is optimal on this weighted graph; summing its costs in
        # query order used to give 0.9999999999999998
        rng = np.random.default_rng(70)
        inst = gen_random("gnp", rng, n=int(rng.integers(3, 7)), p=0.5, unit_cost=False)
        rep = evaluate(inst, AlgorithmSpec("bestvc"), 300, 70, "gnp")
        assert rep.ratio == 1.0
        assert rep.ci95_ratio == (1.0, 1.0)

    def test_rejects_unreduced_instance(self):
        inst = make_instance(
            [uniform_vertex("u", 0, 1), uniform_vertex("v", 5, 6)], [["u", "v"]]
        )
        with pytest.raises(InstanceError, match="reduced"):
            evaluate(inst, AlgorithmSpec("baseline"), 10, 1)

    def test_csv_row_shape(self):
        inst = gen_benchmark("fork", eps=0.01)
        rep = evaluate(inst, AlgorithmSpec("threshold", alpha=1.0), 500, 5, "fork")
        header = csv_header().split(",")
        assert header == [
            "instance_id",
            "algorithm",
            "d",
            "alpha",
            "n_samples",
            "mean_alg",
            "mean_opt",
            "ratio",
            "ci_lo",
            "ci_hi",
            "seed",
            "wall_ms",
        ]
        row = csv_row(rep).split(",")
        assert len(row) == len(header)
        assert row[0] == "fork"
        assert row[-1] == "0"  # timing suppressed by default
        assert float(row[2]) == pytest.approx(2 / (1 + math.sqrt(5)))

    def test_wall_ms_is_timed_to_the_microsecond(self):
        inst = gen_benchmark("fork", eps=0.01)
        specs = [AlgorithmSpec("threshold"), AlgorithmSpec("baseline")]
        for rep in harness.evaluate_all(inst, specs, 500, 5, "fork"):
            assert isinstance(rep.wall_ms, float) and rep.wall_ms > 0.0
            assert rep.wall_ms == round(rep.wall_ms, 3)
            assert csv_row(rep, timing=True).rsplit(",", 1)[1] == str(rep.wall_ms)

    # The reference bootstrap of test_bootstrap_gather.py against numpy.
    @pytest.mark.parametrize(
        "n", [1, 7, 999, 1000, 1001, 2000, 2500, 4000, 12345, 100000, 100003]
    )
    def test_block_sums_match_array_split(self, n):
        x = np.random.default_rng(n).random(n) * 3.0
        blocks = min(n, 1000)
        expect = np.array([chunk.sum() for chunk in np.array_split(x, blocks)])
        assert np.array_equal(_block_sums(x, blocks), expect)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 7, 999, 1000]))
    def test_percentiles_match_numpy_bit_for_bit(self, seed, n):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            k = int(rng.integers(1, 7))
            if rng.random() < 0.3:  # ties: a few distinct values
                x = rng.choice(rng.random(int(rng.integers(1, 5))) * 10.0, size=(k, n))
            else:
                x = 10.0 ** rng.uniform(-3.0, 6.0, size=(k, n))
            q = [2.5, 97.5] if rng.random() < 0.5 else list(rng.uniform(0.0, 100.0, 3))
            expect = np.percentile(x, q, axis=1)
            got = _percentiles(x, q)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 999, 1000, 2500])
    def test_bootstrap_matches_one_shot_resample(self, n):
        # one shared draw gives each algorithm the interval of its own
        # one-shot resample, whatever the number of algorithms
        rng = np.random.default_rng(n)
        opt = rng.random(n) + 0.5
        blocks = min(n, 1000)
        opt_sums = _block_sums(opt, blocks)
        idx = np.random.default_rng([n, _BOOT_TAG]).integers(0, blocks, size=(1000, blocks))
        for k in (1, 3):
            algs = [opt * (1.0 + rng.random(n)) for _ in range(k)]
            expect = []
            for alg in algs:
                alg_sums = _block_sums(alg, blocks)
                ratios = alg_sums[idx].sum(axis=1) / opt_sums[idx].sum(axis=1)
                expect.append((float(np.percentile(ratios, 2.5)), float(np.percentile(ratios, 97.5))))
            assert _bootstrap_ci(algs, opt, n) == expect

    @pytest.mark.parametrize("chunk", [1, 16, 64, 333, 1000])
    @pytest.mark.parametrize("blocks", [1, 2, 7, 400, 999, 1000])
    def test_chunked_int32_draws_equal_one_shot(self, blocks, chunk):
        # _bootstrap_ci draws its resample indices chunk by chunk; that is
        # the one-shot stream only while numpy buffers nothing between
        # bounded 32-bit draws
        one_shot = np.random.default_rng([blocks, _BOOT_TAG]).integers(
            0, blocks, size=(1000, blocks), dtype=np.int32
        )
        rng = np.random.default_rng([blocks, _BOOT_TAG])
        parts = [
            rng.integers(0, blocks, size=(min(chunk, 1000 - a), blocks), dtype=np.int32)
            for a in range(0, 1000, chunk)
        ]
        assert np.array_equal(np.concatenate(parts), one_shot)

    def test_bootstrap_memory_does_not_grow_with_resamples_times_blocks(self):
        # 1000 resamples x 1000 blocks of int32 indices alone are 3.8 MiB
        rng = np.random.default_rng(4)
        opt = rng.random(2000) + 0.5
        algs = [opt * (1.0 + rng.random(2000)) for _ in range(3)]
        _bootstrap_ci(algs, opt, 4)
        tracemalloc.start()
        try:
            _bootstrap_ci(algs, opt, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize(
        "inst, specs",
        [
            (
                gen_random("gnp", 21, n=12, p=0.3, unit_cost=False),
                [
                    AlgorithmSpec("threshold"),
                    AlgorithmSpec("threshold", alpha=2.0, d=0.5),
                    AlgorithmSpec("bestvc"),
                    AlgorithmSpec("baseline"),
                ],
            ),
            (
                gen_random("hypergraph", 22, n=10, m=4, unit_cost=False),
                [
                    AlgorithmSpec("threshold-hyper"),
                    AlgorithmSpec("bestvc"),
                    AlgorithmSpec("baseline"),
                ],
            ),
        ],
        ids=["gnp", "hypergraph"],
    )
    def test_evaluate_all_matches_evaluate(self, inst, specs):
        reports = harness.evaluate_all(inst, specs, 1500, 17, "inst")
        for spec, rep in zip(specs, reports, strict=True):
            alone = evaluate(inst, spec, 1500, 17, "inst")
            assert replace(rep, wall_ms=0) == replace(alone, wall_ms=0)

    def test_plan_failure_leaves_other_reports_alone(self, monkeypatch):
        inst = gen_random("gnp", 23, n=10, p=0.3, unit_cost=False)
        specs = [AlgorithmSpec("threshold"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")]
        before = harness.evaluate_all(inst, specs, 800, 5, "inst")
        def failing(spec, *args):
            if spec.kind == "bestvc":
                raise SolverBoundError("cover bound exceeded")
            return plan(spec, *args)

        monkeypatch.setattr(harness, "plan", failing)
        first, middle, last = harness.evaluate_all(inst, specs, 800, 5, "inst")
        assert isinstance(middle, SolverBoundError)
        assert replace(first, wall_ms=0) == replace(before[0], wall_ms=0)
        assert replace(last, wall_ms=0) == replace(before[2], wall_ms=0)

    def test_exact_profile_computed_once(self, monkeypatch):
        inst = gen_random("gnp", 4, n=10, p=0.3, unit_cost=False)
        specs = [AlgorithmSpec("threshold"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")]
        builds = []
        build = mandatory.exact_prob_graph.__wrapped__

        def counted(instance):
            builds.append(instance)
            return build(instance)

        table = per_instance(counted)
        for module in (mandatory, algorithms):  # wherever the name is imported
            monkeypatch.setattr(module, "exact_prob_graph", table)
        harness.evaluate_all(inst, specs, 200, 3)
        # gnp-sweep's two evaluations of one instance, alpha = 1 and alpha = 2
        evaluate(inst, AlgorithmSpec("threshold", alpha=1.0), 200, 5)
        evaluate(inst, AlgorithmSpec("threshold", alpha=2.0), 200, 5)
        assert builds == [inst]
        profile = table(inst)
        with pytest.raises(TypeError):
            profile.probs[inst.vertex_ids[0]] = 0.5
        assert profile.probs == build(inst).probs

    @pytest.mark.parametrize(
        "inst, specs, sampled",
        [
            (
                gen_random("gnp", 4, n=10, p=0.3, unit_cost=False),
                [
                    AlgorithmSpec("threshold"),
                    AlgorithmSpec("bestvc"),
                    AlgorithmSpec("baseline"),
                    AlgorithmSpec("fixed-cover", cover=("v00", "v03")),
                    AlgorithmSpec("offline-opt"),
                ],
                [],
            ),
            (
                gen_random("hypergraph", 5, n=10, m=5, max_size=4, unit_cost=False),
                [
                    AlgorithmSpec("threshold-hyper"),
                    AlgorithmSpec("bestvc"),
                    AlgorithmSpec("baseline"),
                    AlgorithmSpec("threshold-hyper", epsilon=0.2),  # a plan another sample changes
                ],
                [0, 1, 3],
            ),
            (
                gen_benchmark("single-set", n=4),
                [
                    AlgorithmSpec("leaves-first"),
                    AlgorithmSpec("fixed-cover", cover=("e0",)),
                    AlgorithmSpec("offline-opt"),
                ],
                [],
            ),
        ],
        ids=["gnp", "hypergraph", "single-set"],
    )
    def test_plan_from_own_profile_equals_plan_alone(self, inst, specs, sampled):
        own = profiles(specs, inst, 3)
        assert [i for i, profile in enumerate(own) if profile is not None] == sampled
        if inst.kind == "graph":  # the specs that do not sample plan from the exact profile
            own = [mandatory.exact_prob_graph(inst)] * len(specs)
        for spec, profile in zip(specs, own):
            assert plan(spec, inst, 3, profile) == plan(spec, inst, 3)

    def test_block_sampler_matches_interval_support(self):
        inst = gen_benchmark("fork", eps=0.1)
        for r in realizations(inst, _sample_weights(inst, 123, 500)):
            r.validate(inst)

    def test_block_sampler_batch_rows_are_realizations(self):
        # rows across a block boundary are the evaluator's realizations
        # 4090..4099: the block-by-block stream, each a valid realization
        inst = gen_random("hypergraph", 2, n=6, m=3, unit_cost=False)
        rows = _sample_weights(inst, 31, 4100)[4090:]
        assert rows.shape == (10, 6)
        assert rows.tobytes() == _block_by_block(inst, 31, 4100)[4090:].tobytes()
        for r in realizations(inst, rows):
            r.validate(inst)

    def test_block_sampler_index_pure(self):
        # realization i is a pure function of (seed, i): a shorter draw is
        # the first rows of a longer one, also where it cuts a block short,
        # whichever is drawn first
        for inst, seed in (
            (gen_random("hypergraph", 2, n=6, m=3, unit_cost=False), 31),
            (gen_benchmark("fork", eps=0.1), 123),
        ):
            short = _sample_weights(inst, seed, 7)
            longer = _sample_weights(inst, seed, 8193)
            assert longer.shape == (8193, len(inst.vertices))
            assert short.tobytes() == longer[:7].tobytes()
            for count in (1, 4095, 4096, 4097, 4100):
                assert _sample_weights(inst, seed, count).tobytes() == longer[:count].tobytes()

    def test_block_sampler_redraws_endpoint_hits(self):
        # one float lies strictly inside (1, 1 + 2 ulp), so most draws land
        # on an end and are redrawn from their own stream
        inside = math.nextafter(1.0, 2.0)
        narrow = uniform_vertex("a", 1.0, math.nextafter(inside, 2.0))
        inst = make_instance([narrow, uniform_vertex("b", 1.0, 3.0)], [["a", "b"]])
        for count in (200, 4097):  # a part of one block, and two blocks
            assert (_sample_weights(inst, 5, count)[:, 0] == inside).all()
        # with three floats inside, a redrawn weight depends on its stream
        wider = uniform_vertex("a", 1.0, 1.0 + 4 * math.ulp(1.0))
        inst = make_instance([wider, uniform_vertex("b", 1.0, 3.0)], [["a", "b"]])
        weights = _sample_weights(inst, 5, 4097)
        assert len(set(weights[:, 0].tolist())) == 3
        assert weights.tobytes() == _block_by_block(inst, 5, 4097).tobytes()


class TestBounds:
    def test_exact_expected_opt_combination_bound(self):
        inst = gen_benchmark("staircase", n=30)
        with pytest.raises(Exception, match="combinations"):
            exact_expected_opt(inst, max_combos=10**6)

    def test_bestvc_rejects_approximate_solver(self):
        from orientlab.algorithms import plan_best_vc

        inst = gen_benchmark("fork", eps=0.1)
        with pytest.raises(ValueError, match="exact"):
            plan_best_vc(inst, "local-ratio")

    def test_block_sampler_marginals(self):
        inst = gen_benchmark("fork", eps=0.1)
        draws = 50_000
        weights = _sample_weights(inst, 99, draws)
        x, y = (weights[:, inst.vertex_ids.index(v)] for v in ("x", "y"))
        hit_x = np.count_nonzero((1.0 < x) & (x < 2.0))
        hit_y = np.count_nonzero((1.0 < y) & (y < 2.0))
        assert abs(hit_x / draws - 0.5) < 0.01
        assert abs(hit_y / draws - 0.1) < 0.006


# ---------------------------------------------------------------------------
# Kernel row blocks, row numbering and the cell table


def _number_rows_reference(masks):
    """Row numbering by a dict of packed rows, in order of first occurrence."""
    packed = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    number = {}
    index = np.array([number.setdefault(key, len(number)) for key in keys], dtype=np.intp)
    return index, np.unique(index, return_index=True)[1].tolist()


def _assert_numbered_like_reference(masks):
    index, first = harness._number_rows(masks)
    expect_index, expect_first = _number_rows_reference(masks)
    assert index.dtype == np.intp
    assert np.array_equal(index, expect_index)
    assert first == expect_first


@pytest.mark.parametrize("rows", [1, 2, 400, 4097])
@pytest.mark.parametrize("columns", [1, 8, 12, 64, 65, 130])
def test_number_rows_matches_dict_numbering(columns, rows):
    rng = np.random.default_rng([columns, rows])
    # few set bits, so that rows repeat; with many columns most are distinct
    for density in (0.02, 0.2, 0.5):
        _assert_numbered_like_reference(rng.random((rows, columns)) < density)
    _assert_numbered_like_reference(np.broadcast_to(rng.random(columns) < 0.5, (rows, columns)))


@pytest.mark.parametrize("columns", [12, 64, 65, 130])
def test_number_rows_of_distinct_rows_is_the_identity(columns):
    masks = np.zeros((columns + 1, columns), dtype=bool)
    masks[np.arange(1, columns + 1), np.arange(columns)[::-1]] = True  # row 0 is all zeros
    index, first = harness._number_rows(masks)
    assert index.tolist() == first == list(range(columns + 1))
    _assert_numbered_like_reference(masks)


_BLOCK_CASES = [
    (
        gen_random("gnp", 31, n=10, p=0.35, unit_cost=False),
        [AlgorithmSpec("threshold"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")],
    ),
    (
        gen_random("hypergraph", 32, n=9, m=5, max_size=4, unit_cost=False),
        [AlgorithmSpec("threshold-hyper"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")],
    ),
    (
        gen_benchmark("single-set", n=4, eps=0.05),
        [
            AlgorithmSpec("baseline"),
            AlgorithmSpec("leaves-first"),
            AlgorithmSpec("offline-opt"),
        ],
    ),
]


@pytest.mark.parametrize("rows", [1, 7, 512, 10**6])
@pytest.mark.parametrize("case", range(len(_BLOCK_CASES)), ids=["gnp", "hypergraph", "single-set"])
def test_reports_do_not_depend_on_kernel_row_blocks(monkeypatch, case, rows):
    inst, specs = _BLOCK_CASES[case]
    expect = harness.evaluate_all(inst, specs, 300, 41)
    for module in (mandatory, harness):  # the kernels' blocks and the check's
        monkeypatch.setattr(module, "_kernel_rows", lambda instance: rows)
    got = harness.evaluate_all(inst, specs, 300, 41)
    assert [replace(r, wall_ms=0) for r in got] == [replace(r, wall_ms=0) for r in expect]


def test_kernel_rows_follow_the_member_count():
    for seed in range(5):
        rng = np.random.default_rng([81, seed])
        graph = gen_random("gnp", rng, n=16, p=0.3, unit_cost=False)  # graph-paired shape
        hyper = gen_random("hypergraph", rng, n=12, m=5, max_size=4, unit_cost=False)
        # the benchmarks' 2,000 and 4,000 rows are one block
        assert mandatory._kernel_rows(graph) == mandatory._kernel_rows(hyper) == 4096
    one_edge = make_instance(
        [uniform_vertex("a", 0.0, 2.0), uniform_vertex("b", 1.0, 3.0)], [("a", "b")]
    )
    assert mandatory._kernel_rows(one_edge) == 4096
    # at most 2^22 member tests (4 MiB) a block
    assert mandatory._kernel_rows(gen_benchmark("staircase", n=1024)) == 4096
    assert mandatory._kernel_rows(gen_benchmark("staircase", n=4096)) == 1024
    assert mandatory._kernel_rows(make_instance([uniform_vertex("a", 0.0, 1.0)], [])) == 4096
    assert harness._kernel_rows is mandatory._kernel_rows


def _batch(inst, seed, n):
    """The evaluator's batch: realizations 0..n-1 of ``seed``."""
    weights = _sample_weights(inst, seed, n)
    return harness._PairedBatch(inst, weights, algorithms.OfflineOracle(inst, 24))


def test_feasibility_pass_memory_does_not_grow_with_the_samples():
    # one edge: the fewest members, so the longest row blocks
    inst = make_instance(
        [uniform_vertex("a", 0.0, 2.0, 1.5), uniform_vertex("b", 1.0, 3.0)], [("a", "b")]
    )
    _batch(inst, 1, 1000).check()
    batch = _batch(inst, 1, 100_000)
    tracemalloc.start()
    try:
        batch.check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.5 MiB in 16,384-row blocks; 9 MiB in one 100,000-row block
    assert peak < 2 * 2**20


def _block_by_block(inst, seed, count):
    """The evaluator's stream drawn a block at a time: uniforms from Philox
    keyed [seed, block], endpoint hits redrawn from [seed, block, row, j]."""
    blocks = []
    for block, first in enumerate(range(0, count, harness._BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        uniforms = rng.random((min(harness._BLOCK, count - first), 2 * len(inst.vertices)))
        blocks.append(
            model.weights_from_uniforms(
                inst, uniforms, lambda row, j: np.random.default_rng([seed, block, row, j])
            )
        )
    return np.concatenate(blocks)


def test_sampled_weights_are_written_into_one_array():
    # 100,000 rows of 2 float64 weights are 1.53 MiB; concatenating a list
    # of row blocks held them twice (a 3.06 MiB peak)
    inst = make_instance(
        [uniform_vertex("a", 0.0, 2.0, 1.5), uniform_vertex("b", 1.0, 3.0)], [("a", "b")]
    )
    _sample_weights(inst, 1, 1000)  # one-off allocations of a first call
    tracemalloc.start()
    try:
        weights = _sample_weights(inst, 1, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weights.nbytes == 1_600_000
    assert peak < 1.5 * weights.nbytes
    assert weights.tobytes() == _block_by_block(inst, 1, 100_000).tobytes()


def test_completion_memory_does_not_grow_with_the_samples():
    # baseline on one edge: the adaptive completion of every row
    inst = make_instance(
        [uniform_vertex("a", 0.0, 2.0, 1.5), uniform_vertex("b", 1.0, 3.0)], [("a", "b")]
    )
    policy = plan(AlgorithmSpec("baseline"), inst, 1)
    harness._query_sets(policy, _batch(inst, 1, 1000))
    batch = _batch(inst, 1, 100_000)
    tracemalloc.start()
    try:
        sets, index = harness._query_sets(policy, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 4.2 MiB in 4,096-row blocks; 10.7 MiB in one 100,000-row block
    assert peak < 6 * 2**20
    start = np.zeros(batch.weights.shape, dtype=bool)
    mandatory_rows = batch.patterns[batch.pattern]
    one_call = mandatory.completion_matrix(inst, batch.weights, start, mandatory_rows)
    assert np.array_equal(sets[index], one_call)


def test_hypergraph_evaluation_builds_no_cell_table(monkeypatch):
    inst = gen_random("hypergraph", 11, n=12, m=5, max_size=4, unit_cost=False)
    specs = [AlgorithmSpec("threshold-hyper"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")]
    calls = []
    build = model.probability_matrix

    def counted(instance):
        calls.append(instance)
        return build(instance)

    for module in (model, mandatory, harness):  # wherever the name is imported
        if hasattr(module, "probability_matrix"):
            monkeypatch.setattr(module, "probability_matrix", counted)
    harness.evaluate_all(inst, specs, 500, 7)
    assert calls == []  # sampling, planning included, needs only the pmf table
