import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orientlab import (
    InstanceError,
    Interval,
    Pmf,
    PmfCell,
    Realization,
    UncertainVertex,
    elementary_grid,
    gen_benchmark,
    gen_random,
    make_instance,
    parse_instance,
    probability_matrix,
    reduce_instance,
    sample_realization,
    serialize_instance,
)
from orientlab.model import weights_from_uniforms

FORK_DOC = json.dumps(
    {
        "vertices": [
            {
                "id": "x",
                "cost": 1.0,
                "interval": [0, 2],
                "pmf": [
                    {"cell": [0, 1], "mass": 0.5},
                    {"cell": [1, 2], "mass": 0.5},
                ],
            },
            {
                "id": "y",
                "cost": 1.0,
                "interval": [1, 3],
                "pmf": [
                    {"cell": [1, 2], "mass": 0.1},
                    {"cell": [2, 3], "mass": 0.9},
                ],
            },
            {
                "id": "z",
                "cost": 1.0,
                "interval": [1, 3],
                "pmf": [
                    {"cell": [1, 2], "mass": 0.1},
                    {"cell": [2, 3], "mass": 0.9},
                ],
            },
        ],
        "hyperedges": [["x", "y"], ["x", "z"]],
    }
)


def vertex(vid, lo, hi, cells, cost=1.0):
    pmf = Pmf(tuple(PmfCell(Interval(a, b), m) for a, b, m in cells))
    return UncertainVertex(vid, cost, Interval(lo, hi), pmf)


def uniform_vertex(vid, lo, hi, cost=1.0):
    return vertex(vid, lo, hi, [(lo, hi, 1.0)], cost)


def realizations(inst, weights):
    """One scalar realization per row of a weight matrix, columns in
    ``vertex_ids`` order: how the evaluator's batch reads its rows."""
    return [Realization(dict(zip(inst.vertex_ids, row))) for row in weights.tolist()]


def successive_draws(inst, seed, count, checked=200):
    """The weights of ``count`` successive ``sample_realization`` draws from
    ``np.random.default_rng(seed)``, made in one map call on
    ``rng.random((count, 2n))``.  The two agree while no cell endpoint is
    redrawn, so the redraw callback must never fire; the first
    ``checked`` rows are compared with real draws."""
    rng = np.random.default_rng(seed)
    redrawn = []

    def redraw(row, j):
        redrawn.append((row, j))
        return rng

    weights = weights_from_uniforms(inst, rng.random((count, 2 * len(inst.vertices))), redraw)
    assert redrawn == []
    rows = [dict(zip(inst.vertex_ids, row)) for row in weights.tolist()]
    rng = np.random.default_rng(seed)
    for row in rows[:checked]:
        assert sample_realization(inst, rng).weights == row
    return rows


class TestParse:
    def test_fork_document(self):
        inst = parse_instance(FORK_DOC)
        assert len(inst.vertices) == 3
        assert len(inst.hyperedges) == 2
        assert inst.kind == "graph"

    def test_single_vertex_no_hyperedges(self):
        doc = json.dumps(
            {
                "vertices": [
                    {"id": "a", "cost": 1.0, "interval": [0, 1], "pmf": [{"cell": [0, 1], "mass": 1.0}]}
                ],
                "hyperedges": [],
            }
        )
        inst = parse_instance(doc)
        assert inst.vertex_ids == ("a",)
        assert inst.hyperedges == ()

    def test_mass_sum_error(self):
        doc = FORK_DOC.replace('"mass": 0.9', '"mass": 0.8')
        with pytest.raises(InstanceError, match="mass sum"):
            parse_instance(doc)

    def test_cell_outside_interval(self):
        with pytest.raises(InstanceError, match="outside"):
            make_instance([vertex("a", 0, 1, [(0, 2, 1.0)])], [])

    def test_unknown_hyperedge_member(self):
        with pytest.raises(InstanceError, match="unknown id"):
            make_instance([uniform_vertex("a", 0, 1)], [["a", "b"]])

    def test_nonpositive_cost(self):
        with pytest.raises(InstanceError, match="positive"):
            make_instance([uniform_vertex("a", 0, 1, cost=0.0)], [])

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="JSON"):
            parse_instance("{nope")

    def test_roundtrip_fork(self):
        inst = parse_instance(FORK_DOC)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_roundtrip_benchmarks(self):
        for name in ("fork", "weighted-triple", "single-set", "staircase", "overlap-pair"):
            inst = gen_benchmark(name)
            assert parse_instance(serialize_instance(inst)) == inst


class TestReduce:
    def test_containment_forces_leftmost(self):
        inst = make_instance(
            [uniform_vertex("a", 0, 10), uniform_vertex("b", 2, 3), uniform_vertex("c", 4, 5)],
            [["a", "b", "c"]],
        )
        reduced, forced = reduce_instance(inst)
        assert forced == {"a"}
        # remaining pair {b, c} is disjoint, so the hyperedge disappears
        assert reduced.hyperedges == ()
        assert set(reduced.vertex_ids) == {"b", "c"}

    def test_fork_already_reduced(self):
        inst = parse_instance(FORK_DOC)
        reduced, forced = reduce_instance(inst)
        assert forced == frozenset()
        assert reduced == inst

    def test_disjoint_edge_removed(self):
        inst = make_instance(
            [uniform_vertex("u", 0, 2), uniform_vertex("v", 5, 6)], [["u", "v"]]
        )
        reduced, forced = reduce_instance(inst)
        assert forced == frozenset()
        assert reduced.hyperedges == ()

    def test_idempotent_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = gen_random("hypergraph", rng, n=6, m=4, spread=1.6)
            again, forced = reduce_instance(inst)
            assert forced == frozenset()
            assert again == inst

    def test_cascading_force(self):
        # forcing a removes the only edge that kept b leftmost of {b, c}
        inst = make_instance(
            [
                uniform_vertex("a", 0, 10),
                uniform_vertex("b", 1, 4),
                uniform_vertex("c", 2, 3),
            ],
            [["a", "b"], ["b", "c"]],
        )
        reduced, forced = reduce_instance(inst)
        # {a, b}: b inside a -> a forced; {b, c}: c inside b -> b forced
        assert forced == {"a", "b"}
        assert reduced.hyperedges == ()


class TestElementaryGrid:
    def test_fork(self):
        assert elementary_grid(parse_instance(FORK_DOC)) == (0.0, 1.0, 2.0, 3.0)

    def test_single_vertex(self):
        inst = make_instance([uniform_vertex("a", 0, 1)], [])
        assert elementary_grid(inst) == (0.0, 1.0)

    def test_three_staggered(self):
        inst = make_instance(
            [
                uniform_vertex("a", 0, 3),
                uniform_vertex("b", 1, 4),
                uniform_vertex("c", 2, 5),
            ],
            [["a", "b", "c"]],
        )
        assert elementary_grid(inst) == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

    def test_probability_matrix_rows_sum_to_one(self):
        inst = parse_instance(FORK_DOC)
        matrix = probability_matrix(inst)
        for vid, row in matrix.items():
            assert math.isclose(sum(p for _, p in row), 1.0, abs_tol=1e-9)
        # x has half its mass in each of the first two cells
        assert dict(matrix["x"]) == {0: 0.5, 1: 0.5}

    def test_probability_matrix_keeps_cells_with_no_float_inside(self):
        # an elementary cell is never sampled, so one ulp wide is allowed
        hi = math.nextafter(2.0, 3.0)
        inst = make_instance([uniform_vertex("a", 0, 2), uniform_vertex("b", 1, hi)], [["a", "b"]])
        assert elementary_grid(inst) == (0.0, 1.0, 2.0, hi)
        assert [i for i, _ in probability_matrix(inst)["b"]] == [1, 2]


class TestSampling:
    def test_weight_inside_interval(self):
        inst = make_instance([uniform_vertex("a", 0, 1)], [])
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = sample_realization(inst, rng)["a"]
            assert 0.0 < w < 1.0

    def test_fork_marginal(self):
        inst = parse_instance(FORK_DOC)
        hits = sum(1.0 < r["x"] < 2.0 for r in successive_draws(inst, 123, 100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_determinism(self):
        inst = parse_instance(FORK_DOC)
        r1 = sample_realization(inst, np.random.default_rng(42))
        r2 = sample_realization(inst, np.random.default_rng(42))
        assert r1.weights == r2.weights

    def test_cell_masses_within_3_sigma(self):
        rng = np.random.default_rng(7)
        inst = gen_random("gnp", rng, n=4, p=0.5)
        draws = 10_000
        sample_rng = np.random.default_rng(8)
        counts = {v.id: [0] * len(v.pmf.cells) for v in inst.vertices}
        for _ in range(draws):
            r = sample_realization(inst, sample_rng)
            for v in inst.vertices:
                for i, c in enumerate(v.pmf.cells):
                    if c.cell.contains(r[v.id]):
                        counts[v.id][i] += 1
        for v in inst.vertices:
            for i, c in enumerate(v.pmf.cells):
                sigma = math.sqrt(c.mass * (1 - c.mass) / draws)
                assert abs(counts[v.id][i] / draws - c.mass) <= 3 * sigma + 1e-9


@st.composite
def instances(draw):
    n = draw(st.integers(2, 5))
    verts = []
    for i in range(n):
        lo = draw(st.floats(0, 4, allow_nan=False, width=32))
        length = draw(st.floats(0.5, 3, allow_nan=False, width=32))
        cut = draw(st.floats(0.2, 0.8))
        mass = draw(st.floats(0.05, 0.95))
        hi = lo + length
        mid = lo + cut * length
        verts.append(
            vertex(
                f"v{i}",
                lo,
                hi,
                [(lo, mid, mass), (mid, hi, 1.0 - mass)],
                cost=draw(st.floats(0.25, 4.0)),
            )
        )
    m = draw(st.integers(0, 3))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(3, n)))
        members = draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        edges.append([f"v{j}" for j in members])
    return make_instance(verts, edges)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_serialize_roundtrip_property(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(instances())
@settings(max_examples=40, deadline=None)
def test_reduce_idempotent_property(inst):
    once, _ = reduce_instance(inst)
    twice, forced = reduce_instance(once)
    assert twice == once
    assert forced == frozenset()
