"""Tables built once per instance, and the layout of the weight map.

The kernels' hyperedge table (``mandatory._hyperedge_table``), the
exact mandatory profile and the cost-weighted cover graph are functions
of the immutable instance: each
is built on first use, kept on the instance and shared, read-only, by
every later call; ``TABLES`` names every such table.  The weight map
writes its weights vertex-major and returns them transposed; its values
and its redraw order must be those of the row-major map kept here as the
reference.  The instance's own constants (``vertex_ids``, the pmf
table's cumulative masses, reducedness) are computed once as well, and
a paired batch makes its member tests once per row block.
"""

import collections
import functools
import importlib
import pkgutil

import numpy as np
import pytest

import orientlab
from orientlab import AlgorithmSpec, CoverGraph, build_cover_graph, gen_benchmark, gen_random
from orientlab import harness, mandatory, vcover
from orientlab.algorithms import OfflineOracle, plan
from orientlab.harness import _alg_costs, _PairedBatch, _sample_weights, evaluate_all
from orientlab.mandatory import mandatory_matrix
from orientlab.model import Instance, per_instance, weights_from_uniforms

TABLES = [
    (mandatory, "_hyperedge_table"),
    (mandatory, "exact_prob_graph"),
    (vcover, "_cost_cover_graph"),
]


def _modules():
    """The package and every module in it but ``__main__``."""
    names = [m.name for m in pkgutil.iter_modules(orientlab.__path__) if m.name != "__main__"]
    return [orientlab] + [importlib.import_module(f"orientlab.{name}") for name in names]


def test_tables_names_every_per_instance_table():
    """Every function that ``per_instance`` wraps shares the wrapper's code
    object: find them all in the package, each under its own module."""
    wrapper = per_instance(lambda instance: None).__code__
    found = {
        (obj.__module__, obj.__name__)
        for module in _modules()
        for obj in vars(module).values()
        if getattr(obj, "__code__", None) is wrapper
    }
    assert found == {(module.__name__, name) for module, name in TABLES}


def _count_builds(monkeypatch):
    """Rebind every table, wherever it is imported, to a fresh cache whose
    builder counts its runs."""
    builds = collections.Counter()
    for module, name in TABLES:
        kept = getattr(module, name)
        build = kept.__wrapped__

        def counted(instance, build=build, name=name):
            builds[name] += 1
            return build(instance)

        table = per_instance(counted)
        for other in _modules():
            if getattr(other, name, None) is kept:
                monkeypatch.setattr(other, name, table)
    return builds


@pytest.mark.parametrize(
    "instance, specs",
    [
        (
            gen_random("gnp", 5, n=16, p=0.3, unit_cost=False),
            [AlgorithmSpec("threshold"), AlgorithmSpec("bestvc"), AlgorithmSpec("baseline")],
        ),
        (
            gen_random("hypergraph", 2, n=12, m=5, max_size=4, unit_cost=False),
            [
                AlgorithmSpec("threshold-hyper", epsilon=0.02),
                AlgorithmSpec("bestvc", epsilon=0.02),
                AlgorithmSpec("baseline"),
            ],
        ),
        (
            gen_benchmark("single-set", n=4),
            [AlgorithmSpec("leaves-first")],
        ),
    ],
    ids=["graph-paired", "hyper-paired", "single-set"],
)
def test_each_table_is_built_once_per_instance(monkeypatch, instance, specs):
    builds = _count_builds(monkeypatch)
    expect = {name: 1 for _, name in TABLES}
    if instance.kind != "graph":  # only graphs have an exact profile
        del expect["exact_prob_graph"]
    first = evaluate_all(instance, specs, 3000, 11)
    assert builds == expect
    second = evaluate_all(instance, specs, 3000, 11)
    assert builds == expect  # kept on the instance
    assert [r.ci95_ratio for r in first] == [r.ci95_ratio for r in second]


@pytest.mark.parametrize("rows_per_block", [700, None])
@pytest.mark.parametrize(
    "instance, specs",
    [
        (
            gen_random("gnp", 5, n=16, p=0.3, unit_cost=False),
            [AlgorithmSpec("baseline"), AlgorithmSpec("fixed-cover", cover=("v00",))],
        ),
        (
            gen_random("hypergraph", 2, n=12, m=5, max_size=4, unit_cost=False),
            [AlgorithmSpec("baseline"), AlgorithmSpec("fixed-cover", cover=("v00",))],
        ),
        (gen_benchmark("single-set", n=4), [AlgorithmSpec("baseline"), AlgorithmSpec("leaves-first")]),
    ],
    ids=["graph-paired", "hyper-paired", "single-set"],
)
def test_member_tests_run_once_per_block(monkeypatch, instance, specs, rows_per_block):
    """The paired batch makes the member tests once per row block, and
    every adaptive completion reads them; the feasibility check makes its
    own, once more per block."""
    if rows_per_block is not None:
        for module in (mandatory, harness):
            monkeypatch.setattr(module, "_kernel_rows", lambda instance: rows_per_block)
    calls = collections.Counter()
    tests = mandatory._member_tests

    def counted(instance, weights):
        calls[len(weights)] += 1
        return tests(instance, weights)

    monkeypatch.setattr(mandatory, "_member_tests", counted)
    weights = _sample_weights(instance, 3, 2000)
    blocks = collections.Counter({700: 2, 600: 1} if rows_per_block else {2000: 1})
    batch = _PairedBatch(instance, weights, OfflineOracle(instance))
    policies = [plan(spec, instance, 3) for spec in specs]
    assert all(policy.adaptive for policy in policies)
    for policy in policies:
        _alg_costs(policy, batch)
    assert calls == blocks
    batch.check()
    assert calls == blocks + blocks


@pytest.mark.parametrize(
    "instance",
    [
        gen_benchmark("fork"),
        gen_random("gnp", 8, n=9, p=0.4, unit_cost=False),
        gen_random("hypergraph", 9, n=12, m=5, max_size=4, unit_cost=False),
    ],
)
def test_tables_are_shared_read_only_and_equal_fresh_builds(instance):
    for module, name in TABLES:
        table = getattr(module, name)
        if name == "exact_prob_graph" and instance.kind != "graph":
            continue
        assert table(instance) is table(instance)
        fresh = table.__wrapped__(instance)
        if name == "_cost_cover_graph":
            assert isinstance(fresh, CoverGraph) and table(instance) == fresh
        elif name == "exact_prob_graph":
            assert table(instance).probs == fresh.probs
            with pytest.raises(TypeError):
                table(instance).probs[instance.vertex_ids[0]] = 0.5
        else:
            _assert_read_only_copy(table(instance), fresh)
    assert build_cover_graph(instance) is build_cover_graph(instance)
    weights = {v: 1.0 + i for i, v in enumerate(instance.vertex_ids)}
    weighted = build_cover_graph(instance, weights)
    assert weighted.edges == build_cover_graph(instance).edges
    assert weighted.weights == weights


def _assert_read_only_copy(kept, built):
    """Tuples of equal shape down to equal leaves; every array kept is
    read-only."""
    if isinstance(kept, np.ndarray):
        assert not kept.flags.writeable
        assert np.array_equal(kept, built) and kept.dtype == built.dtype
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 0
    elif isinstance(kept, tuple):
        assert isinstance(built, tuple)
        for a, b in zip(kept, built, strict=True):
            _assert_read_only_copy(a, b)
    else:
        assert type(kept) is int and kept == built


def _reference_weights(instance, uniforms, redraw):
    """The row-major weight map: strided columns in and out."""
    out = np.empty((len(uniforms), len(instance.vertices)))
    for j, ((cum, los, his), w) in enumerate(zip(instance.pmf_table, out.T)):
        cell = np.zeros(len(uniforms), dtype=np.intp)
        for mass in cum:
            cell += uniforms[:, 2 * j] >= mass
        lo, hi = los[cell], his[cell]
        np.subtract(hi, lo, out=w)
        w *= uniforms[:, 2 * j + 1]
        w += lo
        for row in np.flatnonzero(~((lo < w) & (w < hi))).tolist():
            rng = redraw(row, j)
            while not lo[row] < w[row] < hi[row]:
                w[row] = lo[row] + rng.random() * (hi[row] - lo[row])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_vertex_major_weight_map_equals_row_major_map(seed):
    instance = gen_random("hypergraph", seed, n=12, m=5, max_size=4, unit_cost=False)
    n = len(instance.vertices)
    uniforms = np.random.default_rng(seed).random((700, 2 * n))
    # position uniforms of 0.0 put weights on cell ends: redrawn, column
    # first, then row, from generators in one state on both sides
    uniforms[[3, 650, 3, 9], [1, 1, 2 * n - 1, 2 * n - 1]] = 0.0
    weights, calls = [], []
    for fn in (weights_from_uniforms, _reference_weights):
        rng = np.random.default_rng(99)
        order = []
        weights.append(fn(instance, uniforms, lambda row, j: order.append((row, j)) or rng))
        calls.append(order)
    assert calls[0] == calls[1] == [(3, 0), (650, 0), (3, n - 1), (9, n - 1)]
    assert np.array_equal(weights[0], weights[1])
    assert weights[0].T.flags.c_contiguous  # the kernels' transpose is free
    assert np.array_equal(
        mandatory_matrix(instance, weights[0]), mandatory_matrix(instance, weights[1])
    )


def test_pmf_table_sums_are_those_of_cumsum():
    instances = [gen_benchmark(name) for name in sorted(harness.BENCHMARKS)]
    instances += [gen_random("gnp", s, n=10, p=0.4, unit_cost=False) for s in range(3)]
    for instance in instances:
        for v, (cum, _, _) in zip(instance.vertices, instance.pmf_table, strict=True):
            expect = np.cumsum([c.mass for c in v.pmf.cells[:-1]]).tolist()
            assert cum == expect and all(type(x) is float for x in cum)


def test_instance_constants_are_computed_once(monkeypatch):
    instance = gen_random("gnp", 4, n=9, p=0.4)
    assert instance.vertex_ids is instance.vertex_ids
    assert instance.vertex_ids == tuple(v.id for v in instance.vertices)
    # evaluate_all checks reducedness once per instance
    checks = collections.Counter()
    reduced = Instance.__dict__["_reduced"].func

    def counted(self):
        checks[self] += 1
        return reduced(self)

    kept = functools.cached_property(counted)
    kept.__set_name__(Instance, "_reduced")
    monkeypatch.setattr(Instance, "_reduced", kept)
    for _ in range(3):
        evaluate_all(instance, [AlgorithmSpec("threshold")], 50, 1)
    assert checks == {instance: 1}
