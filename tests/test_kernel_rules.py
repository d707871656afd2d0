"""The mandatory and feasibility kernels against the scalar reference.

``mandatory_matrix`` and ``feasible_matrix`` apply the reduced-instance
rules of the ``mandatory`` module docstring; ``mandatory_set`` and
``is_feasible`` apply the general characterization.  On seeded reduced
instances of every random family, on single hyperedges of 2-8 members,
on staircases and on every named benchmark, with unit and random costs,
the kernels must give the scalar answer on every row: for random query
masks and for the mandatory set itself, on rows with weights on other
members' interval ends, on hand-built rows with tied minima, and at row
counts around bytes, words and the kernels' row block.  A non-reduced
instance is refused.
"""

import tracemalloc

import numpy as np
import pytest

from orientlab import (
    InstanceError,
    Realization,
    estimate_profile,
    estimate_profiles,
    gen_benchmark,
    gen_random,
    is_feasible,
    make_instance,
    mandatory_set,
)
from orientlab.harness import BENCHMARKS, _sample_weights
from orientlab.mandatory import completion_matrix, feasible_matrix, mandatory_matrix
from test_differential import (
    BOUNDARY_CASES,
    BOUNDARY_IDS,
    _boundary_pool,
    _members,
    _quarter_weights,
    _uniform_vertex,
    _weights_on_ends,
)
from test_model import realizations, uniform_vertex

SHARES = (0.5, 0.85, 0.97)
ROWS = 24  # sampled rows, and as many with weights on other vertices' ends
FAMILIES = ("gnp", "bipartite", "hypergraph", "star", "interval-layers", "single")


def _random_case(family, rng, unit_cost):
    n = int(rng.integers(4, 13))
    if family == "gnp":
        return gen_random(family, rng, n=n, p=float(rng.uniform(0.2, 0.6)), unit_cost=unit_cost)
    if family == "bipartite":
        nl, nr = map(int, rng.integers(1, 7, 2))
        return gen_random(family, rng, nl=nl, nr=nr, p=0.5, unit_cost=unit_cost)
    if family == "hypergraph":
        m, size = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        return gen_random(family, rng, n=n, m=m, max_size=size, unit_cost=unit_cost)
    if family == "star":
        return gen_random(family, rng, n=int(rng.integers(1, 9)), unit_cost=unit_cost)
    if family == "interval-layers":
        k = int(rng.integers(1, 4))
        return gen_random(family, rng, n=n, k=k, unit_cost=unit_cost)
    k = int(rng.integers(2, 9))  # one hyperedge of every vertex
    vertices = gen_random("hypergraph", rng, n=k, m=1, max_size=k, unit_cost=unit_cost).vertices
    return make_instance(vertices, [[v.id for v in vertices]])


def _corpus():
    """Every named benchmark, staircases of 64 and 200 vertices and 312
    seeded random instances, 52 of each family, unit and random costs."""
    cases = [(name, gen_benchmark(name)) for name in sorted(BENCHMARKS)]
    cases += [(f"staircase-{n}", gen_benchmark("staircase", n=n)) for n in (64, 200)]
    rng = np.random.default_rng(2507)
    for t in range(312):
        family, unit_cost = FAMILIES[t // 2 % len(FAMILIES)], t % 2 == 0
        label = f"{family}-{'unit' if unit_cost else 'weighted'}-{t}"
        cases.append((label, _random_case(family, rng, unit_cost)))
    return cases


CORPUS = _corpus()


def _scalar(instance, weights, rng):
    """The scalar mandatory masks of the rows, a stack of query masks
    (random at each share, then the mandatory sets) and
    :func:`is_feasible` of every set of the stack on every row (S x N)."""
    scalar = realizations(instance, weights)
    ids = instance.vertex_ids
    rows = [[v in mandatory_set(instance, r) for v in ids] for r in scalar]
    mandatory = np.array(rows, dtype=bool).reshape(weights.shape)
    stack = np.stack([rng.random(weights.shape) < share for share in SHARES] + [mandatory])
    feasible = [
        [is_feasible(instance, r, _members(instance, q)) for r, q in zip(scalar, qs)] for qs in stack
    ]
    return mandatory, stack, np.array(feasible, dtype=bool).reshape(stack.shape[:2])


def _assert_kernels_match(instance, weights, rng):
    expect_mandatory, stack, expect_feasible = _scalar(instance, weights, rng)
    mandatory = mandatory_matrix(instance, weights)
    wrong = np.flatnonzero((mandatory != expect_mandatory).any(axis=1))
    assert wrong.size == 0, ("mandatory", wrong[:5])
    feasible = feasible_matrix(instance, weights, stack)
    assert np.array_equal(feasible, expect_feasible), np.argwhere(feasible != expect_feasible)[:5]
    # a lone query matrix gives the first row of its stack
    assert np.array_equal(feasible_matrix(instance, weights, stack[0]), feasible[0])


@pytest.mark.parametrize("instance", [c for _, c in CORPUS], ids=[n for n, _ in CORPUS])
def test_kernels_match_scalar_rules(instance):
    rng = np.random.default_rng(len(instance.vertices))
    sampled = _sample_weights(instance, 17, ROWS)
    on_ends = _weights_on_ends(instance, rng, ROWS)
    _assert_kernels_match(instance, np.concatenate([sampled, on_ends]), rng)


def _grid_instance(rng, n, m):
    """A reduced instance with integer ends in which ties are common:
    vertex i has (i // 2, n + i), so every pair has lo_l <= lo_u < hi_l <
    hi_u in key order and any hyperedge is reduced.  Ids are shuffled
    against the key, so the id tie-break among tied minima is exercised."""
    names = rng.permutation(n)
    vertices = [_uniform_vertex(f"g{name}", i // 2, n + i) for i, name in enumerate(names)]
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, min(n, 5) + 1))
        edges.append([f"g{name}" for name in rng.choice(names, size, replace=False)])
    instance = make_instance(vertices, edges)
    assert instance.is_reduced()
    return instance


@pytest.mark.parametrize("seed", range(12))
def test_tied_minima_and_weights_on_ends(seed):
    """Weights on a quarter grid inside each interval, so minima tie and
    weights sit on other vertices' integer ends; and per hyperedge, rows
    in which all its members, or its two leftmost, share the least weight,
    which lies inside every member's interval (above every lower end, n //
    2, and below every upper end, n)."""
    rng = np.random.default_rng([seed, 25])
    n = 4 + seed % 5
    instance = _grid_instance(rng, n, 1 + seed % 4)
    weights = _quarter_weights(instance, rng, 60)
    column = {v: j for j, v in enumerate(instance.vertex_ids)}
    tied = []
    for members in instance.hyperedges:
        for share in (members, members[:2]):
            row = _quarter_weights(instance, rng, 1)[0]
            least = (n - 1) // 2 + rng.integers(1, 4 * (n - (n - 1) // 2)) / 4
            row[[column[u] for u in share]] = least
            for u in members:
                row[column[u]] = max(row[column[u]], least)
            tied.append(row)
    _assert_kernels_match(instance, np.concatenate([weights, tied]), rng)


BLOCK_ROWS = [1, 63, 64, 65, 4095, 4096, 4097]


@pytest.mark.parametrize("instance", [c for _, c in BOUNDARY_CASES], ids=BOUNDARY_IDS)
def test_kernels_at_bit_boundaries(instance):
    """Row counts around bytes, words and the 4,096-row block, drawn from
    a pool of realizations that the scalar rules decide once."""
    weights, _, position = _boundary_pool(instance)
    expect_mandatory, stack, expect_feasible = _scalar(instance, weights, np.random.default_rng(9))
    for rows in BLOCK_ROWS:
        at = position[:rows]
        assert np.array_equal(mandatory_matrix(instance, weights[at]), expect_mandatory[at]), rows
        feasible = feasible_matrix(instance, weights[at], stack[:, at])
        assert np.array_equal(feasible, expect_feasible[:, at]), rows


def test_kernels_refuse_a_non_reduced_instance():
    """b's interval is a's, so a covers b; the scalar rules still apply."""
    instance = make_instance(
        [uniform_vertex("a", 0, 2), uniform_vertex("b", 0, 2), uniform_vertex("c", 1, 3)],
        [["a", "b", "c"]],
    )
    assert not instance.is_reduced()
    r = Realization({"a": 0.3, "b": 0.6, "c": 2.5})
    assert mandatory_set(instance, r) == {"a", "b"}
    assert is_feasible(instance, r, {"a", "b"}) and not is_feasible(instance, r, {"a"})
    weights = np.array([[0.3, 0.6, 2.5]])
    queried = np.ones(weights.shape, dtype=bool)
    rng = np.random.default_rng(0)
    calls = {
        "mandatory_matrix": lambda: mandatory_matrix(instance, weights),
        "feasible_matrix": lambda: feasible_matrix(instance, weights, queried),
        "completion_matrix": lambda: completion_matrix(instance, weights, queried, queried),
        "estimate_profiles": lambda: estimate_profile(instance, 0.2, 0.2, rng),
    }
    for name, call in calls.items():
        with pytest.raises(InstanceError, match=f"^{name} requires a reduced instance$"):
            call()
    with pytest.raises(InstanceError, match="requires a reduced instance"):
        estimate_profiles(instance, [(0.2, 0.2)], rng)


def test_kernel_memory_is_linear_in_the_members():
    """One hyperedge of 1,024 members: each kernel holds one test per
    member and row, never a test per pair of members (about 524,800
    tests, over 1 GiB at 2,000 rows)."""
    instance = gen_benchmark("staircase", n=1024)
    weights = _sample_weights(instance, 3, 2000)  # 15.6 MiB, made before tracing
    start = np.zeros(weights.shape, dtype=bool)
    stack = np.stack([start, ~start, start])
    mandatory = mandatory_matrix(instance, weights)
    runs = {
        "mandatory_matrix": lambda: mandatory_matrix(instance, weights),
        "feasible_matrix": lambda: feasible_matrix(instance, weights, stack),
        "completion_matrix": lambda: completion_matrix(instance, weights, start, mandatory),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4.7 MiB for mandatory_matrix and completion_matrix: the
        # block's member tests and the output mask (2 MiB each); 8.2 MiB for
        # feasible_matrix, which packs a vertex-major copy of the stack
        assert peak < 10 * 2**20, (name, peak)
