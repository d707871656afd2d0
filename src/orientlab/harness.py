"""Experiment harness: instance generators, exact expectations, and the
paired Monte-Carlo evaluator.

The evaluator scores the policies that :func:`algorithms.plan` makes
and the offline optimum on the same realizations and reports the ratio
of means with a delta-method confidence interval; everything is
reproducible from one master seed.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algorithms import AlgorithmSpec, OfflineOracle, Policy, plan, profiles
from .mandatory import (
    _bit_rows,
    _kernel_rows,
    _row_bits,
    completion_matrix,
    feasible_matrix,
    is_feasible,
    mandatory_matrix,
)
from .model import (
    Instance,
    Interval,
    InstanceError,
    Pmf,
    PmfCell,
    QueryTranscript,
    Realization,
    UncertainVertex,
    elementary_grid,
    make_instance,
    probability_matrix,
    reduce_instance,
    weights_from_uniforms,
)
from .vcover import (
    CoverGraph,
    SolverBoundError,
    make_cover_graph,
    vc_exact_small,
)

__all__ = [
    "EvaluationReport",
    "evaluate",
    "evaluate_all",
    "csv_header",
    "csv_row",
    "gen_benchmark",
    "BENCHMARKS",
    "gen_random",
    "exact_expected_opt",
    "exact_expected_cost",
    "enumerate_cell_realizations",
    "best_two_stage_cost",
    "two_stage_expected_opt",
    "run_two_stage_prefix",
    "GeneralizedInstance",
    "make_generalized",
    "expected_opt_generalized",
    "expected_opt_generalized_part",
    "vertex_split",
    "gen_generalized",
]

# ---------------------------------------------------------------------------
# Named benchmark instances


def _uv(vid: str, cost: float, lo: float, hi: float, cells: Sequence[tuple[float, float, float]]) -> UncertainVertex:
    pmf = Pmf(tuple(PmfCell(Interval(a, b), m) for a, b, m in cells if m > 0.0))
    return UncertainVertex(vid, cost, Interval(lo, hi), pmf)


def _check_unit(name: str, value: float, lo: float = 0.0, hi: float = 1.0) -> None:
    if not (lo < value < hi):
        raise ValueError(f"{name}={value} outside ({lo}, {hi})")


def make_fork(eps: float = 0.01) -> Instance:
    """Two edges sharing a vertex; the instance behind the 4/3 barrier."""
    _check_unit("eps", eps)
    x = _uv("x", 1.0, 0.0, 2.0, [(0.0, 1.0, 0.5), (1.0, 2.0, 0.5)])
    y = _uv("y", 1.0, 1.0, 3.0, [(1.0, 2.0, eps), (2.0, 3.0, 1.0 - eps)])
    z = _uv("z", 1.0, 1.0, 3.0, [(1.0, 2.0, eps), (2.0, 3.0, 1.0 - eps)])
    return make_instance([x, y, z], [["x", "y"], ["x", "z"]])


def make_weighted_triple(k: float = 100.0, eps: float = 0.01) -> Instance:
    """One 3-vertex hyperedge with costs (k, 1, k); both stage-1 cover
    choices pay about 3/2 of the optimum."""
    _check_unit("eps", eps)
    if k <= 0:
        raise ValueError("k must be positive")
    x = _uv("x", k, 0.0, 3.0, [(0.0, 1.0, eps), (2.0, 3.0, 1.0 - eps)])
    y = _uv("y", 1.0, 1.0, 4.0, [(1.0, 2.0, 0.5), (3.0, 4.0, 0.5)])
    z = _uv("z", k, 2.0, 5.0, [(2.0, 3.0, eps), (3.0, 5.0, 1.0 - eps)])
    return make_instance([x, y, z], [["x", "y", "z"]])


def make_overlap_family(k: int = 3, eps: float = 0.01) -> Instance:
    """k hyperedges sharing the middle and right vertices; the cover graph
    is complete bipartite."""
    _check_unit("eps", eps)
    if k < 1:
        raise ValueError("k must be at least 1")
    width = len(str(k))
    verts = []
    for i in range(1, k + 1):
        verts.append(
            _uv(f"x{i:0{width}d}", 1.0, 0.0, 3.0, [(0.0, 1.0, eps), (2.0, 3.0, 1.0 - eps)])
        )
    verts.append(_uv("y", 1.0, 1.0, 4.0, [(1.0, 2.0, 0.5), (3.0, 4.0, 0.5)]))
    zs = []
    for j in range(1, k + 1):
        zid = f"z{j:0{width}d}"
        zs.append(zid)
        verts.append(_uv(zid, 1.0, 2.0, 5.0, [(2.0, 3.0, eps), (3.0, 5.0, 1.0 - eps)]))
    edges = [[f"x{i:0{width}d}", "y", *zs] for i in range(1, k + 1)]
    return make_instance(verts, edges)


def make_hub_biclique(k: int = 3, eps: float = 0.01) -> Instance:
    """Non-bipartite graph: complete bipartite left/right plus a hub
    adjacent to everything."""
    _check_unit("eps", eps)
    if k < 1:
        raise ValueError("k must be at least 1")
    width = len(str(k))
    verts = []
    xs, zs = [], []
    for i in range(1, k + 1):
        xid, zid = f"x{i:0{width}d}", f"z{i:0{width}d}"
        xs.append(xid)
        zs.append(zid)
        verts.append(_uv(xid, 1.0, 0.0, 3.0, [(0.0, 1.0, 1.0 - eps), (2.0, 3.0, eps)]))
        verts.append(_uv(zid, 1.0, 2.0, 5.0, [(2.0, 3.0, eps), (3.0, 5.0, 1.0 - eps)]))
    verts.append(_uv("y", 1.0, 1.0, 4.0, [(1.0, 2.0, 0.5), (3.0, 4.0, 0.5)]))
    edges = [[x, z] for x in xs for z in zs]
    edges += [["y", v] for v in xs + zs]
    return make_instance(verts, edges)


def make_single_set(n: int = 3, eps: float = 0.001) -> Instance:
    """Single hyperedge: one early vertex plus n identical later ones."""
    _check_unit("eps", eps)
    if n < 2:
        raise ValueError("n must be at least 2")
    width = len(str(n))
    verts = [
        _uv(f"e{0:0{width}d}", 1.0, 0.0, 2.0,
            [(0.0, 1.0, 1.0 / n), (1.0, 2.0, (n - 1.0) / n)])
    ]
    for i in range(1, n + 1):
        verts.append(
            _uv(f"e{i:0{width}d}", 1.0, 1.0, 3.0, [(1.0, 2.0, eps), (2.0, 3.0, 1.0 - eps)])
        )
    return make_instance(verts, [[v.id for v in verts]])


def make_staircase(n: int = 64) -> Instance:
    """Single hyperedge of staircase intervals with half the mass at each
    end; the instance separating adaptive from strict two-stage querying."""
    if n < 2:
        raise ValueError("n must be at least 2")
    width = len(str(n))
    verts = [
        _uv(f"v{1:0{width}d}", 1.0, 1.0, n + 1.0, [(1.0, 2.0, 0.5), (float(n), n + 1.0, 0.5)])
    ]
    for i in range(2, n + 1):
        verts.append(
            _uv(
                f"v{i:0{width}d}",
                1.0,
                float(i),
                n + 2.0,
                [(float(i), i + 1.0, 0.5), (n + 1.0, n + 2.0, 0.5)],
            )
        )
    return make_instance(verts, [[v.id for v in verts]])


def make_edge_trap(d: float = 0.618, eps: float = 0.01, eps2: float = 1e-4) -> Instance:
    """Single edge where the deterministic cover choice backfires.

    Vertex a is almost never mandatory but is the canonical pick of the
    exact cover solvers, while b still needs a follow-up query with
    probability about d.
    """
    _check_unit("eps", eps, 0.0, d)
    _check_unit("eps2", eps2)
    a = _uv("a", 1.0, 1.0, 3.0, [(1.0, 2.0, d - eps), (2.0, 3.0, 1.0 - d + eps)])
    b = _uv("b", 1.0, 0.0, 2.0, [(0.0, 1.0, 1.0 - eps2), (1.0, 2.0, eps2)])
    return make_instance([a, b], [["a", "b"]])


def make_star_trap(d: float = 0.618, n: int = 50, eta: float = 0.01) -> Instance:
    """Star whose center is (almost) always mandatory and whose leaves sit
    exactly at the querying threshold, so threshold-style algorithms pay
    for every vertex up front."""
    _check_unit("d", d)
    _check_unit("eta", eta)
    if n < 1:
        raise ValueError("n must be at least 1")
    leaf_mass = 1.0 - eta ** (1.0 / n)
    width = len(str(n))
    verts = [_uv("c", 1.0, 0.0, 2.0, [(0.0, 1.0, 1.0 - d), (1.0, 2.0, d)])]
    edges = []
    for i in range(1, n + 1):
        vid = f"u{i:0{width}d}"
        verts.append(
            _uv(vid, 1.0, 1.0, 3.0, [(1.0, 2.0, leaf_mass), (2.0, 3.0, 1.0 - leaf_mass)])
        )
        edges.append(["c", vid])
    return make_instance(verts, edges)


def make_overlap_pair(p: float = 0.4, q: float = 0.4) -> Instance:
    """Two overlapping intervals forming a single edge."""
    _check_unit("p", p)
    _check_unit("q", q)
    v0 = _uv("v0", 1.0, 0.0, 2.0, [(0.0, 1.0, 1.0 - p), (1.0, 2.0, p)])
    v1 = _uv("v1", 1.0, 1.0, 3.0, [(1.0, 2.0, q), (2.0, 3.0, 1.0 - q)])
    return make_instance([v0, v1], [["v0", "v1"]])


BENCHMARKS: dict[str, Callable[..., Instance]] = {
    "fork": make_fork,
    "weighted-triple": make_weighted_triple,
    "overlap-family": make_overlap_family,
    "hub-biclique": make_hub_biclique,
    "single-set": make_single_set,
    "staircase": make_staircase,
    "edge-trap": make_edge_trap,
    "star-trap": make_star_trap,
    "overlap-pair": make_overlap_pair,
}


def gen_benchmark(name: str, **params) -> Instance:
    """Build a named benchmark instance; every one is already reduced."""
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {', '.join(sorted(BENCHMARKS))}"
        ) from None
    instance = factory(**params)
    if not instance.is_reduced():
        raise AssertionError(f"benchmark {name} generated a non-reduced instance")
    return instance


# ---------------------------------------------------------------------------
# Random instance families


def _random_vertex_at(
    vid: str, rng: np.random.Generator, lo: float, unit_cost: bool
) -> UncertainVertex:
    hi = lo + 1.0
    n_cells = int(rng.integers(1, 4))
    cuts = sorted(float(rng.uniform(lo + 0.05, hi - 0.05)) for _ in range(n_cells - 1))
    bounds = [lo, *cuts, hi]
    raw = rng.uniform(0.1, 1.0, size=n_cells)
    masses = raw / raw.sum()
    cells = [
        (bounds[i], bounds[i + 1], float(masses[i]))
        for i in range(n_cells)
        if bounds[i] < bounds[i + 1]
    ]
    cost = 1.0 if unit_cost else float(rng.uniform(0.5, 2.0))
    return _uv(vid, cost, lo, hi, cells)


def _random_vertex(
    vid: str, rng: np.random.Generator, spread: float, unit_cost: bool
) -> UncertainVertex:
    return _random_vertex_at(vid, rng, float(rng.uniform(0.0, spread)), unit_cost)


def gen_random(
    family: str,
    rng: np.random.Generator | int,
    **params,
):
    """Random reduced instance of one family.

    Intervals all have length one with lower ends inside (0, spread), so
    with spread < 1 every pair overlaps and nothing is contained in
    anything else: the instances come out reduced.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    spread = params.pop("spread", 0.8)
    unit_cost = params.pop("unit_cost", True)

    if family == "gnp":
        n = params.pop("n", 8)
        p = params.pop("p", 0.3)
        verts = [_random_vertex(f"v{i:02d}", rng, spread, unit_cost) for i in range(n)]
        ids = [v.id for v in verts]
        edges = [
            [ids[i], ids[j]]
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
    elif family == "hypergraph":
        n = params.pop("n", 8)
        m = params.pop("m", 4)
        max_size = params.pop("max_size", 4)
        verts = [_random_vertex(f"v{i:02d}", rng, spread, unit_cost) for i in range(n)]
        ids = [v.id for v in verts]
        edges = []
        for _ in range(m):
            size = int(rng.integers(2, min(max_size, n) + 1))
            members = [str(u) for u in rng.choice(ids, size=size, replace=False)]
            edges.append(members)
    elif family == "bipartite":
        nl = params.pop("nl", 4)
        nr = params.pop("nr", 4)
        p = params.pop("p", 0.4)
        verts = [_random_vertex(f"l{i:02d}", rng, spread, unit_cost) for i in range(nl)]
        verts += [_random_vertex(f"r{j:02d}", rng, spread, unit_cost) for j in range(nr)]
        edges = [
            [f"l{i:02d}", f"r{j:02d}"]
            for i in range(nl)
            for j in range(nr)
            if rng.random() < p
        ]
        if not edges:
            edges = [[f"l{0:02d}", f"r{0:02d}"]]
    elif family == "star":
        n = params.pop("n", 5)
        verts = [_random_vertex("c", rng, spread, unit_cost)]
        edges = []
        for i in range(n):
            verts.append(_random_vertex(f"u{i:02d}", rng, spread, unit_cost))
            edges.append(["c", f"u{i:02d}"])
    elif family == "interval-layers":
        k = params.pop("k", 2)
        n = params.pop("n", 8)
        step = params.pop("step", 0.3)
        verts = [
            _random_vertex_at(f"v{i:02d}", rng, i * step, unit_cost) for i in range(n)
        ]
        ids = [v.id for v in verts]
        by_id = {v.id: v for v in verts}
        adjacency: dict[str, set[str]] = {vid: set() for vid in ids}
        edges = []
        for _ in range(k):
            layer = [vid for vid in ids if rng.random() < 0.75]
            for a, b in zip(layer, layer[1:]):
                if not by_id[a].interval.intersects(by_id[b].interval):
                    continue
                if adjacency[a] & adjacency[b]:
                    continue  # keep the union triangle-free
                if b not in adjacency[a]:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
                    edges.append([a, b])
    else:
        raise ValueError(f"unknown random family {family!r}")
    instance, forced = reduce_instance(make_instance(verts, edges))
    assert not forced
    return instance


# ---------------------------------------------------------------------------
# Exact expectations by elementary-cell enumeration


def _cell_blocks(instance: Instance, max_combos: int) -> Iterable[tuple[np.ndarray, ...]]:
    """The joint elementary-cell assignments in ``itertools.product``
    order over the vertices, as row blocks of probabilities, cell indices
    and representative weights, columns in ``vertex_ids`` order.  Vertex j
    sits at the fraction (j + 1) / (n + 1) of its cell; a probability is
    the product of the cell masses taken in vertex order."""
    grid = np.array(elementary_grid(instance))
    matrix = probability_matrix(instance)
    cells = [np.array([i for i, _ in matrix[vid]], dtype=np.intp) for vid in instance.vertex_ids]
    masses = [np.array([m for _, m in matrix[vid]]) for vid in instance.vertex_ids]
    sizes = list(map(len, cells))
    combos = math.prod(sizes)
    if combos > max_combos:
        raise SolverBoundError(f"cell combinations exceed {max_combos}")
    offsets = np.arange(1.0, len(sizes) + 1) / (len(sizes) + 1.0)
    rows = _kernel_rows(instance)
    for a in range(0, combos, rows):
        index = np.arange(a, min(a + rows, combos))
        probs = np.ones(len(index))
        assigned = np.empty((len(index), len(sizes)), dtype=np.intp)
        for j, size in enumerate(sizes):
            digit = index // math.prod(sizes[j + 1 :]) % size
            probs *= masses[j][digit]
            assigned[:, j] = cells[j][digit]
        lo = grid[assigned]
        yield probs, assigned, lo + (grid[assigned + 1] - lo) * offsets


def enumerate_cell_realizations(
    instance: Instance, max_combos: int = 10**6
) -> Iterable[tuple[float, dict[str, int], Realization]]:
    """Yield (probability, cell assignment, representative realization).

    Representative weights take distinct interior positions inside each
    cell; every algorithm decision and every optimal cost is determined
    by the cell assignment alone, so averaging any cost over these
    representatives is exact.
    """
    ids = instance.vertex_ids
    for probs, cells, weights in _cell_blocks(instance, max_combos):
        for prob, row_cells, row in zip(probs.tolist(), cells.tolist(), weights.tolist()):
            yield prob, dict(zip(ids, row_cells)), Realization(dict(zip(ids, row)))


def exact_expected_opt(instance: Instance, max_combos: int = 10**6) -> float:
    """Expected optimal query cost by enumerating joint cell assignments:
    the optimum of a :class:`_PairedBatch` on each block of representative
    weights, all blocks sharing one oracle, which solves each mandatory
    set once, and one ``math.fsum`` of the probability-weighted costs."""
    oracle = OfflineOracle(instance)
    return math.fsum(
        itertools.chain.from_iterable(
            (probs * _PairedBatch(instance, weights, oracle).opt).tolist()
            for probs, _, weights in _cell_blocks(instance, max_combos)
        )
    )


def exact_expected_cost(
    instance: Instance,
    runner: Callable[[Realization], QueryTranscript],
    max_combos: int = 10**6,
) -> float:
    """Exact expected query cost of an algorithm via cell enumeration: one
    ``math.fsum`` of the probability-weighted total cost of the
    transcript ``runner`` returns on each representative realization."""
    total = []
    for prob, _, realization in enumerate_cell_realizations(instance, max_combos):
        total.append(prob * runner(realization).total_cost)
    return math.fsum(total)


# ---------------------------------------------------------------------------
# Strict two-stage policies on a single hyperedge


def best_two_stage_cost(n: int) -> tuple[float, int]:
    """Cheapest strict two-stage policy on the staircase instance.

    Querying a k-prefix costs k plus, when every first-stage weight lands
    at its right end, all n - k remaining queries: n/2^k + k(1 - 2^-k),
    minimized over k.
    """
    best = (math.inf, 0)
    # beyond k ~ 60 the leftover term vanishes and the cost grows as k
    for k in range(min(n, 64) + 1):
        cost = n / 2.0**k + k * (1.0 - 2.0**-k)
        if cost < best[0]:
            best = (cost, k)
    return best


def two_stage_expected_opt(n: int) -> float:
    """Exact expected optimum of the staircase instance: 2 - 3/2^n.

    Case analysis over the first left-end weight in the staircase order;
    validated against cell enumeration for small n in the test suite.
    """
    return 2.0 - 3.0 * 2.0**-n


def run_two_stage_prefix(instance: Instance, k: int, realization: Realization) -> float:
    """Cost of the strict two-stage policy with a k-prefix first stage.

    The second stage is chosen without adaptivity: it must make the query
    set feasible for every realization consistent with stage one, which
    means stopping only when no unqueried interval could undercut the
    revealed minimum, and querying everything otherwise.
    """
    if len(instance.hyperedges) != 1:
        raise ValueError("two-stage prefix policy is defined for a single hyperedge")
    members = instance.hyperedges[0]
    prefix = list(members[:k])
    rest = [v for v in members if v not in prefix]
    w_star = min((realization[v] for v in prefix), default=math.inf)
    if all(instance.interval(u).lo >= w_star for u in rest):
        queried = set(prefix)
    else:
        queried = set(members)
    assert is_feasible(instance, realization, queried)
    return math.fsum(instance.costs[v] for v in queried)


# ---------------------------------------------------------------------------
# Generalized instances (explicit mandatory law) and vertex splits


@dataclass(frozen=True)
class GeneralizedInstance:
    """Cover graph plus an explicit distribution over mandatory sets."""

    graph: CoverGraph
    law: tuple[tuple[frozenset[str], float], ...]

    def validate(self) -> None:
        if len(self.graph.vertices) > 12:
            raise ValueError("generalized instances are capped at 12 vertices")
        total = math.fsum(p for _, p in self.law)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mandatory law sums to {total!r}")
        for subset, p in self.law:
            if p < 0.0:
                raise ValueError("negative probability in mandatory law")
            if not subset <= set(self.graph.vertices):
                raise ValueError("mandatory law references unknown vertices")


def make_generalized(
    weights: Mapping[str, float],
    edges: Iterable[tuple[str, str]],
    law: Mapping[frozenset[str], float] | Iterable[tuple[frozenset[str], float]],
) -> GeneralizedInstance:
    graph = make_cover_graph(weights, edges)
    items = law.items() if isinstance(law, Mapping) else law
    canon = tuple(sorted(((frozenset(m), float(p)) for m, p in items), key=lambda t: sorted(t[0])))
    gi = GeneralizedInstance(graph, canon)
    gi.validate()
    return gi


def expected_opt_generalized(gi: GeneralizedInstance) -> float:
    """E[optimum] = sum over mandatory sets of c(M) + min cover of the rest."""
    return expected_opt_generalized_part(gi, gi.graph.vertices)


def expected_opt_generalized_part(gi: GeneralizedInstance, part: Iterable[str]) -> float:
    """Expected cost any feasible set must spend inside ``part``."""
    keep = set(part)
    weights = gi.graph.weights
    total = []
    for mandatory, p in gi.law:
        inside = [v for v in mandatory if v in keep]
        rest = [v for v in keep if v not in mandatory]
        vc = vc_exact_small(gi.graph.induced(rest)).weight
        total.append(p * (math.fsum(weights[v] for v in inside) + vc))
    return math.fsum(total)


def vertex_split(
    gi: GeneralizedInstance, vid: str, fractions: Sequence[float]
) -> GeneralizedInstance:
    """Split a vertex into cost fractions that are jointly mandatory.

    Copies inherit all adjacencies; the law makes every copy mandatory
    exactly when the original was, which keeps the expected optimum
    unchanged.
    """
    if vid not in gi.graph.weights:
        raise ValueError(f"unknown vertex {vid}")
    if abs(math.fsum(fractions) - 1.0) > 1e-9 or any(f <= 0.0 for f in fractions):
        raise ValueError("fractions must be positive and sum to 1")
    base = gi.graph.weights[vid]
    copies = [f"{vid}~{j}" for j in range(len(fractions))]
    weights = {v: w for v, w in gi.graph.weight_items if v != vid}
    weights.update({c: base * f for c, f in zip(copies, fractions)})
    edges = []
    for a, b in gi.graph.edges:
        if vid in (a, b):
            other = b if a == vid else a
            edges.extend((c, other) for c in copies)
        else:
            edges.append((a, b))
    law = []
    for mandatory, p in gi.law:
        if vid in mandatory:
            law.append((frozenset(mandatory - {vid}) | set(copies), p))
        else:
            law.append((mandatory, p))
    return make_generalized(weights, edges, law)


def gen_generalized(n: int, rng: np.random.Generator | int) -> GeneralizedInstance:
    """Random generalized instance with a sparse mandatory law."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    ids = [f"v{i}" for i in range(n)]
    weights = {vid: float(rng.uniform(0.5, 2.0)) for vid in ids}
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.45
    ]
    support = max(2, int(rng.integers(2, 9)))
    subsets = []
    for _ in range(support):
        subsets.append(frozenset(vid for vid in ids if rng.random() < 0.4))
    raw = rng.uniform(0.1, 1.0, size=len(subsets))
    raw /= raw.sum()
    law: dict[frozenset[str], float] = {}
    for subset, p in zip(subsets, raw):
        law[subset] = law.get(subset, 0.0) + float(p)
    return make_generalized(weights, edges, law)


# ---------------------------------------------------------------------------
# Paired Monte-Carlo evaluation


@dataclass(frozen=True)
class EvaluationReport:
    instance_id: str
    algorithm_id: str
    n_samples: int
    mean_alg: float
    mean_opt: float
    ratio: float
    ci95_ratio: tuple[float, float]
    master_seed: int
    wall_ms: float
    d: float | None = None
    alpha: float | None = None


def _number_rows(masks: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Number the distinct rows of a boolean matrix in order of first
    occurrence: the number of every row, and the first row of each."""
    packed = np.packbits(masks, axis=1)
    words = np.zeros((len(masks), -(-packed.shape[1] // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed  # 64 columns per word
    order = np.lexsort(words.T)  # stable, so equal rows keep their order
    starts = np.r_[True, (words[order[1:]] != words[order[:-1]]).any(axis=1)]
    first = order[starts]
    index = np.empty(len(masks), dtype=np.intp)
    index[order] = np.argsort(np.argsort(first))[np.cumsum(starts) - 1]
    return index, np.sort(first).tolist()


class _PairedBatch:
    """Given rows of realization weights, reduced to their mandatory sets,
    with the optimum found and costed once per distinct set: the one place
    where an optimum is costed, for the sampled realizations of
    :func:`evaluate_all` and the enumerated ones of
    :func:`exact_expected_opt`.

    Distinct mandatory sets ("patterns") are numbered in order of first
    occurrence and handed to ``oracle`` in that order, so a cover-solver
    bound trips on the same realization as it would in a
    realization-by-realization scan.  Every query set scored here is
    checked for feasibility on every realization by :meth:`check`, in one
    pass over the batch.
    """

    def __init__(self, instance: Instance, weights: np.ndarray, oracle: OfflineOracle):
        self.instance = instance
        self.weights = weights
        mandatory = mandatory_matrix(instance, weights)
        self.pattern, first = _number_rows(mandatory)  # realization -> pattern
        self.patterns = mandatory[first]  # pattern -> mandatory mask
        optima = [oracle.optimum_bits(bits) for bits in _row_bits(self.patterns)]
        self.optimal = _bit_rows(optima, len(instance.vertices))  # pattern -> optimal query mask
        self._scored: list[tuple[np.ndarray, np.ndarray, str]] = []
        self.opt = self.score(self.optimal, self.pattern, "offline optimum is not feasible")

    def mask(self, members: Iterable[str]) -> np.ndarray:
        chosen = set(members)
        return np.array([v in chosen for v in self.instance.vertex_ids], dtype=bool)

    def score(self, sets: np.ndarray, index: np.ndarray, infeasible: str) -> np.ndarray:
        """Per-realization cost of querying ``sets[index[i]]`` on
        realization i, each of ``sets`` costed once as an exact sum.
        :meth:`check` raises AssertionError with ``infeasible`` unless
        every set is feasible on its realization."""
        self._scored.append((sets, index, infeasible))
        costs = [v.cost for v in self.instance.vertices]
        return np.array([math.fsum(itertools.compress(costs, row)) for row in sets.tolist()])[index]

    def check(self) -> None:
        """Check every scored query set on every realization: one stacked
        :func:`feasible_matrix` call per row block.  Raises the message of
        the first set, in scoring order, that fails somewhere."""
        feasible = np.ones(len(self._scored), dtype=bool)
        step = _kernel_rows(self.instance)
        for a in range(0, len(self.weights), step):
            rows = slice(a, a + step)
            stack = np.stack([sets[index[rows]] for sets, index, _ in self._scored])
            feasible &= feasible_matrix(self.instance, self.weights[rows], stack).all(axis=1)
        for ok, (_, _, infeasible) in zip(feasible.tolist(), self._scored):
            if not ok:
                raise AssertionError(infeasible)


def _leaves_first_stage1(instance: Instance, weights: np.ndarray) -> np.ndarray:
    """Stage 1 of :func:`run_leaves_first` on every row: member 1 in key
    order, then each member p >= 2 while min(w_1 .. w_{p-1}) >= hi_l, l
    the leftmost member.  On a reduced instance every revealed weight
    lies above lo_l, and with l and member p unqueried the hyperedge is
    not solved (:func:`mandatory.completion_matrix`), so the run stops
    exactly when the least revealed weight falls inside I_l."""
    leftmost, *others = instance.hyperedges[0]
    cols = [instance.vertex_ids.index(x) for x in others]
    queried = np.zeros(weights.shape, dtype=bool)
    queried[:, cols[0]] = True
    hi_l = instance.by_id[leftmost].interval.hi
    queried[:, cols[1:]] = np.minimum.accumulate(weights[:, cols[:-1]], axis=1) >= hi_l
    return queried


def _query_sets(policy: Policy, batch: _PairedBatch) -> tuple[np.ndarray, np.ndarray]:
    """Query sets of a planned policy: its distinct query masks, and the
    number of the mask of each realization.  A cover-first set and the
    optimum are functions of the mandatory pattern, so they come one per
    pattern; the adaptive sets are numbered in order of first occurrence."""
    instance, weights, spec = batch.instance, batch.weights, policy.spec
    if spec.kind == "offline-opt":
        return batch.optimal, batch.pattern
    if not policy.adaptive:
        return batch.patterns | batch.mask(policy.stage1), batch.pattern
    if spec.kind == "leaves-first":
        start = _leaves_first_stage1(instance, weights)
    else:
        start = np.broadcast_to(batch.mask(policy.stage1), weights.shape)
    mandatory = batch.patterns[batch.pattern]
    queried = completion_matrix(instance, weights, start, mandatory)
    index, first = _number_rows(queried)
    return queried[first], index


def _alg_costs(policy: Policy, batch: _PairedBatch) -> np.ndarray:
    sets, index = _query_sets(policy, batch)
    return batch.score(sets, index, "algorithm stopped on an infeasible query set")


def _ratio_ci(alg: np.ndarray, opt: np.ndarray) -> tuple[float, float]:
    """95% delta-method interval for the ratio of means r = mean(alg) /
    mean(opt) of paired samples: r +- z sd(alg - r opt) / (sqrt(N) mean(opt)),
    the first-order linearization of the ratio.  Every realization has
    ALG >= OPT, so the true ratio is at least 1 and the lower end is
    raised to 1, but never above r.  At N = 1, or with zero variance, the
    interval is [r, r]."""
    mean_opt = float(opt.mean())
    ratio = float(alg.mean()) / mean_opt
    if len(opt) < 2:
        return ratio, ratio
    sd = float(np.std(alg - ratio * opt, ddof=1))
    half = 1.959963984540054 * sd / (math.sqrt(len(opt)) * mean_opt)
    return max(ratio - half, min(ratio, 1.0)), ratio + half


_BLOCK = 4096


def _sample_weights(instance: Instance, master_seed: int, count: int) -> np.ndarray:
    """Weights of realizations 0..count-1: one row each, columns in
    ``vertex_ids`` order, written block by block into one array.

    Realization i is a pure function of (master_seed, i), so a shorter
    draw is a prefix of a longer one: its uniforms are row i % _BLOCK of
    the counter-based stream keyed [master_seed, i // _BLOCK], and they
    become weights through :func:`weights_from_uniforms`; an exact
    cell-endpoint hit redraws from the stream [master_seed, block, row, j].
    """
    n = len(instance.vertex_ids)
    out = np.empty((count, n))
    for first in range(0, count, _BLOCK):
        block, rows = first // _BLOCK, min(_BLOCK, count - first)
        # a uint64 key: a list holding a seed of 2^63 or more goes through float
        rng = np.random.Generator(np.random.Philox(key=np.array([master_seed, block], dtype=np.uint64)))
        out[first : first + rows] = weights_from_uniforms(
            instance,
            rng.random((rows, 2 * n)),
            lambda row, j: np.random.default_rng([master_seed, block, row, j]),
        )
    return out


def evaluate_all(
    instance: Instance,
    specs: Sequence[AlgorithmSpec],
    n_samples: int,
    master_seed: int,
    instance_id: str = "instance",
    vc_bound: int = 24,
) -> list[EvaluationReport | SolverBoundError]:
    """Paired Monte-Carlo estimates of E[algorithm] / E[optimum] for
    several algorithms on the same realizations.

    Realization i comes from the stream (master_seed, i), and every
    policy is scored from batched query masks, so reports depend only on
    the seed (wall_ms aside); the seed must lie in [0, 2^64).  One
    planning sample serves every spec that samples
    (:func:`algorithms.profiles`), and every spec is planned
    (:func:`algorithms.plan`), so a spec that cannot run fails before any
    realization is sampled; then the realizations are sampled and the
    optimum solved once for all specs, every spec is scored, one pass
    checks every query set for feasibility on every realization, and
    each spec gets the delta-method interval of its ratio
    (:func:`_ratio_ci`).  A report's wall_ms, in milliseconds to the
    microsecond, is its own plan, scoring and interval; the first
    report's also includes the planning sample, the realizations and
    optimum, and the feasibility pass.  The exact profile is a
    per-instance table, paid by the first spec that plans from it.  A
    spec whose planning, or the optimum, exceeds a solver bound gets the
    SolverBoundError in place of its report; a ValueError from planning
    is re-raised as the same type, its message prefixed with the spec's
    algorithm_id.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed {master_seed} outside [0, 2^64)")
    if not instance.is_reduced():
        raise InstanceError("evaluate requires a reduced instance")
    if not instance.hyperedges:  # the only way a reduced instance has E[OPT] = 0
        raise InstanceError("E[OPT] is 0: nothing to orient")
    start = time.perf_counter()
    sampled = profiles(specs, instance, master_seed)
    shared = time.perf_counter() - start
    planned: list[tuple[Policy | SolverBoundError, float]] = []
    for spec, profile in zip(specs, sampled):
        start = time.perf_counter()
        try:
            policy: Policy | SolverBoundError = plan(spec, instance, master_seed, profile)
        except SolverBoundError as exc:
            policy = exc
        except ValueError as exc:
            raise type(exc)(f"{spec.algorithm_id}: {exc}") from exc
        planned.append((policy, time.perf_counter() - start))
    start = time.perf_counter()
    try:
        weights = _sample_weights(instance, master_seed, n_samples)
        batch = _PairedBatch(instance, weights, OfflineOracle(instance, vc_bound))
    except SolverBoundError as exc:
        return [p if isinstance(p, SolverBoundError) else exc for p, _ in planned]
    shared += time.perf_counter() - start
    scored: dict[int, tuple[np.ndarray, float]] = {}  # spec index -> costs, seconds
    for i, (policy, seconds) in enumerate(planned):
        if not isinstance(policy, SolverBoundError):
            start = time.perf_counter()
            scored[i] = (_alg_costs(policy, batch), seconds + time.perf_counter() - start)
    start = time.perf_counter()
    batch.check()
    shared += time.perf_counter() - start
    mean_opt = float(batch.opt.mean())
    results: list = [policy for policy, _ in planned]  # failed plans keep their error
    for i, (alg, seconds) in scored.items():
        start = time.perf_counter()
        ci = _ratio_ci(alg, batch.opt)
        seconds += time.perf_counter() - start
        spec = specs[i]
        mean_alg = float(alg.mean())
        results[i] = EvaluationReport(
            instance_id=instance_id,
            algorithm_id=spec.algorithm_id,
            n_samples=n_samples,
            mean_alg=mean_alg,
            mean_opt=mean_opt,
            ratio=mean_alg / mean_opt,
            ci95_ratio=ci,
            master_seed=master_seed,
            wall_ms=round((seconds + shared) * 1000, 3),
            d=spec.threshold_used(),
            alpha=spec.alpha if spec.kind.startswith("threshold") else None,
        )
        shared = 0.0
    return results


def _raise_bounds(results: list[EvaluationReport | SolverBoundError]) -> list[EvaluationReport]:
    """The reports of :func:`evaluate_all`; raises the first
    SolverBoundError among them instead."""
    for result in results:
        if isinstance(result, SolverBoundError):
            raise result
    return results


def evaluate(
    instance: Instance,
    spec: AlgorithmSpec,
    n_samples: int,
    master_seed: int,
    instance_id: str = "instance",
    vc_bound: int = 24,
) -> EvaluationReport:
    """Paired Monte-Carlo estimate of E[algorithm] / E[optimum]: the
    one-spec case of :func:`evaluate_all`, raising its solver bound."""
    (result,) = _raise_bounds(
        evaluate_all(instance, [spec], n_samples, master_seed, instance_id, vc_bound)
    )
    return result


CSV_COLUMNS = (
    "instance_id,algorithm,d,alpha,n_samples,mean_alg,mean_opt,ratio,"
    "ci_lo,ci_hi,seed,wall_ms"
)


def csv_header() -> str:
    return CSV_COLUMNS


def csv_row(report: EvaluationReport, timing: bool = False) -> str:
    def num(x: float | None) -> str:
        return "" if x is None else repr(x)

    return ",".join(
        [
            report.instance_id,
            report.algorithm_id,
            num(report.d),
            num(report.alpha),
            str(report.n_samples),
            repr(report.mean_alg),
            repr(report.mean_opt),
            repr(report.ratio),
            repr(report.ci95_ratio[0]),
            repr(report.ci95_ratio[1]),
            str(report.master_seed),
            str(report.wall_ms if timing else 0),
        ]
    )
