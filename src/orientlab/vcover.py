"""Vertex-cover machinery: the cover graph of a hypergraph and its solvers.

Every feasible query set covers the cover graph (each leftmost/member
pair is a witness set), so the algorithms lean on a toolbox of cover
solvers: a half-integral LP relaxation, exact bipartite and small-graph
solvers, a local-ratio 2-approximation, and an exact per-hyperedge
enumeration for instances with few hyperedges.  The small-graph solver
works on the cover graph's bit view (neighbour masks, bit j for the j-th
vertex): components by a bit BFS, then a branch and bound pruned by a
greedy matching; the offline oracle shares it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .model import Instance, per_instance

EPS = 1e-12
FEW_HYPEREDGES = 20  # the most hyperedges vc_few_hyperedges enumerates by default

__all__ = [
    "SolverBoundError",
    "CoverGraph",
    "HalfIntegralSolution",
    "Cover",
    "make_cover_graph",
    "build_cover_graph",
    "bipartition",
    "lp_half_integral",
    "vc_bipartite_exact",
    "vc_exact_small",
    "vc_local_ratio_2approx",
    "vc_few_hyperedges",
]


class SolverBoundError(RuntimeError):
    """A solver was asked to exceed its configured size bound."""


@dataclass(frozen=True)
class CoverGraph:
    """Weighted undirected graph; canonical field order makes it hashable."""

    vertices: tuple[str, ...]
    weight_items: tuple[tuple[str, float], ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def weights(self) -> dict[str, float]:
        return dict(self.weight_items)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: tuple(sorted(s)) for v, s in adj.items()}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The bit view: each vertex's neighbour mask in ``vertices``
        order, bit j standing for ``vertices[j]``, so ascending bits are
        name order."""
        column = {v: j for j, v in enumerate(self.vertices)}
        masks = [0] * len(column)
        for a, b in self.edges:
            masks[column[a]] |= 1 << column[b]
            masks[column[b]] |= 1 << column[a]
        return tuple(masks)

    def induced(self, subset: Iterable[str]) -> "CoverGraph":
        keep = set(subset)
        return make_cover_graph(
            {v: w for v, w in self.weight_items if v in keep},
            [e for e in self.edges if e[0] in keep and e[1] in keep],
        )


def make_cover_graph(
    weights: Mapping[str, float], edges: Iterable[tuple[str, str]]
) -> CoverGraph:
    canon = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at {a}")
        if a not in weights or b not in weights:
            raise ValueError(f"edge ({a}, {b}) references unknown vertex")
        canon.add((a, b) if a < b else (b, a))
    for v, w in weights.items():
        if w < 0.0:
            raise ValueError(f"negative weight at {v}")
    return CoverGraph(
        vertices=tuple(sorted(weights)),
        weight_items=tuple(sorted(weights.items())),
        edges=tuple(sorted(canon)),
    )


@dataclass(frozen=True)
class HalfIntegralSolution:
    """LP relaxation solution with values in {0, 1/2, 1}."""

    values: tuple[tuple[str, float], ...]
    objective: float
    ones: frozenset[str]
    halves: frozenset[str]
    zeros: frozenset[str]

    @cached_property
    def value_of(self) -> dict[str, float]:
        return dict(self.values)

    def validate(self, g: CoverGraph) -> None:
        for a, b in g.edges:
            if self.value_of[a] + self.value_of[b] < 1.0 - EPS:
                raise AssertionError(f"LP solution violates edge ({a}, {b})")
        obj = math.fsum(g.weights[v] * x for v, x in self.values)
        if abs(obj - self.objective) > 1e-6 * max(1.0, abs(obj)):
            raise AssertionError("LP objective mismatch")


@dataclass(frozen=True)
class Cover:
    members: frozenset[str]
    weight: float

    def validate(self, g: CoverGraph) -> None:
        for a, b in g.edges:
            if a not in self.members and b not in self.members:
                raise AssertionError(f"edge ({a}, {b}) uncovered")


def _cover(g_weights: Mapping[str, float], members: Iterable[str]) -> Cover:
    ms = frozenset(members)
    return Cover(ms, math.fsum(g_weights[v] for v in ms))


# ---------------------------------------------------------------------------
# Cover graph of a hypergraph


def build_cover_graph(
    instance: Instance, weights: Mapping[str, float] | None = None
) -> CoverGraph:
    """Edge {v, u} for each hyperedge with leftmost v and intersecting
    member u; for size-2 hyperedges this reproduces the graph itself.
    Weighted by ``weights``, or else by the costs: that graph is built
    once per instance."""
    if weights is None:
        return _cost_cover_graph(instance)
    return make_cover_graph(dict(weights), _cost_cover_graph(instance).edges)


@per_instance
def _cost_cover_graph(instance: Instance) -> CoverGraph:
    edges = []
    for members in instance.hyperedges:
        first = members[0]
        iv = instance.interval(first)
        for u in members[1:]:
            if iv.intersects(instance.interval(u)):
                edges.append((first, u))
    return make_cover_graph(dict(instance.costs), edges)


# ---------------------------------------------------------------------------
# Deterministic max-flow (Edmonds-Karp) used by the cut-based solvers


class _FlowNet:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add(self, u: int, v: int, cap: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            queue = deque([s])
            while queue and parent_edge[t] == -1:
                u = queue.popleft()
                for e in self.head[u]:
                    v = self.to[e]
                    if parent_edge[v] == -1 and self.cap[e] > EPS:
                        parent_edge[v] = e
                        queue.append(v)
            if parent_edge[t] == -1:
                return flow
            bottleneck = math.inf
            v = t
            while v != s:
                e = parent_edge[v]
                bottleneck = min(bottleneck, self.cap[e])
                v = self.to[e ^ 1]
            v = t
            while v != s:
                e = parent_edge[v]
                self.cap[e] -= bottleneck
                self.cap[e ^ 1] += bottleneck
                v = self.to[e ^ 1]
            flow += bottleneck

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if v not in seen and self.cap[e] > EPS:
                    seen.add(v)
                    queue.append(v)
        return seen


def _bipartite_min_cut(
    weights: Sequence[float], n_left: int, arcs: Iterable[tuple[int, int]]
) -> tuple[float, set[int]]:
    """Min-weight cover of a bipartite graph via max-flow.

    Nodes are indices into ``weights``: the left side is ``range(n_left)``,
    the right side the rest, and each arc runs from a left node to a right
    node.  Returns (flow value, cover).  The cover comes from the canonical
    cut whose source side is the set of residually reachable nodes, which
    pins a deterministic choice among optimal covers.
    """
    net = _FlowNet(len(weights) + 2)
    s, t = 0, len(weights) + 1
    for i, w in enumerate(weights):
        if i < n_left:
            net.add(s, i + 1, w)
        else:
            net.add(i + 1, t, w)
    for u, v in arcs:
        net.add(u + 1, v + 1, math.inf)
    value = net.max_flow(s, t)
    reach = net.reachable(s)
    cover = {i for i in range(len(weights)) if (i + 1 in reach) == (i >= n_left)}
    return value, cover


# ---------------------------------------------------------------------------
# LP relaxation via the bipartite double cover


def lp_half_integral(g: CoverGraph) -> HalfIntegralSolution:
    """Optimal half-integral solution of the cover LP.

    Solved on the bipartite double cover by max-flow (vertex j is node j
    on the left and node n + j on the right); the source-side minimal cut
    makes the ones/halves/zeros split deterministic, which matters because
    different optimal solutions steer the threshold algorithm differently.
    """
    n = len(g.vertices)
    column = {v: j for j, v in enumerate(g.vertices)}
    arcs = []
    for a, b in g.edges:
        arcs.append((column[a], n + column[b]))
        arcs.append((column[b], n + column[a]))
    weights = [w for _, w in g.weight_items]
    value, cover = _bipartite_min_cut(weights * 2, n, arcs)
    x = {v: ((j in cover) + (n + j in cover)) / 2.0 for j, v in enumerate(g.vertices)}
    ones = frozenset(v for v, val in x.items() if val == 1.0)
    halves = frozenset(v for v, val in x.items() if val == 0.5)
    zeros = frozenset(v for v, val in x.items() if val == 0.0)
    sol = HalfIntegralSolution(
        values=tuple(sorted(x.items())),
        objective=value / 2.0,
        ones=ones,
        halves=halves,
        zeros=zeros,
    )
    sol.validate(g)
    return sol


# ---------------------------------------------------------------------------
# Exact bipartite solver


def bipartition(g: CoverGraph) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """Two-coloring, or None when an odd cycle exists."""
    color: dict[str, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = frozenset(v for v, c in color.items() if c == 0)
    return side0, frozenset(g.vertices) - side0


def vc_bipartite_exact(
    g: CoverGraph, sides: tuple[Iterable[str], Iterable[str]] | None = None
) -> Cover:
    """Minimum-weight cover of a bipartite graph via max-flow/min-cut."""
    if sides is None:
        sides = bipartition(g)
        if sides is None:
            raise ValueError("graph is not bipartite")
    left, right = (sorted(sides[0]), sorted(sides[1]))
    left_set, right_set = set(left), set(right)
    if left_set & right_set or left_set | right_set != set(g.vertices):
        raise ValueError("sides do not partition the vertices")
    for a, b in g.edges:
        if (a in left_set) == (b in left_set):
            raise ValueError(f"edge ({a}, {b}) inside one side")
    order = left + right
    index = {v: i for i, v in enumerate(order)}
    arcs = [(index[a], index[b]) if a in left_set else (index[b], index[a]) for a, b in g.edges]
    value, cover = _bipartite_min_cut([g.weights[v] for v in order], len(left), arcs)
    result = _cover(g.weights, (order[i] for i in cover))
    if abs(result.weight - value) > 1e-6 * max(1.0, abs(value)):
        raise AssertionError("cut/cover duality mismatch")
    result.validate(g)
    return result


# ---------------------------------------------------------------------------
# Exact solver for small graphs: branch and bound on the bit view


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _bit_components(masks: Sequence[int], rest: int) -> Iterator[int]:
    """The components of the graph induced on the bits ``rest``, by
    least vertex."""
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~comp
            comp |= frontier
        yield comp
        rest &= ~comp


def _precedes(a: int, b: int) -> bool:
    """Whether the ascending indices of ``a`` come lexicographically
    before those of ``b`` (a proper prefix comes first)."""
    if a == b:
        return False
    low = (a ^ b) & -(a ^ b)
    # past the shared members, the set holding the lower differing bit
    # comes first unless the other set has no member left
    return b >= low << 1 if a & low else a < low


def _min_cover_bits(
    masks: Sequence[int], weights: Sequence[float], comp: int, max_component: int
) -> int:
    """Minimum-weight cover, as bits, of the connected component ``comp``
    of the graph with neighbour ``masks`` and vertex ``weights``.

    Branch and bound: branch on the live vertex of highest (degree,
    index), first taking it, then all its live neighbours; prune on a
    greedy matching over the live bits.  Ties in weight (within EPS)
    resolve to the lexicographically smallest sorted member tuple, so
    equal-weight branches are explored rather than pruned.
    """
    size = comp.bit_count()
    if size > max_component:
        raise SolverBoundError(f"component of size {size} exceeds bound {max_component}")
    best_weight = math.inf
    best = 0

    def search(live: int, chosen: int, weight: float) -> None:
        nonlocal best_weight, best
        active = top = top_degree = 0
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            degree = (masks[j] & live).bit_count()
            if degree:
                active |= low
                if degree >= top_degree:
                    top, top_degree = j, degree
        if not active:
            if weight < best_weight - EPS or (
                abs(weight - best_weight) <= EPS and _precedes(chosen, best)
            ):
                best_weight, best = weight, chosen
            return
        if weight > best_weight + EPS:
            return
        # greedy matching on the live edges in sorted order: each vertex,
        # ascending, takes its least free neighbour above it
        bound = 0.0
        free = active
        while free:
            low = free & -free
            free ^= low
            mate = masks[low.bit_length() - 1] & free
            if mate:
                mate &= -mate
                free ^= mate
                bound += min(weights[low.bit_length() - 1], weights[mate.bit_length() - 1])
        if weight + bound > best_weight + EPS:
            return
        v = 1 << top
        search(active & ~v, chosen | v, weight + weights[top])
        # exclude v: all its live neighbours join the cover
        ns = masks[top] & active
        search(
            active & ~(ns | v),
            chosen | ns,
            weight + math.fsum(weights[u] for u in _bit_indices(ns)),
        )

    search(comp, 0, 0.0)
    return best


def vc_exact_small(g: CoverGraph, max_component: int = 24) -> Cover:
    """Exact minimum-weight cover for small graphs.

    Runs on the bit view (:attr:`CoverGraph.masks`): components split by
    a bit BFS, in order of their least vertex, each solved by
    :func:`_min_cover_bits`; the size bound applies per component.
    Nothing is cached across calls: a caller that meets the same
    component often memoizes it, as the offline oracle does.
    """
    weights = [w for _, w in g.weight_items]
    members = 0
    for comp in _bit_components(g.masks, (1 << len(g.vertices)) - 1):
        members |= _min_cover_bits(g.masks, weights, comp, max_component)
    result = _cover(g.weights, (g.vertices[j] for j in _bit_indices(members)))
    result.validate(g)
    return result


# ---------------------------------------------------------------------------
# Local-ratio 2-approximation


def vc_local_ratio_2approx(g: CoverGraph) -> Cover:
    """Weighted 2-approximation by local ratio.

    Scans edges in sorted order; each uncovered edge pays the smaller
    residual endpoint weight on both sides, and zero-residual vertices
    form the cover.
    """
    residual = dict(g.weights)
    for a, b in g.edges:
        if residual[a] == 0.0 or residual[b] == 0.0:
            continue
        delta = min(residual[a], residual[b])
        residual[a] -= delta
        residual[b] -= delta
    result = _cover(g.weights, (v for v in g.vertices if residual[v] == 0.0))
    result.validate(g)
    return result


# ---------------------------------------------------------------------------
# Exact cover through per-hyperedge enumeration


def vc_few_hyperedges(
    instance: Instance,
    weights: Mapping[str, float] | None = None,
    subset: Iterable[str] | None = None,
    max_hyperedges: int = FEW_HYPEREDGES,
) -> Cover:
    """Exact minimum cover of the cover graph when hyperedges are few.

    Any cover takes, per hyperedge, either the leftmost vertex or all the
    intersecting co-members, so enumerating the 2^k combinations and
    keeping the cheapest union is exact.  ``subset`` restricts to the
    induced cover graph on those vertices.
    """
    if weights is None:
        weights = instance.costs
    keep = set(subset) if subset is not None else None
    stars: list[tuple[str, tuple[str, ...]]] = []
    for members in instance.hyperedges:
        first = members[0]
        if keep is not None and first not in keep:
            continue
        iv = instance.interval(first)
        others = tuple(
            u
            for u in members[1:]
            if iv.intersects(instance.interval(u)) and (keep is None or u in keep)
        )
        if others:
            stars.append((first, others))
    if len(stars) > max_hyperedges:
        raise SolverBoundError(
            f"{len(stars)} hyperedges exceed enumeration bound {max_hyperedges}"
        )
    best: tuple[float, tuple[str, ...]] | None = None
    for mask in range(1 << len(stars)):
        union: set[str] = set()
        for bit, (first, others) in enumerate(stars):
            if mask >> bit & 1:
                union.update(others)
            else:
                union.add(first)
        weight = math.fsum(weights[v] for v in union)
        key = (weight, tuple(sorted(union)))
        if best is None or weight < best[0] - EPS or (
            abs(weight - best[0]) <= EPS and key[1] < best[1]
        ):
            best = key
    if best is None:
        return Cover(frozenset(), 0.0)
    return Cover(frozenset(best[1]), best[0])

