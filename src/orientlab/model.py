"""Instance model for the uncertain-weight orientation problem.

An instance is a hypergraph whose vertices carry an open uncertainty
interval, a piecewise-uniform distribution over that interval, and a
positive query cost.  A realization assigns each vertex a concrete
weight drawn from its distribution; querying a vertex reveals that
weight.  The goal downstream is to identify, for every hyperedge, its
minimum-weight vertex while paying as little query cost as possible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

MASS_TOL = 1e-9

__all__ = [
    "InstanceError",
    "Interval",
    "PmfCell",
    "Pmf",
    "UncertainVertex",
    "Instance",
    "Realization",
    "QueryStep",
    "QueryTranscript",
    "make_instance",
    "parse_instance",
    "serialize_instance",
    "reduce_instance",
    "elementary_grid",
    "probability_matrix",
    "weights_from_uniforms",
    "sample_realization",
]


class InstanceError(ValueError):
    """Raised for malformed documents or violated instance invariants."""


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InstanceError(f"non-finite interval end in ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise InstanceError(f"empty interval ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def intersects(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def covers(self, other: "Interval") -> bool:
        """True iff ``other`` is contained in this interval (as open sets)."""
        return self.lo <= other.lo and other.hi <= self.hi


def _difference(a: float, b: float) -> tuple[int, int]:
    """a - b exactly, as an integer ratio with a positive denominator."""
    a_n, a_d = a.as_integer_ratio()
    b_n, b_d = b.as_integer_ratio()
    return a_n * b_d - b_n * a_d, a_d * b_d


@dataclass(frozen=True)
class PmfCell:
    cell: Interval
    mass: float


@dataclass(frozen=True)
class Pmf:
    """Piecewise-uniform density: disjoint cells with positive masses.

    The first cell starts at the owner interval's lower end and the last
    cell ends at its upper end, so the interval is the minimal support.
    """

    cells: tuple[PmfCell, ...]

    def validate(self, owner: Interval) -> None:
        if not self.cells:
            raise InstanceError("pmf has no cells")
        total = math.fsum(c.mass for c in self.cells)
        if abs(total - 1.0) > MASS_TOL:
            raise InstanceError(f"pmf mass sum {total!r} != 1")
        for c in self.cells:
            if not (0.0 < c.mass < math.inf):
                raise InstanceError(f"cell mass {c.mass!r} is not a positive finite number")
            if not owner.covers(c.cell):
                raise InstanceError(f"cell {c.cell} outside interval {owner}")
            if not (math.isfinite(c.cell.length) and math.nextafter(c.cell.lo, math.inf) < c.cell.hi):
                raise InstanceError(f"cell {c.cell} is too narrow or too wide to draw a weight")
        for a, b in zip(self.cells, self.cells[1:]):
            if a.cell.hi > b.cell.lo:
                raise InstanceError("pmf cells overlap or are unsorted")
        if self.cells[0].cell.lo != owner.lo or self.cells[-1].cell.hi != owner.hi:
            raise InstanceError("pmf support does not span the vertex interval")

    def mass_in(self, window: Interval) -> float:
        """P[w in window] under the piecewise-uniform density, the exact
        value rounded once (int true division is correctly rounded)."""
        num, den = self.mass_ratio(window)
        return num / den

    def mass_ratio(self, window: Interval) -> tuple[int, int]:
        """P[w in window] exactly, as an unreduced fraction num / den with
        den > 0: every float is an integer ratio, so the sum of
        mass * overlap / width over the cells is one; no gcd is taken."""
        num, den = 0, 1
        for c in self.cells:
            lo = max(c.cell.lo, window.lo)
            hi = min(c.cell.hi, window.hi)
            if lo < hi:
                m_n, m_d = c.mass.as_integer_ratio()
                overlap_n, overlap_d = _difference(hi, lo)
                width_n, width_d = _difference(c.cell.hi, c.cell.lo)
                term_n = m_n * overlap_n * width_d
                term_d = m_d * overlap_d * width_n
                num, den = num * term_d + term_n * den, den * term_d
        return num, den


@dataclass(frozen=True)
class UncertainVertex:
    id: str
    cost: float
    interval: Interval
    pmf: Pmf

    def validate(self) -> None:
        if not self.id:
            raise InstanceError("empty vertex id")
        if not 0.0 < self.cost < math.inf:
            raise InstanceError(f"vertex {self.id}: cost must be positive and finite")
        self.pmf.validate(self.interval)

    @property
    def key(self) -> tuple[float, float, str]:
        """Sort key for the leftmost-vertex order: lo, then hi, then id."""
        return (self.interval.lo, self.interval.hi, self.id)


@dataclass(frozen=True)
class Instance:
    """Validated hypergraph instance in canonical order.

    Vertices are sorted by id; each hyperedge is ordered by the leftmost
    key, so ``hyperedge[0]`` is its leftmost vertex.  Instances are
    immutable and safe to share between evaluations.
    """

    vertices: tuple[UncertainVertex, ...]
    hyperedges: tuple[tuple[str, ...], ...]

    @cached_property
    def by_id(self) -> dict[str, UncertainVertex]:
        return {v.id: v for v in self.vertices}

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def kind(self) -> str:
        return "graph" if all(len(f) == 2 for f in self.hyperedges) else "hypergraph"

    @cached_property
    def costs(self) -> dict[str, float]:
        return {v.id: v.cost for v in self.vertices}

    @cached_property
    def pmf_table(self) -> tuple[tuple[list[float], np.ndarray, np.ndarray], ...]:
        """Per vertex, in ``vertex_ids`` order: the cumulative masses of its
        pmf cells but the last, summed in cell order, and the cells' lower
        and upper ends."""
        table = []
        for v in self.vertices:
            cum = np.cumsum([c.mass for c in v.pmf.cells[:-1]]).tolist()
            table.append((cum, *np.array([(c.cell.lo, c.cell.hi) for c in v.pmf.cells]).T))
        return tuple(table)

    @cached_property
    def graph_neighbors(self) -> dict[str, tuple[str, ...]]:
        """Adjacency over size-2 hyperedges (the whole edge set for graphs)."""
        adj: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for f in self.hyperedges:
            if len(f) == 2:
                a, b = f
                adj[a].add(b)
                adj[b].add(a)
        return {u: tuple(sorted(vs)) for u, vs in adj.items()}

    def interval(self, vid: str) -> Interval:
        return self.by_id[vid].interval

    def leftmost(self, hyperedge: Sequence[str]) -> str:
        return min(hyperedge, key=lambda u: self.by_id[u].key)

    def is_reduced(self) -> bool:
        """True iff every hyperedge member overlaps, and is not contained
        in, the hyperedge's leftmost interval."""
        for f in self.hyperedges:
            first = self.by_id[f[0]].interval
            for u in f[1:]:
                iu = self.by_id[u].interval
                if not first.intersects(iu) or first.covers(iu):
                    return False
        return True

    def validate(self) -> None:
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate vertex ids")
        for v in self.vertices:
            v.validate()
        for f in self.hyperedges:
            if len(f) < 2:
                raise InstanceError(f"hyperedge {f} has fewer than 2 members")
            if len(set(f)) != len(f):
                raise InstanceError(f"hyperedge {f} repeats a member")
            for u in f:
                if u not in self.by_id:
                    raise InstanceError(f"hyperedge references unknown id {u!r}")


def make_instance(
    vertices: Iterable[UncertainVertex], hyperedges: Iterable[Sequence[str]]
) -> Instance:
    """Build a canonical, validated instance."""
    verts = tuple(sorted(vertices, key=lambda v: v.id))
    by_id = {v.id: v for v in verts}
    edges = []
    for f in hyperedges:
        members = list(f)
        for u in members:
            if u not in by_id:
                raise InstanceError(f"hyperedge references unknown id {u!r}")
        edges.append(tuple(sorted(members, key=lambda u: by_id[u].key)))
    inst = Instance(verts, tuple(edges))
    inst.validate()
    return inst


@dataclass(frozen=True)
class Realization:
    """One concrete weight per vertex, strictly inside its interval."""

    weights: Mapping[str, float]

    def __getitem__(self, vid: str) -> float:
        return self.weights[vid]

    def validate(self, instance: Instance) -> None:
        for v in instance.vertices:
            w = self.weights.get(v.id)
            if w is None:
                raise InstanceError(f"realization misses vertex {v.id}")
            if not v.interval.contains(w):
                raise InstanceError(f"weight {w} of {v.id} outside {v.interval}")


@dataclass(frozen=True)
class QueryStep:
    vertex: str
    weight: float
    stage: str  # "stage1" | "stage2"


@dataclass(frozen=True)
class QueryTranscript:
    steps: tuple[QueryStep, ...]
    total_cost: float

    @property
    def queried(self) -> frozenset[str]:
        return frozenset(s.vertex for s in self.steps)

    def validate(self, instance: Instance) -> None:
        seen = [s.vertex for s in self.steps]
        if len(set(seen)) != len(seen):
            raise InstanceError("transcript queries a vertex twice")
        expect = math.fsum(instance.costs[v] for v in seen)
        if abs(expect - self.total_cost) > 1e-9 * max(1.0, abs(expect)):
            raise InstanceError("transcript total_cost does not match steps")


# ---------------------------------------------------------------------------
# Document format


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance document format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), list):
        raise InstanceError("document must be an object with a 'vertices' list")
    hyperedges = doc.get("hyperedges", [])
    if not (
        isinstance(hyperedges, list) and all(isinstance(f, list) for f in hyperedges)
    ):
        raise InstanceError("'hyperedges' must be a list of id lists")
    vertices = []
    for row in doc["vertices"]:
        try:
            interval = Interval(float(row["interval"][0]), float(row["interval"][1]))
            cells = tuple(
                PmfCell(Interval(float(c["cell"][0]), float(c["cell"][1])), float(c["mass"]))
                for c in row["pmf"]
            )
            vertices.append(
                UncertainVertex(str(row["id"]), float(row["cost"]), interval, Pmf(cells))
            )
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise InstanceError(f"malformed vertex entry: {row!r}") from exc
    return make_instance(vertices, [[str(u) for u in f] for f in hyperedges])


def serialize_instance(instance: Instance) -> str:
    """Emit the JSON document; numbers keep full round-trip precision."""
    doc = {
        "vertices": [
            {
                "id": v.id,
                "cost": v.cost,
                "interval": [v.interval.lo, v.interval.hi],
                "pmf": [
                    {"cell": [c.cell.lo, c.cell.hi], "mass": c.mass} for c in v.pmf.cells
                ],
            }
            for v in instance.vertices
        ],
        "hyperedges": [list(f) for f in instance.hyperedges],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Reduction


def reduce_instance(instance: Instance) -> tuple[Instance, frozenset[str]]:
    """Normalize an instance to the form the algorithms assume.

    Iterates to a fixpoint: members whose interval misses the hyperedge's
    leftmost interval are dropped from that hyperedge, and whenever some
    member's interval sits inside the leftmost one, the leftmost vertex is
    unavoidable in every realization, so it is marked forced and removed.
    Hyperedges shrinking below two members are deleted.
    """
    by_id = instance.by_id
    edges: list[list[str]] = [list(f) for f in instance.hyperedges]
    forced: set[str] = set()

    changed = True
    while changed:
        changed = False
        next_edges: list[list[str]] = []
        for members in edges:
            members = [u for u in members if u not in forced]
            if len(members) < 2:
                continue
            members.sort(key=lambda u: by_id[u].key)
            first = by_id[members[0]].interval
            kept = [members[0]] + [
                u for u in members[1:] if first.intersects(by_id[u].interval)
            ]
            if len(kept) != len(members):
                changed = True
            if len(kept) < 2:
                continue
            if any(first.covers(by_id[u].interval) for u in kept[1:]):
                forced.add(kept[0])
                changed = True
                kept = kept[1:]
                if len(kept) < 2:
                    continue
            next_edges.append(kept)
        edges = next_edges

    remaining = [v for v in instance.vertices if v.id not in forced]
    reduced = make_instance(remaining, edges)
    return reduced, frozenset(forced)


# ---------------------------------------------------------------------------
# Elementary grid and the probability matrix


def elementary_grid(instance: Instance) -> tuple[float, ...]:
    """Sorted distinct interval endpoints; consecutive pairs are the
    elementary intervals."""
    points = set()
    for v in instance.vertices:
        points.add(v.interval.lo)
        points.add(v.interval.hi)
    return tuple(sorted(points))


def probability_matrix(
    instance: Instance,
) -> dict[str, list[tuple[int, float]]]:
    """Per-vertex masses over elementary intervals.

    Returns, for each vertex, the list of (grid index i, probability that
    its weight falls in (grid[i], grid[i+1])); zero entries are omitted.
    This matrix is a sufficient input for everything downstream: which
    elementary cell each weight occupies already determines mandatoriness.
    """
    grid = elementary_grid(instance)
    rows: dict[str, list[tuple[int, float]]] = {}
    for v in instance.vertices:
        row = []
        for i in range(len(grid) - 1):
            cell = Interval(grid[i], grid[i + 1])
            if v.interval.covers(cell):
                mass = v.pmf.mass_in(cell)
                if mass > 0.0:
                    row.append((i, mass))
        rows[v.id] = row
    return rows


# ---------------------------------------------------------------------------
# Sampling


def weights_from_uniforms(
    instance: Instance, uniforms: np.ndarray, redraw: Callable[[int, int], np.random.Generator]
) -> np.ndarray:
    """The one map from uniforms to weights: rows x 2n uniforms in [0, 1)
    in, rows x n weights out, columns in ``vertex_ids`` order.  Vertex j
    takes its pmf cell from uniform 2j, the first cell whose cumulative
    mass exceeds it, and its position in the cell from uniform 2j + 1.
    Exact cell-endpoint hits, measure zero but possible in floating point,
    are redrawn from ``redraw(row, j)`` until strictly interior."""
    out = np.empty((len(uniforms), len(instance.vertices)))
    # a column at a time keeps the temporaries small
    for j, ((cum, los, his), w) in enumerate(zip(instance.pmf_table, out.T)):
        cell = np.zeros(len(uniforms), dtype=np.intp)
        for mass in cum:  # counting the masses passed beats np.searchsorted
            cell += uniforms[:, 2 * j] >= mass
        lo, hi = los[cell], his[cell]
        np.subtract(hi, lo, out=w)
        w *= uniforms[:, 2 * j + 1]
        w += lo  # lo + u (hi - lo)
        for row in np.flatnonzero(~((lo < w) & (w < hi))).tolist():  # pragma: no cover
            rng = redraw(row, j)
            while not lo[row] < w[row] < hi[row]:
                w[row] = lo[row] + rng.random() * (hi[row] - lo[row])
    return out


def sample_realization(instance: Instance, rng: np.random.Generator) -> Realization:
    """Draw an independent weight for every vertex: one row of
    :func:`weights_from_uniforms` on ``rng.random((1, 2n))``, endpoint hits
    redrawn from ``rng``.

    The same seeded generator yields the identical realization; callers
    running batches derive one stream per realization index.
    """
    uniforms = rng.random((1, 2 * len(instance.vertices)))
    row = weights_from_uniforms(instance, uniforms, lambda row, j: rng)[0]
    return Realization(dict(zip(instance.vertex_ids, row.tolist())))
