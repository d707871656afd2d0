"""Mandatory vertices, feasibility of query sets, and mandatory probabilities.

A vertex is mandatory for a realization when every feasible query set
contains it.  The characterization used throughout: v is mandatory iff
some hyperedge F containing v has either (i) v as its minimum-weight
vertex with another member's weight inside I_v, or (ii) v not minimum
while the minimum's weight lies inside I_v.
"""

from __future__ import annotations

import copy
import itertools
import math
import types
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import Instance, Realization, per_instance, weights_from_uniforms

__all__ = [
    "MandatoryProfile",
    "mandatory_set",
    "mandatory_matrix",
    "is_feasible",
    "feasible_matrix",
    "completion_matrix",
    "exact_prob_graph",
    "estimate_profile",
    "estimate_profiles",
    "hoeffding_sample_count",
]

# planning's row block: on 5-hyperedge hypergraphs, _kernel_rows blocks
# (about 2,300 rows) ran 4-13% slower and 512-row blocks about 3x as long
_PLAN_ROWS = 4096
# completion row block: each block makes one numpy call per tested column
# and one Python pass over the visits, on ints as wide as the block.  With
# completion_matrix alone on the 16-vertex gnp shape (2-core Xeon), 16,384
# rows ran 11% faster than 4,096 on 10,000 samples, one block against
# three, and 15-25% slower on 100,000; 8,192 was within noise of 4,096
_COMPLETION_ROWS = 4096


def _kernel_rows(instance: Instance) -> int:
    """Row block of :func:`mandatory_matrix` and :func:`feasible_matrix`:
    temporaries grow with sum |e| x rows, fixed costs (about 0.25 ms a
    call) with the calls.  1 << 15 member-rows, and at least 512 rows."""
    return max(512, (1 << 15) // max(1, sum(map(len, instance.hyperedges))))


@dataclass(frozen=True)
class MandatoryProfile:
    """Per-vertex probability of being mandatory."""

    probs: Mapping[str, float]
    method: str  # "exact-graph" | "sampled"
    epsilon: float = 0.0
    delta: float = 0.0
    sample_count: int = 0

    def validate(self, instance: Instance) -> None:
        if set(self.probs) != set(instance.vertex_ids):
            raise ValueError("profile keys do not match the vertex set")
        if self.method == "sampled":
            need = hoeffding_sample_count(self.epsilon, self.delta)
            if self.sample_count < need:
                raise ValueError(f"sample_count {self.sample_count} < required {need}")


def mandatory_set(instance: Instance, realization: Realization) -> frozenset[str]:
    """All vertices that every feasible query set must contain."""
    out: set[str] = set()
    weights = realization.weights
    by_id = instance.by_id
    if instance.kind == "graph":
        # For an edge {u, v}: whoever is minimum, v is mandatory iff w_u in I_v.
        for v in instance.vertices:
            iv = v.interval
            lo, hi = iv.lo, iv.hi
            for u in instance.graph_neighbors[v.id]:
                if lo < weights[u] < hi:
                    out.add(v.id)
                    break
        return frozenset(out)
    for members in instance.hyperedges:
        m = min(members, key=lambda u: (weights[u], u))
        w_min = weights[m]
        interval_m = by_id[m].interval
        for u in members:
            if u == m:
                continue
            iu = by_id[u].interval
            if iu.lo < w_min < iu.hi:
                out.add(u)
            if m not in out and interval_m.lo < weights[u] < interval_m.hi:
                out.add(m)
    return frozenset(out)


def is_feasible(
    instance: Instance, realization: Realization, query_set: frozenset[str] | set[str]
) -> bool:
    """Does querying exactly ``query_set`` orient every hyperedge?

    Per hyperedge with true minimum m: either m is queried along with
    every member whose interval contains w_m, or m stays unqueried but
    every member overlapping I_m is queried with weight at or beyond the
    right end of I_m.
    """
    weights = realization.weights
    by_id = instance.by_id
    for members in instance.hyperedges:
        m = min(members, key=lambda u: (weights[u], u))
        w_min = weights[m]
        interval_m = by_id[m].interval
        if m in query_set:
            for u in members:
                if u != m and u not in query_set:
                    iu = by_id[u].interval
                    if iu.lo < w_min < iu.hi:
                        return False
        else:
            for u in members:
                if u == m:
                    continue
                if by_id[u].interval.intersects(interval_m):
                    if u not in query_set or weights[u] < interval_m.hi:
                        return False
    return True


# ---------------------------------------------------------------------------
# Batched kernels: one row per realization, columns in ``vertex_ids`` order


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _row_bits(masks: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j for column j."""
    packed = np.packbits(np.ascontiguousarray(masks), axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[a : a + width], "little") for a in range(0, len(data), width)]


def _bit_rows(rows: Sequence[int], width: int) -> np.ndarray:
    """The inverse of :func:`_row_bits`: ints in, a len(rows) x width
    boolean matrix out, column j from bit j, in one ``np.unpackbits``."""
    size = -(-width // 8)
    data = b"".join(row.to_bytes(size, "little") for row in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), size)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


@per_instance
def _edge_groups(instance: Instance) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Hyperedges grouped by size, member-major, built once per instance.

    Per group: ``cols`` (k x E) holds each hyperedge's member columns in
    increasing order, which is id order, so the first minimum down a
    column applies the id tie-break of :func:`mandatory_set`; ``lo`` and
    ``hi`` (k x E x 1) are the members' interval ends.
    """
    column = {vid: j for j, vid in enumerate(instance.vertex_ids)}
    by_size: dict[int, list[list[int]]] = {}
    for members in instance.hyperedges:
        by_size.setdefault(len(members), []).append(sorted(column[u] for u in members))
    lo_all = np.array([v.interval.lo for v in instance.vertices])
    hi_all = np.array([v.interval.hi for v in instance.vertices])
    groups = []
    for rows in by_size.values():
        cols = np.array(rows, dtype=np.intp).T
        groups.append(_read_only(cols, lo_all[cols][..., None], hi_all[cols][..., None]))
    return tuple(groups)


def _minimum_parts(
    weights_t: np.ndarray, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, ...]:
    """For one size group and transposed weights (n x N): the member
    weights (k x E x N), a one-hot of each hyperedge's minimum, which
    other members' intervals hold the minimum weight, and the minimum's
    interval ends (E x N each)."""
    sub = weights_t[cols]
    w_min = sub.min(axis=0)
    at_min = sub == w_min
    seen = at_min[0].copy()
    for p in range(1, len(cols)):  # keep the first of tied minima
        at_min[p] &= ~seen
        seen |= at_min[p]
    # exactly one term of each sum is nonzero
    lo_m = (at_min * lo).sum(axis=0)
    hi_m = (at_min * hi).sum(axis=0)
    holds_min = (lo < w_min) & (w_min < hi) & ~at_min
    return sub, at_min, holds_min, lo_m, hi_m


def mandatory_matrix(instance: Instance, weights: np.ndarray) -> np.ndarray:
    """:func:`mandatory_set` of every row of an N x n weight matrix.

    Returns an N x n boolean matrix.  On each hyperedge the minimum is
    the argmin with the id tie-break; the other members whose interval
    holds the minimum weight are mandatory, and so is the minimum when
    some other member's weight lies inside its interval.  Size-2
    hyperedges need no separate graph rule: on an edge both orders give
    "v is mandatory iff the other weight lies in I_v".
    """
    weights_t = np.ascontiguousarray(weights.T)
    out = np.zeros(weights_t.shape, dtype=bool)
    for cols, lo, hi in _edge_groups(instance):
        sub, at_min, holds_min, lo_m, hi_m = _minimum_parts(weights_t, cols, lo, hi)
        min_hit = ((lo_m < sub) & (sub < hi_m) & ~at_min).any(axis=0)
        hits = (holds_min | (at_min & min_hit)).reshape(-1, weights_t.shape[1])
        flat = cols.ravel()
        for j in sorted(set(flat.tolist())):
            out[j] |= hits[flat == j].any(axis=0)
    return out.T


def feasible_matrix(
    instance: Instance, weights: np.ndarray, queried: np.ndarray
) -> np.ndarray:
    """:func:`is_feasible` of every row: N x n weights and query masks in,
    one boolean per realization out.

    ``queried`` may also be a stack of S query matrices on the same
    weights (S x N x n, out S x N): the hyperedge minima are found once
    for the whole stack.
    """
    weights_t = np.ascontiguousarray(weights.T)
    stack = queried.reshape(-1, *queried.shape[-2:])
    queried_t = np.ascontiguousarray(stack.transpose(2, 0, 1))  # n x S x N
    bad = np.zeros(stack.shape[:2], dtype=bool)
    for cols, lo, hi in _edge_groups(instance):
        sub, at_min, holds_min, lo_m, hi_m = _minimum_parts(weights_t, cols, lo, hi)
        q = queried_t[cols]  # k x E x S x N; the weight parts get an S axis
        min_queried = (q & at_min[:, :, None]).any(axis=0)
        # minimum queried: so is every member whose interval holds its weight
        bad |= (min_queried & (holds_min[:, :, None] & ~q).any(axis=0)).any(axis=0)
        # minimum unqueried: every member overlapping its interval is
        # queried at or beyond the interval's right end
        rivals = (np.maximum(lo, lo_m) < np.minimum(hi, hi_m)) & ~at_min
        short = (rivals[:, :, None] & (~q | (sub < hi_m)[:, :, None])).any(axis=0)
        bad |= (~min_queried & short).any(axis=0)
    return ~bad.reshape(queried.shape[:-1])


def _edge_state(
    instance: Instance, members: Sequence[str], revealed: Mapping[str, float]
) -> tuple[str, str]:
    """State of one hyperedge: ("solved", winner) or ("open", next vertex).

    The open vertex is the leftmost unqueried member whose interval could
    still hold the minimum; within the query loop of a cover-based run it
    is mandatory for every realization consistent with ``revealed``.
    """
    by_id = instance.by_id
    known: list[tuple[float, str]] = []
    unqueried: list[str] = []
    for u in members:
        w = revealed.get(u)
        if w is None:
            unqueried.append(u)
        else:
            known.append((w, u))
    if not unqueried:
        return ("solved", min(known)[1])
    if known:
        w_star, k_star = min(known)
        candidates = [u for u in unqueried if by_id[u].interval.lo < w_star]
        if not candidates:
            return ("solved", k_star)
    else:
        w_star = math.inf
        candidates = unqueried
    for x in candidates:
        rx = by_id[x].interval.hi
        if rx <= w_star and all(
            rx <= by_id[u].interval.lo for u in unqueried if u != x
        ):
            return ("solved", x)
    return ("open", min(candidates, key=lambda u: by_id[u].key))


@per_instance
def _completion_table(instance: Instance) -> tuple[tuple, tuple]:
    """The comparisons and the visits of :func:`completion_matrix`, built
    once per instance: ``(tests, visits)``.

    ``tests`` has one entry ``(x, ends)`` per tested column x, in column
    order, ``ends`` a read-only (m x 1) array: w_x is tested with w_x >=
    t against each t, which is a right end hi_l for the test w_x >= hi_l,
    or the float after a left end lo_u for the test w_x > lo_u.  Test
    number i is the i-th of these rows in entry order.

    ``visits`` has one entry ``(l, others, picks)`` per hyperedge, in
    index order: l is its leftmost column; ``others`` pairs each other
    member x, in key order, with the number of its test w_x >= hi_l;
    ``picks`` gives each other member u, in key order, its column and the
    pairs (x, number of the test w_x > lo_u) of the members x with lo_x <
    lo_u, which leaves out u."""
    by_id = instance.by_id
    column = {vid: j for j, vid in enumerate(instance.vertex_ids)}
    lo = {vid: v.interval.lo for vid, v in by_id.items()}
    above = {vid: math.nextafter(end, math.inf) for vid, end in lo.items()}
    edges, tested = [], set()
    for l, *rest in instance.hyperedges:
        others = [(column[x], by_id[l].interval.hi) for x in rest]
        # lo_u < w_x holds when lo_u <= lo_x, as lo_x < w_x
        picks = [
            (column[u], [(column[x], above[u]) for x in (l, *rest) if lo[x] < lo[u]])
            for u in rest
        ]
        edges.append((column[l], others, picks))
        tested.update(others, *(terms for _, terms in picks))
    order = sorted(tested)  # each column's tests in one run
    number = {key: i for i, key in enumerate(order)}
    tests = tuple(
        (x, *_read_only(np.array([end for _, end in run])[:, None]))
        for x, run in itertools.groupby(order, key=lambda key: key[0])
    )

    def numbered(pairs: list[tuple[int, float]]) -> tuple[tuple[int, int], ...]:
        return tuple((x, number[x, end]) for x, end in pairs)

    visits = tuple(
        (l, numbered(others), tuple((u, numbered(terms)) for u, terms in picks))
        for l, others, picks in edges
    )
    return tests, visits


def completion_matrix(
    instance: Instance, weights: np.ndarray, queried: np.ndarray, mandatory: np.ndarray
) -> np.ndarray:
    """The adaptive completion of every row of a reduced instance: N x n
    weights, the query masks it starts from and the mandatory masks
    (:func:`mandatory_matrix`) in, the final query masks out.  Every
    weight must lie strictly inside its interval, as in a
    :class:`~orientlab.model.Realization`: :func:`weights_from_uniforms`
    redraws a weight that lands on an interval end.

    ``algorithms._mandatory_completion`` visits the unsolved hyperedges in
    rounds, each in index order.  If its first round from a set S queries
    R1, the whole run queries R1 | M, M the mandatory set.  So here each
    hyperedge gets one visit, in index order on all rows, and M is OR-ed
    in.  Below, l is a hyperedge's leftmost member, m its minimum and w*
    its least revealed weight (inf when none is revealed).

    A visit is :func:`_edge_state`, which on a reduced instance, where
    every u != l has lo_l <= lo_u < hi_l < hi_u, is a two-case rule:

    - l unqueried: query l, unless every other member is queried and
      hi_l <= w*;
    - l queried: query the first unqueried member u, in key order, with
      lo_u < w*, or nothing if there is none.

    A revealed w_x has lo_l <= lo_x < w_x, so an unqueried l is the first
    candidate of :func:`_edge_state`: "open" queries l, "no candidate"
    means l is queried, "certain x" with x != l would need hi_x <= lo_l
    <= lo_x < hi_x, and "certain l" needs hi_l <= w* and hi_l <= lo_u for
    every other unqueried u, that is, no other unqueried u.  With l
    queried, w* <= w_l < hi_l, so a certain x would need hi_x <= w* <
    hi_l < hi_x: the first candidate is the pick.

    R1 covers the cover graph (edges from l to the members overlapping
    I_l): each visit leaves l queried or every other member queried, and
    queries only add.

    From a cover every pick v is mandatory (see the module docstring).
    With l unqueried, all other members are queried, v = l and, the rule
    picking l, w* < hi_l: l is m and another weight w* lies in I_l, or
    w_m = w* lies in I_l.  With l queried, lo_v < w* <= w_l < hi_l <
    hi_v: v is m and another weight w* lies in I_v, or w_m lies in I_v,
    as w_m <= w* and m is queried (w_m = w*) or a later candidate
    (lo_v <= lo_m < w_m).  The run ends on a feasible set, which holds M,
    so from R1 it adds exactly the mandatory vertices outside R1.

    Since w* is the least revealed weight, w* >= t iff every member x is
    unqueried or has w_x >= t, and w* > t likewise; with nothing revealed
    both hold, as w* = inf.  So a visit needs no w*, only the comparisons
    w_x >= hi_l for x != l (the rule tests hi_l <= w* only with l
    unqueried) and w_x > lo_u, made as w_x >= the float after lo_u
    (:func:`_completion_table`).  Two more are fixed because every weight
    lies strictly inside its interval, and neither is made: hi_l <= w_l
    never holds, and lo_u < w_x always holds when lo_u <= lo_x.  Per
    block of ``_COMPLETION_ROWS`` rows the comparisons are made first,
    one numpy call per tested column; each test and each column's query
    mask becomes an int with bit i for row i (:func:`_row_bits`), and a
    visit is a few int &, | and ^: with l queried, u is picked on the
    rows still without a pick where u is unqueried and every other x is
    unqueried or has w_x > lo_u; an unqueried l stays unqueried on the
    rows where every other x is queried with w_x >= hi_l.
    """
    tests, visits = _completion_table(instance)
    out = np.empty(weights.shape, dtype=bool)
    size = sum(len(ends) for _, ends in tests)
    for a in range(0, len(weights), _COMPLETION_ROWS):
        rows = slice(a, a + _COMPLETION_ROWS)
        weights_t = np.ascontiguousarray(weights[rows].T)
        width = weights_t.shape[1]
        held = np.empty((size, width), dtype=bool)
        t = 0
        for x, ends in tests:
            np.greater_equal(weights_t[x], ends, out=held[t : t + len(ends)])
            t += len(ends)
        bits = _row_bits(held)
        q = _row_bits(queried[rows].T)
        full = (1 << width) - 1
        for l, others, picks in visits:
            looking = q[l]  # l queried, no pick yet
            for u, terms in picks:
                pick = looking & ~q[u]
                for x, test in terms:
                    pick &= ~q[x] | bits[test]
                q[u] |= pick
                looking ^= pick
            keep = full & ~q[l]  # l unqueried and stays so
            for x, test in others:
                keep &= q[x] & bits[test]
            q[l] = full ^ keep
        np.bitwise_or(_bit_rows(q, width).T, mandatory[rows], out=out[rows])
    return out


@per_instance
def exact_prob_graph(instance: Instance) -> MandatoryProfile:
    """Exact mandatory probabilities for graphs, built once per instance
    and shared, so ``probs`` is read-only.

    For an edge {u, v} the events "w_u in I_v" are independent across
    neighbors u, so p_v = 1 - prod_u P[w_u not in I_v].  Computed exactly
    in integer ratios and rounded once, so that e.g. a single-neighbor
    vertex gets back exactly the overlap mass.  Each neighbor's
    :meth:`Pmf.mass_ratio` reads the integer ratios its pmf keeps for its
    cells, so a cell wholly inside I_v adds its mass ratio and only a cell
    that I_v cuts takes mass * overlap / width.
    """
    if instance.kind != "graph":
        raise ValueError("exact probabilities only for graphs; use a sampled estimate")
    probs: dict[str, float] = {}
    for v in instance.vertices:
        miss_n, miss_d = 1, 1
        for u in instance.graph_neighbors[v.id]:
            n, d = instance.by_id[u].pmf.mass_ratio(v.interval)
            miss_n, miss_d = miss_n * (d - n), miss_d * d
        probs[v.id] = (miss_d - miss_n) / miss_d
    return MandatoryProfile(types.MappingProxyType(probs), method="exact-graph")


def hoeffding_sample_count(epsilon: float, delta: float) -> int:
    """Samples needed so P[|estimate - p| >= epsilon] <= delta."""
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2))


def _sample_mandatory_counts(
    instance: Instance, stops: Sequence[int], rng: np.random.Generator
) -> list[np.ndarray | None]:
    """Per-vertex mandatory counts over the first k realizations of one
    draw of ``max(stops)`` realizations, for each k in ``stops``.

    Each row block is :func:`weights_from_uniforms` of
    ``rng.random((rows, 2n))`` through :func:`mandatory_matrix`; the
    blocks' draws concatenate to one ``rng.random((count, 2n))``, and
    memory does not grow with the count.  The first k rows are those of
    a draw of k realizations alone, since ``rng.random`` fills rows in
    order, unless an endpoint redraw, which takes from ``rng`` after the
    block's uniforms, falls in the first k rows of a block that k cuts
    short: that k gets None.
    """
    counts: list[np.ndarray | None] = [None] * len(stops)
    total = np.zeros(len(instance.vertices), dtype=np.int64)
    redrawn: list[int] = []

    def redraw(row: int, j: int) -> np.random.Generator:
        redrawn.append(row)
        return rng

    count = max(stops)
    for a in range(0, count, _PLAN_ROWS):
        shape = (min(_PLAN_ROWS, count - a), 2 * len(instance.vertices))
        redrawn.clear()
        # the uniforms are freed before the kernel runs
        weights = weights_from_uniforms(instance, rng.random(shape), redraw)
        mandatory = mandatory_matrix(instance, weights)
        for i, k in enumerate(stops):
            if k == a + shape[0] or (a < k < a + shape[0] and min(redrawn, default=k) >= k - a):
                counts[i] = total + mandatory[: k - a].sum(axis=0)
        total += mandatory.sum(axis=0)
    return counts


def estimate_profiles(
    instance: Instance,
    requests: Sequence[tuple[float, float]],
    rng: np.random.Generator,
) -> list[MandatoryProfile]:
    """Sampled mandatory profiles for several (epsilon, delta) requests
    from one sample.

    One draw of the largest Hoeffding count serves every request: a
    request of k realizations counts the first k rows, which are the
    rows it would draw alone from ``rng``, so each profile equals
    :func:`estimate_profile` on a generator in ``rng``'s state.  The one
    exception, an endpoint redraw inside a shorter request's last,
    partial block, is detected, and that request alone is drawn again
    from a copy of the starting state.  ``rng`` ends after the largest
    request's draw.
    """
    stops = [hoeffding_sample_count(epsilon, delta) for epsilon, delta in requests]
    start = copy.deepcopy(rng)
    counts = _sample_mandatory_counts(instance, stops, rng)
    profiles = []
    for (epsilon, delta), k, c in zip(requests, stops, counts):
        if c is None:
            (c,) = _sample_mandatory_counts(instance, [k], copy.deepcopy(start))
        probs = {vid: int(x) / k for vid, x in zip(instance.vertex_ids, c)}
        profiles.append(
            MandatoryProfile(probs, method="sampled", epsilon=epsilon, delta=delta, sample_count=k)
        )
    return profiles


def estimate_profile(
    instance: Instance,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> MandatoryProfile:
    """Sampled mandatory probabilities for all vertices: the one-request
    case of :func:`estimate_profiles`.

    One batch of realizations feeds every vertex's estimate; the
    per-vertex Hoeffding guarantee is unchanged, only the errors become
    correlated across vertices.
    """
    (profile,) = estimate_profiles(instance, [(epsilon, delta)], rng)
    return profile
