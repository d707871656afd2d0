"""Mandatory vertices, feasibility of query sets, and mandatory probabilities.

A vertex is mandatory for a realization when every feasible query set
contains it.  The characterization used throughout: v is mandatory iff
some hyperedge F containing v has either (i) v as its minimum-weight
vertex with another member's weight inside I_v, or (ii) v not minimum
while the minimum's weight lies inside I_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import Instance, Realization, weights_from_uniforms

__all__ = [
    "MandatoryProfile",
    "mandatory_set",
    "mandatory_matrix",
    "is_feasible",
    "feasible_matrix",
    "completion_matrix",
    "exact_prob_graph",
    "estimate_prob",
    "estimate_profile",
    "hoeffding_sample_count",
]

# planning's row block: on 5-hyperedge hypergraphs, _kernel_rows blocks
# (about 2,300 rows) ran 4-13% slower and 512-row blocks about 3x as long
_PLAN_ROWS = 4096


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


def _edge_groups(instance: Instance) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Hyperedges grouped by size, member-major.

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
        groups.append((cols, lo_all[cols][..., None], hi_all[cols][..., None]))
    return groups


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


def _hyperedge_columns(
    instance: Instance,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per hyperedge, in index order: its member columns in key order and
    the members' interval ends ``lo`` and ``hi`` (k x 1 each)."""
    column = {vid: j for j, vid in enumerate(instance.vertex_ids)}
    lo_all = np.array([v.interval.lo for v in instance.vertices])
    hi_all = np.array([v.interval.hi for v in instance.vertices])
    edges = []
    for members in instance.hyperedges:
        cols = np.array([column[u] for u in members], dtype=np.intp)
        edges.append((cols, lo_all[cols][:, None], hi_all[cols][:, None]))
    return edges


def _edge_step(
    w: np.ndarray, q: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_edge_state` of one hyperedge on R rows at once.

    ``w`` and ``q`` (k x R, member-major) are the members' weights and
    query flags, members in key order; ``lo`` and ``hi`` (k x 1) their
    interval ends.  Returns the minimum revealed weight w* of each row
    (inf when nothing is revealed) and the member to query next, -1
    where the hyperedge is solved.  The candidates are the unqueried
    members with lo < w*; the hyperedge is solved when there is none, or
    when some candidate x has hi_x <= w* and hi_x <= lo_u for every other
    unqueried u; otherwise the next query is the first candidate in key
    order.  The running minima and the first candidate come from loops
    over the k members on rows of length R: an argmin or argmax along the
    member axis is strided and slow.
    """
    w_star = np.where(q, w, np.inf).min(axis=0)
    free_lo = np.where(q, np.inf, lo)  # lo of the unqueried members
    candidate = free_lo < w_star
    # lowest lo among the other unqueried members: the lower of the running
    # minima before and after each member
    other_lo = np.empty_like(free_lo)
    after = np.full(q.shape[1], np.inf)
    pick = np.full(q.shape[1], -1, dtype=np.intp)
    for p in reversed(range(len(q))):
        other_lo[p] = after
        after = np.minimum(after, free_lo[p])
        pick[candidate[p]] = p  # the last write is the first candidate
    before = np.full(q.shape[1], np.inf)
    for p in range(len(q)):
        np.minimum(other_lo[p], before, out=other_lo[p])
        before = np.minimum(before, free_lo[p])
    certain = candidate & (hi <= w_star) & (hi <= other_lo)
    pick[certain.any(axis=0)] = -1
    return w_star, pick


def completion_matrix(
    instance: Instance, weights: np.ndarray, queried: np.ndarray, mandatory: np.ndarray
) -> np.ndarray:
    """The adaptive completion of every row of a reduced instance: N x n
    weights, the query masks it starts from and the mandatory masks
    (:func:`mandatory_matrix`) in, the final query masks out.

    ``algorithms._mandatory_completion`` visits the unsolved hyperedges in
    rounds, each in index order.  If its first round from a set S queries
    R1, the whole run queries R1 | M, M the mandatory set.  So here each
    hyperedge gets one :func:`_edge_step` visit, in index order on all
    rows, and M is OR-ed in.  Below, l is a hyperedge's leftmost member,
    m its minimum and w* its least revealed weight.

    R1 covers the cover graph (edges from l to the members overlapping
    I_l): each visit leaves l queried or no other unqueried member
    overlapping I_l, and queries only add.  A revealed w_x has
    lo_l <= lo_x < w_x, so an unqueried l is the first candidate: "open"
    queries l, "no candidate" means l is queried, "certain x" with x != l
    would need hi_x <= lo_l <= lo_x < hi_x, and "certain l" means no
    other unqueried member overlaps I_l.

    From a cover every pick v is mandatory (see the module docstring),
    since on a reduced instance every u != l has lo_l <= lo_u < hi_l < hi_u.
    With l unqueried, all other members are queried, v = l and, l not
    being certain, w* < hi_l: l is m and another weight w* lies in I_l,
    or w_m = w* lies in I_l.  With l queried, lo_v < w* <= w_l < hi_l <
    hi_v: v is m and another weight w* lies in I_v, or w_m lies in I_v,
    as w_m <= w* and m is queried (w_m = w*) or a later candidate
    (lo_v <= lo_m < w_m).  The run ends on a feasible set, which holds M,
    so from R1 it adds exactly the mandatory vertices outside R1.
    """
    weights_t = np.ascontiguousarray(weights.T)
    out_t = np.array(queried.T, dtype=bool, order="C")
    for cols, lo, hi in _hyperedge_columns(instance):
        _, pick = _edge_step(weights_t[cols], out_t[cols], lo, hi)
        for p, j in enumerate(cols.tolist()):
            out_t[j] |= pick == p
    return out_t.T | mandatory


def exact_prob_graph(instance: Instance) -> MandatoryProfile:
    """Exact mandatory probabilities for graphs.

    For an edge {u, v} the events "w_u in I_v" are independent across
    neighbors u, so p_v = 1 - prod_u P[w_u not in I_v].  Computed exactly
    in integer ratios and rounded once, so that e.g. a single-neighbor
    vertex gets back exactly the overlap mass.
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
    return MandatoryProfile(probs, method="exact-graph")


def hoeffding_sample_count(epsilon: float, delta: float) -> int:
    """Samples needed so P[|estimate - p| >= epsilon] <= delta."""
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2))


def _sample_mandatory_counts(instance: Instance, count: int, rng: np.random.Generator) -> np.ndarray:
    """Per-vertex mandatory counts over ``count`` realizations.

    Each row block is :func:`weights_from_uniforms` of
    ``rng.random((rows, 2n))`` through :func:`mandatory_matrix`; the
    blocks' draws concatenate to one ``rng.random((count, 2n))``, and
    memory does not grow with ``count``.
    """
    counts = np.zeros(len(instance.vertices), dtype=np.int64)
    for a in range(0, count, _PLAN_ROWS):
        shape = (min(_PLAN_ROWS, count - a), 2 * len(instance.vertices))
        # the uniforms are freed before the kernel runs
        weights = weights_from_uniforms(instance, rng.random(shape), lambda row, j: rng)
        counts += mandatory_matrix(instance, weights).sum(axis=0)
    return counts


def estimate_prob(
    instance: Instance,
    vid: str,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> float:
    """Estimate the mandatory probability of one vertex by sampling.

    Draws ceil(ln(2/delta) / (2 epsilon^2)) realizations and returns the
    mandatory fraction; the Hoeffding bound gives
    P[|estimate - p| >= epsilon] <= delta.
    """
    k = hoeffding_sample_count(epsilon, delta)
    column = instance.vertex_ids.index(vid)
    return int(_sample_mandatory_counts(instance, k, rng)[column]) / k


def estimate_profile(
    instance: Instance,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> MandatoryProfile:
    """Sampled mandatory probabilities for all vertices.

    One batch of realizations feeds every vertex's estimate; the
    per-vertex Hoeffding guarantee is unchanged, only the errors become
    correlated across vertices.
    """
    k = hoeffding_sample_count(epsilon, delta)
    counts = _sample_mandatory_counts(instance, k, rng)
    probs = {vid: int(c) / k for vid, c in zip(instance.vertex_ids, counts)}
    return MandatoryProfile(
        probs, method="sampled", epsilon=epsilon, delta=delta, sample_count=k
    )
