"""Mandatory vertices, feasibility of query sets, and mandatory probabilities.

A vertex is mandatory for a realization when every feasible query set
contains it.  The characterization used throughout: v is mandatory iff
some hyperedge F containing v has either (i) v as its minimum-weight
vertex with another member's weight inside I_v, or (ii) v not minimum
while the minimum's weight lies inside I_v.

The batched kernels need a reduced instance, in which every member u of
a hyperedge F other than its leftmost member l has lo_l <= lo_u < hi_l <
hi_u, and weights strictly inside their intervals.  With w_F the least
weight in F, u != l is mandatory through F iff lo_u < w_F, and l iff
some other member's weight is below hi_l; a query set orients F iff it
holds every member u with lo_u < w_F, or it leaves out l and holds every
other member, each with weight at or above hi_l (proofs at
:func:`mandatory_matrix` and :func:`feasible_matrix`).
"""

from __future__ import annotations

import copy
import math
import types
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import Instance, InstanceError, Realization, per_instance, weights_from_uniforms

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

# planning's row block, which fixes where the planning stream's endpoint
# redraws fall: on 5-hyperedge hypergraphs, blocks of about 2,300 rows ran
# 4-13% slower and 512-row blocks about 3x as long
_PLAN_ROWS = 4096


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


def _kernel_rows(instance: Instance) -> int:
    """Row block of the member tests: 4,096 rows, fewer where they (sum |e|
    x rows booleans) would pass 4 MiB.  Tests and query masks are ints as
    wide as the block; 16,384 rows ran the completion 15-25% slower."""
    return max(1, min(4096, (1 << 22) // max(1, sum(map(len, instance.hyperedges)))))


def _require_reduced(instance: Instance, name: str) -> None:
    if not instance.is_reduced():
        raise InstanceError(f"{name} requires a reduced instance")


@per_instance
def _hyperedge_table(instance: Instance) -> tuple[tuple, tuple, int]:
    """The hyperedges grouped by size, built once per instance: ``(groups,
    edges, size)``.

    Per group, ``cols`` (k x E) holds its E hyperedges' member columns in
    key order, the leftmost member l first; ``lo`` (k-1 x E x 1) the other
    members' lower ends; ``hi`` (E x 1) hi_l.  The kernels make one test
    per member, ``size`` = sum |e| tests, group after group, member-major:
    member p of hyperedge e of a group whose tests start at t is test
    t + p E + e.  ``edges`` gives each hyperedge, in index order, the
    (column, test number) of each member in key order.
    """
    column = {vid: j for j, vid in enumerate(instance.vertex_ids)}
    lo_all = np.array([v.interval.lo for v in instance.vertices])
    hi_all = np.array([v.interval.hi for v in instance.vertices])
    by_size: dict[int, list[int]] = {}
    for i, members in enumerate(instance.hyperedges):
        by_size.setdefault(len(members), []).append(i)
    groups, edges, size = [], {}, 0
    for indices in by_size.values():
        rows = [[column[u] for u in instance.hyperedges[i]] for i in indices]
        cols = np.array(rows, dtype=np.intp).T
        groups.append(_read_only(cols, lo_all[cols[1:]][..., None], hi_all[cols[0]][:, None]))
        for e, (i, members) in enumerate(zip(indices, rows)):
            edges[i] = tuple((x, size + p * len(indices) + e) for p, x in enumerate(members))
        size += cols.size
    return tuple(groups), tuple(edges[i] for i in range(len(edges))), size


def _member_tests(instance: Instance, weights: np.ndarray) -> list[int]:
    """The tests of :func:`_hyperedge_table` on the rows of ``weights``,
    each an int with bit i for row i: for a hyperedge's leftmost member l,
    "some other member's weight is below hi_l"; for every other member u,
    "lo_u < w_F", w_F the hyperedge's least weight.  Per size group one
    gather, one minimum and k comparisons, 2^14 member-rows at a time: a
    2,000-row gather (1.3 MiB, 16-vertex gnp) cost a fresh process about
    300 page faults (0.3-0.4 ms) a call."""
    groups, _, size = _hyperedge_table(instance)
    held = np.empty((size, len(weights)), dtype=bool)
    step = max(1, (1 << 14) // max(1, size))
    for a in range(0, len(weights), step):
        weights_t = np.ascontiguousarray(weights[a : a + step].T)
        width = weights_t.shape[1]
        t = 0
        for cols, lo, hi in groups:
            k, e = cols.shape
            sub = weights_t[cols]
            rest = sub[1] if k == 2 else sub[1:].min(axis=0)
            np.less(rest, hi, out=held[t : t + e, a : a + step])
            # on an edge, lo_u < w_F iff lo_u < w_l, as w_u > lo_u
            least = sub[0] if k == 2 else np.minimum(sub[0], rest, out=rest)
            np.less(lo, least, out=held[t + e : t + k * e, a : a + step].reshape(k - 1, e, width))
            t += k * e
    return _row_bits(held)


def _block_tests(instance: Instance, weights: np.ndarray) -> list[list[int]]:
    """:func:`_member_tests` of each :func:`_kernel_rows` block of rows."""
    step = _kernel_rows(instance)
    return [_member_tests(instance, weights[a : a + step]) for a in range(0, len(weights), step)]


def _mandatory_bits(instance: Instance, tests: Sequence[list[int]]) -> list[int]:
    """:func:`mandatory_matrix` from :func:`_block_tests`, one int per column (bit i for row i)."""
    _, edges, _ = _hyperedge_table(instance)
    bits = [0] * len(instance.vertices)
    step = _kernel_rows(instance)
    for b, block in enumerate(tests):
        for members in edges:
            for x, t in members:
                bits[x] |= block[t] << b * step
    return bits


def mandatory_matrix(instance: Instance, weights: np.ndarray) -> np.ndarray:
    """:func:`mandatory_set` of every row of an N x n weight matrix, out
    as an N x n boolean matrix.  The instance must be reduced and every
    weight must lie strictly inside its interval, as in a
    :class:`~orientlab.model.Realization`.

    In a reduced hyperedge F, l its leftmost member, every other member u
    has lo_l <= lo_u < hi_l < hi_u.  Let w_F be F's least weight and m its
    minimum.  Then u != l is mandatory through F iff lo_u < w_F, and l iff
    some other member's weight is below hi_l.  Proof, from the module
    docstring's rule: for u != l, w_F <= w_l < hi_l < hi_u, so "w_m in
    I_u" reads lo_u < w_F; and u = m != l is mandatory, as w_l lies in
    [w_m, hi_l), inside I_m, while lo_m < w_m = w_F.  For l = m, "another
    weight w_u in I_l" reads w_u < hi_l, as w_u > lo_u >= lo_l; for l != m,
    w_m lies in (lo_m, w_l] within I_l, and w_m < hi_l.
    """
    _require_reduced(instance, "mandatory_matrix")
    return _bit_rows(_mandatory_bits(instance, _block_tests(instance, weights)), len(weights)).T


def feasible_matrix(
    instance: Instance, weights: np.ndarray, queried: np.ndarray
) -> np.ndarray:
    """:func:`is_feasible` of every row: N x n weights and query masks in,
    one boolean per realization out.  ``queried`` may also be a stack of
    S query matrices on the same weights (S x N x n, out S x N): the
    tests are made once for the whole stack.  The precondition is that of
    :func:`mandatory_matrix`.

    With l, w_F and m as there, a query set Q orients F iff every member
    u with lo_u < w_F is in Q (l among them, as lo_l <= lo_m < w_F), or l
    is not in Q and every other member is, each with weight >= hi_l.
    Proof, from :func:`is_feasible`: with m in Q, an unqueried u != m
    needs w_m outside I_u, and w_m < hi_u for u != l while lo_l < w_m <
    hi_l, so every unqueried member has lo_u >= w_F, and m itself has
    lo_m < w_F.  With m not in Q, every member overlapping I_m must be
    queried with weight >= hi_m; l overlaps I_m and w_l < hi_l < hi_m if
    m != l, so m = l, and every other member overlaps I_l.  Weights all
    at or above hi_l > w_l make l the minimum.  Neither case depends on
    which of tied minima is m.  Per block and query set this is an int
    &, | per member on :func:`_member_tests`: the first case needs q_u or
    not lo_u < w_F for each u != l, the second q_u for each u != l and
    not the test of l.
    """
    _require_reduced(instance, "feasible_matrix")
    _, edges, _ = _hyperedge_table(instance)
    stack = queried.reshape(-1, *queried.shape[-2:])
    out = np.empty(stack.shape[:2], dtype=bool)
    step = _kernel_rows(instance)
    for a in range(0, len(weights), step):
        block = stack[:, a : a + step]
        width = block.shape[1]
        misses = [~t for t in _member_tests(instance, weights[a : a + step])]
        masks = _row_bits(block.transpose(0, 2, 1).reshape(-1, width))
        oriented = []
        for s in range(0, len(masks), stack.shape[2]):
            q = masks[s : s + stack.shape[2]]
            ok = (1 << width) - 1
            for (l, t), *rest in edges:
                first, second = q[l], ~q[l] & misses[t]
                for x, t in rest:
                    first &= q[x] | misses[t]
                    second &= q[x]
                ok &= first | second
            oriented.append(ok)
        out[:, a : a + step] = _bit_rows(oriented, width)
    return out.reshape(queried.shape[:-1])


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


def completion_matrix(
    instance: Instance, tests: Sequence[list[int]], queried: np.ndarray, mandatory: np.ndarray
) -> np.ndarray:
    """The adaptive completion of every row of a reduced instance: the
    :func:`_block_tests` of N rows of weights as :func:`mandatory_matrix`
    takes them (the paired batch's, made once), the start query masks and
    the mandatory masks in, the final query masks out.

    ``algorithms._mandatory_completion`` visits the unsolved hyperedges in
    rounds, each in index order.  If its first round from a set S queries
    R1, the whole run queries R1 | M, M the mandatory set.  So here each
    hyperedge gets one visit, in index order on all rows, and M is OR-ed
    in.  Below, l is a hyperedge's leftmost member, m its minimum, w_F its
    least weight and w* its least revealed weight (inf when none is
    revealed).

    A visit is :func:`_edge_state`, which on a reduced instance, where
    every u != l has lo_l <= lo_u < hi_l < hi_u, is a two-case rule:

    - l unqueried: query l, unless every other member is queried and
      hi_l <= w*;
    - l queried: query u*, the first unqueried member in key order, if
      lo_u* < w_F, and nothing otherwise.

    A revealed w_x has lo_l <= lo_x < w_x, so an unqueried l is the first
    candidate of :func:`_edge_state`: "open" queries l, "no candidate"
    means l is queried, "certain x" with x != l would need hi_x <= lo_l
    <= lo_x < hi_x, and "certain l" needs hi_l <= w* and hi_l <= lo_u for
    every other unqueried u, that is, no other unqueried u.  With l
    queried, w* <= w_l < hi_l, so a certain x would need hi_x <= w* <
    hi_l < hi_x: the first candidate, if any, is the pick.  A candidate
    after u* has lo_u >= lo_u*, so there is one iff lo_u* < w*; and that
    is lo_u* < w_F, as every member before u* is revealed and every
    member x from u* on has w_x > lo_x >= lo_u*.

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

    So a visit needs only :func:`_member_tests`: with every other member
    queried, hi_l <= w* iff l's test fails, and lo_u < w_F is u's test.
    Per block, with each test and query mask an int (bit i for row i), u
    is picked where l and every member before u are queried and u's test
    holds; an unqueried l stays so where every other member is queried
    and l's test fails.
    """
    _require_reduced(instance, "completion_matrix")
    _, edges, _ = _hyperedge_table(instance)
    out = np.empty(queried.shape, dtype=bool)
    step = _kernel_rows(instance)
    for a, block in zip(range(0, len(queried), step), tests):
        rows = slice(a, a + step)
        q = _row_bits(queried[rows].T)
        width = len(queried[rows])
        full = (1 << width) - 1
        for (l, t), *rest in edges:
            looking = q[l]  # l and every member so far queried
            keep = full & ~(q[l] | block[t])  # l unqueried and stays so
            for x, t in rest:
                looking, q[x] = looking & q[x], q[x] | looking & block[t]
                keep &= q[x]
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
    ``rng.random((rows, 2n))`` through :func:`_mandatory_bits`, whose
    per-vertex row bits are counted with ``int.bit_count``; the blocks'
    draws concatenate to one ``rng.random((count, 2n))``, and memory does
    not grow with the count.  The first k rows are those of a draw of k
    realizations alone, since ``rng.random`` fills rows in order, unless
    an endpoint redraw, which takes from ``rng`` after the block's
    uniforms, falls in the first k rows of a block that k cuts short:
    that k gets None.
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
        bits = _mandatory_bits(instance, _block_tests(instance, weights))
        for i, k in enumerate(stops):
            if k == a + shape[0] or (a < k < a + shape[0] and min(redrawn, default=k) >= k - a):
                head = (1 << (k - a)) - 1
                counts[i] = total + [(b & head).bit_count() for b in bits]
        total += [b.bit_count() for b in bits]
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
    _require_reduced(instance, "estimate_profiles")
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
