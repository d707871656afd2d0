"""The query algorithms under test, plus the offline optimum oracle.

All algorithms are cover-based two-stage procedures: a realization-
independent first stage queries a vertex cover of the cover graph, and
an adaptive second stage queries only vertices that the revealed
weights certify as unavoidable.  Each run produces a transcript, paired
with the offline optimum for the same realization when given an oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .mandatory import (
    MandatoryProfile,
    _edge_state,
    exact_prob_graph,
    is_feasible,
    mandatory_set,
)
from .model import Instance, QueryStep, QueryTranscript, Realization
from .vcover import (
    Cover,
    CoverGraph,
    build_cover_graph,
    lp_half_integral,
    vc_bipartite_exact,
    vc_exact_small,
    vc_few_hyperedges,
    vc_local_ratio_2approx,
)

__all__ = [
    "ThresholdConfig",
    "RunOutcome",
    "optimal_d",
    "guaranteed_ratio",
    "hyper_ratio",
    "hyper_threshold",
    "OfflineOracle",
    "run_adversarial_baseline",
    "run_fixed_cover",
    "run_leaves_first",
    "resolve_vc_solver",
]


# ---------------------------------------------------------------------------
# Parameters


def optimal_d(alpha: float) -> float:
    """Threshold that balances both branches of the guarantee."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha {alpha} outside [1, 2]")
    return 2.0 / (alpha + math.sqrt(8.0 - alpha * (4.0 - alpha)))


def guaranteed_ratio(alpha: float, d: float | None = None) -> float:
    """max(1/d, alpha + (2 - alpha) d); at the optimal d both branches meet."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha {alpha} outside [1, 2]")
    if d is None:
        d = optimal_d(alpha)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"d {d} outside (0, 1]")
    return max(1.0 / d, alpha + (2.0 - alpha) * d)


def hyper_ratio(alpha: float, epsilon: float) -> float:
    """Guarantee of the sampled hypergraph variant (holds w.p. 1 - delta)."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha {alpha} outside [1, 2]")
    return 0.5 * (
        alpha
        + math.sqrt(
            alpha**2
            + 4.0 * (2.0 - alpha) * (1.0 + alpha * epsilon + (2.0 - alpha) * epsilon**2)
        )
        + (4.0 - 2.0 * alpha) * epsilon
    )


def hyper_threshold(alpha: float, epsilon: float) -> float:
    return 1.0 / hyper_ratio(alpha, epsilon) + epsilon


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold algorithm parameters.

    ``d`` of None means the optimal value for the declared ``alpha``, or
    with ``epsilon`` set (the error of sampled probabilities) that of the
    sampled hypergraph variant.  ``vc_strategy`` selects the black box
    used on the half-valued part of the LP solution.
    """

    alpha: float = 1.0
    d: float | None = None
    vc_strategy: str = "exact-small"
    epsilon: float | None = None

    def threshold(self) -> float:
        if self.d is not None:
            return self.d
        if self.epsilon is None:
            return optimal_d(self.alpha)
        return hyper_threshold(self.alpha, self.epsilon)

    def validate(self) -> None:
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha {self.alpha} outside [1, 2]")
        if self.d is not None and not 0.0 <= self.d <= 1.0:
            raise ValueError(f"d {self.d} outside [0, 1]")


@dataclass
class RunOutcome:
    """A run's transcript and the optimal cost of the same realization
    (NaN when the run was given no oracle)."""

    transcript: QueryTranscript
    opt_cost: float


# ---------------------------------------------------------------------------
# Offline optimum


class OfflineOracle:
    """Optimal query cost per realization, memoized per mandatory set.

    The optimum is the mandatory set M plus a minimum-weight cover of the
    cover graph induced on the non-mandatory vertices.  The oracle keeps
    the cover graph as neighbour bitmasks, bit j for ``vertex_ids[j]``
    (Python ints, so any vertex count), splits G - M into components by
    a bit BFS, and solves each component once with :func:`vc_exact_small`
    (its size bound, message and tie-break), memoized in a dict the
    oracle owns.  Components come in the order of their least vertex id,
    which is the order in which :func:`vc_exact_small` on all of G - M
    meets them, so the bound trips on the same component.
    """

    def __init__(self, instance: Instance, vc_bound: int = 24, check: bool = True):
        self.instance = instance
        self.vc_bound = vc_bound
        self.check = check
        self.cover_graph = build_cover_graph(instance)
        column = {v: j for j, v in enumerate(instance.vertex_ids)}
        self._bit = {v: 1 << j for v, j in column.items()}
        self._all = (1 << len(column)) - 1
        self._neighbors = [0] * len(column)  # column -> neighbour bits
        for a, b in self.cover_graph.edges:
            self._neighbors[column[a]] |= self._bit[b]
            self._neighbors[column[b]] |= self._bit[a]
        self._memo: dict[int, tuple[frozenset[str], float]] = {}  # M -> optimum
        self._covers: dict[int, int] = {}  # component -> its cover

    def solve(self, mandatory: frozenset[str]) -> tuple[frozenset[str], float]:
        """Optimal query set and its cost for any realization whose
        mandatory set is ``mandatory``."""
        return self.solve_bits(sum(self._bit[v] for v in mandatory))

    def solve_bits(self, mandatory: int) -> tuple[frozenset[str], float]:
        """:meth:`solve` for the mandatory set whose bit j marks
        ``vertex_ids[j]``."""
        hit = self._memo.get(mandatory)
        if hit is None:
            members = mandatory
            for comp in self._components(self._all & ~mandatory):
                # a lone vertex needs no cover; only a bound below 1 rejects it
                if comp & (comp - 1) or self.vc_bound < 1:
                    members |= self._cover(comp)
            names = frozenset(self._names(members))
            hit = (names, math.fsum(self.instance.costs[v] for v in names))
            self._memo[mandatory] = hit
        return hit

    def _names(self, bits: int) -> list[str]:
        return [v for v, bit in self._bit.items() if bits & bit]

    def _components(self, rest: int) -> Iterator[int]:
        """The components of the cover graph induced on ``rest``, by
        least vertex."""
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= self._neighbors[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & rest & ~comp
                comp |= frontier
            yield comp
            rest &= ~comp

    def _cover(self, comp: int) -> int:
        hit = self._covers.get(comp)
        if hit is None:
            sub = self.cover_graph.induced(self._names(comp))
            cover = vc_exact_small(sub, self.vc_bound)
            hit = self._covers[comp] = sum(self._bit[v] for v in cover.members)
        return hit

    def opt(self, realization: Realization) -> tuple[frozenset[str], float]:
        members, cost = self.solve(mandatory_set(self.instance, realization))
        if self.check and not is_feasible(self.instance, realization, members):
            raise AssertionError("offline optimum is not feasible")
        return members, cost


# ---------------------------------------------------------------------------
# Shared run plumbing


class _Recorder:
    def __init__(self, instance: Instance, realization: Realization):
        self.instance = instance
        self.realization = realization
        self.steps: list[QueryStep] = []
        self.revealed: dict[str, float] = {}

    def query(self, vid: str, stage: str) -> None:
        if vid in self.revealed:
            raise AssertionError(f"{vid} queried twice")
        w = self.realization[vid]
        self.revealed[vid] = w
        self.steps.append(QueryStep(vid, w, stage))

    def finish(self, oracle: OfflineOracle | None) -> RunOutcome:
        instance = self.instance
        if not is_feasible(instance, self.realization, self.revealed.keys()):
            raise AssertionError("algorithm stopped on an infeasible query set")
        total = math.fsum(instance.costs[step.vertex] for step in self.steps)
        transcript = QueryTranscript(tuple(self.steps), total)
        opt_cost = math.nan
        if oracle is not None:
            opt_cost = oracle.opt(self.realization)[1]
        return RunOutcome(transcript, opt_cost)


def _mandatory_completion(rec: _Recorder) -> None:
    """Adaptive stage: round-robin over unsolved hyperedges, each advancing
    its certified-mandatory vertex until every hyperedge is oriented."""
    instance = rec.instance
    pending = deque(range(len(instance.hyperedges)))
    while pending:
        idx = pending.popleft()
        members = instance.hyperedges[idx]
        status, vid = _edge_state(instance, members, rec.revealed)
        if status == "solved":
            continue
        rec.query(vid, "stage2")
        pending.append(idx)


# ---------------------------------------------------------------------------
# Black-box cover solver selection


def resolve_vc_solver(
    strategy: str,
    instance: Instance,
    weights: Mapping[str, float],
) -> Callable[[CoverGraph], Cover]:
    """Resolve a strategy name to a solver on induced cover graphs."""
    if strategy == "exact-small":
        return vc_exact_small
    if strategy == "local-ratio":
        return vc_local_ratio_2approx
    if strategy == "bipartite":
        return vc_bipartite_exact
    if strategy == "few-hyperedges":
        return lambda sub: vc_few_hyperedges(instance, weights, subset=sub.vertices)
    raise ValueError(f"unknown vertex cover strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Threshold algorithm


@dataclass
class ThresholdPlan:
    """Realization-independent first stage of the threshold algorithm."""

    config: ThresholdConfig
    profile: MandatoryProfile
    high_prob: frozenset[str]
    ones: frozenset[str]
    halves_cover: frozenset[str]
    stage1: tuple[str, ...]


def plan_threshold(
    instance: Instance,
    config: ThresholdConfig,
    profile: MandatoryProfile | None = None,
) -> ThresholdPlan:
    """Build the first-stage query set: high-probability vertices, the
    LP ones, and a black-box cover of the half-valued subgraph.

    ``profile`` holds the mandatory probabilities, by default the
    graph's :func:`exact_prob_graph`; the caller passes a sampled one.
    """
    config.validate()
    if profile is None:
        profile = exact_prob_graph(instance)
    d = config.threshold()
    high = frozenset(v for v, p in profile.probs.items() if p >= d)
    cover_graph = build_cover_graph(instance)
    rest = [v for v in instance.vertex_ids if v not in high]
    lp = lp_half_integral(cover_graph.induced(rest))
    solver = resolve_vc_solver(config.vc_strategy, instance, instance.costs)
    cover = solver(cover_graph.induced(lp.halves))
    stage1 = tuple(sorted(high | lp.ones | cover.members))
    return ThresholdPlan(config, profile, high, lp.ones, cover.members, stage1)


# ---------------------------------------------------------------------------
# Cover-first algorithms


def plan_best_vc(
    instance: Instance,
    vc_strategy: str = "exact-small",
    profile: MandatoryProfile | None = None,
) -> tuple[MandatoryProfile, Cover]:
    """Choose the stage-1 cover minimizing sum (1 - p_v) c_v.

    Any cover pays its full cost up front but only mandatory vertices
    elsewhere, so this weighting makes the expected total minimal among
    cover-first strategies; the solver must be exact.  ``profile`` holds
    the mandatory probabilities, by default :func:`exact_prob_graph`.
    """
    if vc_strategy == "local-ratio":
        raise ValueError("the cover-first algorithm needs an exact cover solver")
    if profile is None:
        profile = exact_prob_graph(instance)
    weights = {
        v.id: (1.0 - profile.probs[v.id]) * v.cost for v in instance.vertices
    }
    cover_graph = build_cover_graph(instance, weights)
    solver = resolve_vc_solver(vc_strategy, instance, weights)
    return profile, solver(cover_graph)


def run_fixed_cover(
    instance: Instance,
    cover_members: Sequence[str] | frozenset[str],
    realization: Realization,
    oracle: OfflineOracle | None = None,
) -> RunOutcome:
    """Query a given set, then complete adaptively.

    When the set covers the cover graph the completion queries exactly
    the mandatory vertices outside it.
    """
    rec = _Recorder(instance, realization)
    for vid in sorted(cover_members):
        rec.query(vid, "stage1")
    _mandatory_completion(rec)
    return rec.finish(oracle)


def run_adversarial_baseline(
    instance: Instance,
    realization: Realization,
    oracle: OfflineOracle | None = None,
) -> RunOutcome:
    """Left-endpoint-order querying without distributional information.

    Round-robins over unsolved hyperedges, always advancing to the
    leftmost vertex that could still be the minimum; the classical
    2-competitive control: the adaptive completion with an empty stage 1.
    """
    return run_fixed_cover(instance, (), realization, oracle)


def run_leaves_first(
    instance: Instance,
    realization: Realization,
    oracle: OfflineOracle | None = None,
) -> RunOutcome:
    """Single-hyperedge policy that defers the leftmost vertex.

    Queries the non-leftmost members in left-endpoint order until the
    hyperedge is solved or the leftmost vertex becomes certified
    mandatory; then finishes with the adaptive completion.
    """
    if len(instance.hyperedges) != 1:
        raise ValueError("leaves-first policy is defined for a single hyperedge")
    members = instance.hyperedges[0]
    leftmost = members[0]
    rec = _Recorder(instance, realization)
    for vid in members[1:]:
        status, _ = _edge_state(instance, members, rec.revealed)
        if status == "solved":
            break
        w_known = [rec.revealed[u] for u in members if u in rec.revealed]
        if w_known and instance.interval(leftmost).contains(min(w_known)):
            break  # leftmost is now mandatory
        rec.query(vid, "stage1")
    _mandatory_completion(rec)
    return rec.finish(oracle)
