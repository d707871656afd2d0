"""The query algorithms under test, plus the offline optimum oracle.

All algorithms are cover-based two-stage procedures: a realization-
independent first stage queries a vertex cover of the cover graph, and
an adaptive second stage queries only vertices that the revealed
weights certify as unavoidable.  Each run produces a transcript; the
offline optimum of the same realization comes from :class:`OfflineOracle`.
:func:`plan` fixes the first stage of an :class:`AlgorithmSpec`, from
the mandatory profile it plans from, before any weight is revealed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .mandatory import (
    MandatoryProfile,
    _edge_state,
    estimate_profiles,
    exact_prob_graph,
    hoeffding_sample_count,
    is_feasible,
    mandatory_set,
)
from .model import Instance, QueryStep, QueryTranscript, Realization
from .vcover import (
    FEW_HYPEREDGES,
    Cover,
    CoverGraph,
    _bit_components,
    _bit_indices,
    _min_cover_bits,
    bipartition,
    build_cover_graph,
    lp_half_integral,
    vc_bipartite_exact,
    vc_exact_small,
    vc_few_hyperedges,
    vc_local_ratio_2approx,
)

__all__ = [
    "AlgorithmSpec",
    "Policy",
    "plan",
    "profiles",
    "ThresholdConfig",
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


def _check_alpha(alpha: float) -> None:
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha {alpha} outside [1, 2]")


def optimal_d(alpha: float) -> float:
    """Threshold that balances both branches of the guarantee."""
    _check_alpha(alpha)
    return 2.0 / (alpha + math.sqrt(8.0 - alpha * (4.0 - alpha)))


def guaranteed_ratio(alpha: float, d: float | None = None) -> float:
    """max(1/d, alpha + (2 - alpha) d); at the optimal d both branches meet."""
    _check_alpha(alpha)
    if d is None:
        d = optimal_d(alpha)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"d {d} outside (0, 1]")
    return max(1.0 / d, alpha + (2.0 - alpha) * d)


def hyper_ratio(alpha: float, epsilon: float) -> float:
    """Guarantee of the sampled hypergraph variant (holds w.p. 1 - delta)."""
    _check_alpha(alpha)
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
        _check_alpha(self.alpha)
        if self.d is not None and not 0.0 <= self.d <= 1.0:
            raise ValueError(f"d {self.d} outside [0, 1]")


# ---------------------------------------------------------------------------
# Offline optimum


class OfflineOracle:
    """Optimal query cost per realization, memoized per mandatory set.

    The optimum is the mandatory set M plus a minimum-weight cover of the
    cover graph induced on the non-mandatory vertices.  The oracle runs
    the exact engine of :func:`vc_exact_small` on the bit view of the
    instance's cover graph (:attr:`CoverGraph.masks`, bit j for
    ``vertex_ids[j]``): it splits G - M into components by a bit BFS, in
    order of their least vertex, and solves and checks each component
    once (the same size bound, message and tie-break), memoized in a
    dict the oracle owns.  So the bound trips on the same component as
    :func:`vc_exact_small` on all of G - M.

    Each pattern's optimum is kept as a bitmask (:meth:`optimum_bits`),
    which the paired batch unpacks into its optimal query masks and
    costs; :meth:`solve` and :meth:`opt`, the scalar reference, turn it
    into names and a cost on each call.
    """

    def __init__(self, instance: Instance, vc_bound: int = 24):
        self.instance = instance
        self.vc_bound = vc_bound
        self.cover_graph = build_cover_graph(instance)
        self._weights = [w for _, w in self.cover_graph.weight_items]
        self._all = (1 << len(self._weights)) - 1
        self._optima: dict[int, int] = {}  # M -> optimum, as bits
        self._covers: dict[int, int] = {}  # component -> its cover

    def solve(self, mandatory: frozenset[str]) -> tuple[frozenset[str], float]:
        """Optimal query set and its cost for any realization whose
        mandatory set is ``mandatory``."""
        ids = self.cover_graph.vertices
        bits = self.optimum_bits(sum(1 << j for j, v in enumerate(ids) if v in mandatory))
        names = frozenset(ids[j] for j in _bit_indices(bits))
        return names, math.fsum(self.instance.costs[v] for v in names)

    def optimum_bits(self, mandatory: int) -> int:
        """The optimal query set for the mandatory set ``mandatory``, as
        bits like the mandatory set: bit j marks ``vertex_ids[j]``."""
        hit = self._optima.get(mandatory)
        if hit is None:
            hit = mandatory
            for comp in _bit_components(self.cover_graph.masks, self._all & ~mandatory):
                hit |= self._cover(comp)
            self._optima[mandatory] = hit
        return hit

    def _cover(self, comp: int) -> int:
        hit = self._covers.get(comp)
        if hit is None:
            masks = self.cover_graph.masks
            hit = _min_cover_bits(masks, self._weights, comp, self.vc_bound)
            out = comp & ~hit
            if any(masks[j] & out for j in _bit_indices(out)):
                raise AssertionError("component cover leaves an edge uncovered")
            self._covers[comp] = hit
        return hit

    def opt(self, realization: Realization) -> tuple[frozenset[str], float]:
        members, cost = self.solve(mandatory_set(self.instance, realization))
        if not is_feasible(self.instance, realization, members):
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

    def finish(self) -> QueryTranscript:
        instance = self.instance
        if not is_feasible(instance, self.realization, self.revealed.keys()):
            raise AssertionError("algorithm stopped on an infeasible query set")
        total = math.fsum(instance.costs[step.vertex] for step in self.steps)
        return QueryTranscript(tuple(self.steps), total)


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
) -> QueryTranscript:
    """Query a given set, then complete adaptively.

    When the set covers the cover graph the completion queries exactly
    the mandatory vertices outside it.
    """
    rec = _Recorder(instance, realization)
    for vid in sorted(cover_members):
        rec.query(vid, "stage1")
    _mandatory_completion(rec)
    return rec.finish()


def run_adversarial_baseline(
    instance: Instance,
    realization: Realization,
) -> QueryTranscript:
    """Left-endpoint-order querying without distributional information.

    Round-robins over unsolved hyperedges, always advancing to the
    leftmost vertex that could still be the minimum; the classical
    2-competitive control: the adaptive completion with an empty stage 1.
    """
    return run_fixed_cover(instance, (), realization)


def run_leaves_first(
    instance: Instance,
    realization: Realization,
) -> QueryTranscript:
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
    return rec.finish()


# ---------------------------------------------------------------------------
# Planning: what an algorithm decides before any weight is revealed

_PLAN_TAG = 0xFFFF0001  # keys the planning stream: default_rng([master_seed, _PLAN_TAG])


@dataclass(frozen=True)
class AlgorithmSpec:
    """Description of one algorithm run configuration, which :func:`plan`
    turns into a :class:`Policy` on a given instance.  Each kind reads
    only the fields it uses; the black-box cover solver is not a field
    but follows from ``alpha`` and the instance (:func:`_auto_strategy`)."""

    kind: str
    alpha: float = 1.0
    d: float | None = None
    epsilon: float = 0.05
    delta: float = 0.1
    cover: tuple[str, ...] | None = None

    @property
    def algorithm_id(self) -> str:
        if self.kind == "threshold":
            d = "auto" if self.d is None else f"{self.d:g}"
            return f"threshold(alpha={self.alpha:g};d={d})"
        if self.kind == "threshold-hyper":
            return (
                f"threshold-hyper(alpha={self.alpha:g};eps={self.epsilon:g};"
                f"delta={self.delta:g})"
            )
        if self.kind == "fixed-cover":
            return f"fixed-cover({'+'.join(self.cover or ())})"
        return self.kind

    def config(self, vc_strategy: str = "exact-small") -> ThresholdConfig:
        """The threshold parameters of a threshold or threshold-hyper spec."""
        epsilon = self.epsilon if self.kind == "threshold-hyper" else None
        return ThresholdConfig(self.alpha, self.d, vc_strategy, epsilon)

    def threshold_used(self) -> float | None:
        if not self.kind.startswith("threshold"):
            return None
        return self.config().threshold()


@dataclass(frozen=True)
class Policy:
    """A planned algorithm: what it decides before any weight is revealed.

    ``stage1`` is queried first and the adaptive completion finishes the
    run; leaves-first follows its own stage-1 rule.  When stage 1 covers
    the cover graph the completion queries exactly the mandatory vertices
    outside it, so a run queries ``stage1`` plus the mandatory set M(r)
    and is scored from M alone.  ``adaptive`` marks the policies whose
    query sets depend on more than M(r): the batched completion gives
    them.
    """

    spec: AlgorithmSpec
    stage1: tuple[str, ...]
    adaptive: bool


def _auto_strategy(spec: AlgorithmSpec, instance: Instance) -> str:
    """The black-box cover solver a threshold or bestvc spec plans with:
    the local-ratio 2-approximation for a threshold spec declaring alpha
    >= 2, the bipartite min-cut for bestvc on a bipartite graph,
    per-hyperedge enumeration on a hypergraph with at most
    FEW_HYPEREDGES hyperedges, and the exact branch and bound otherwise."""
    if spec.kind.startswith("threshold") and spec.alpha >= 2.0:
        return "local-ratio"
    if spec.kind == "bestvc" and instance.kind == "graph" and bipartition(build_cover_graph(instance)):
        return "bipartite"
    if instance.kind == "hypergraph" and len(instance.hyperedges) <= FEW_HYPEREDGES:
        return "few-hyperedges"
    return "exact-small"


def _sample_request(spec: AlgorithmSpec, instance: Instance) -> tuple[float, float] | None:
    """The (epsilon, delta) of the sampled profile a spec plans from, or
    None when it plans from the exact one.  The profile is sampled for
    threshold-hyper on any instance, each vertex's estimate failing with
    probability delta_v so that all hold together with probability
    1 - delta, and for bestvc on hypergraphs.  Raises ValueError for an
    epsilon or delta outside (0, 1)."""
    if spec.kind == "threshold-hyper":
        if not 0.0 < spec.delta < 1.0:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        delta = 1.0 - (1.0 - spec.delta) ** (1.0 / max(1, len(instance.vertices)))
    elif spec.kind == "bestvc" and instance.kind != "graph":
        delta = spec.delta
    else:
        return None
    hoeffding_sample_count(spec.epsilon, delta)  # checks both
    return spec.epsilon, delta


def profiles(
    specs: Sequence[AlgorithmSpec], instance: Instance, master_seed: int
) -> list[MandatoryProfile | None]:
    """The sampled mandatory profiles of several specs, from one sample.

    The specs that sample share one draw from the planning stream
    ``[master_seed, _PLAN_TAG]`` (:func:`estimate_profiles`), the one
    place where a planning sample is drawn, and each gets the profile it
    would sample alone; the other specs get None and plan from the exact
    profile, which :func:`exact_prob_graph` builds once per instance.  The requests stop at the first spec whose epsilon
    or delta is invalid: it and the specs after it get None, so planning
    it raises after the specs before it are planned, as when each spec
    sampled its own.
    """
    out: list[MandatoryProfile | None] = [None] * len(specs)
    requests: dict[int, tuple[float, float]] = {}
    for i, spec in enumerate(specs):
        try:
            request = _sample_request(spec, instance)
        except ValueError:
            break
        if request is not None:
            requests[i] = request
    if requests:
        rng = np.random.default_rng([master_seed, _PLAN_TAG])
        for i, profile in zip(requests, estimate_profiles(instance, list(requests.values()), rng)):
            out[i] = profile
    return out


def plan(
    spec: AlgorithmSpec,
    instance: Instance,
    master_seed: int,
    profile: MandatoryProfile | None = None,
) -> Policy:
    """Resolve a spec into its policy, once per evaluation.

    Everything realization-independent (probabilities, LP, stage-1 cover)
    happens here, deterministically from the master seed.  ``profile`` is
    the spec's profile from :func:`profiles`; a spec that samples and is
    given none takes ``profiles([spec], instance, master_seed)[0]``, and
    the others plan from the exact profile.  Raises ValueError for an
    epsilon or delta outside (0, 1).
    """
    if _sample_request(spec, instance) is not None and profile is None:
        (profile,) = profiles([spec], instance, master_seed)
    if spec.kind in ("threshold", "threshold-hyper"):
        config = spec.config(_auto_strategy(spec, instance))
        stage1 = plan_threshold(instance, config, profile).stage1
    elif spec.kind == "bestvc":
        _, cover = plan_best_vc(instance, _auto_strategy(spec, instance), profile)
        stage1 = tuple(sorted(cover.members))
    elif spec.kind == "fixed-cover":
        stage1 = tuple(sorted(spec.cover or ()))
        unknown = set(stage1) - set(instance.vertex_ids)
        if unknown:
            raise ValueError(f"fixed cover names unknown vertices {sorted(unknown)}")
    elif spec.kind == "baseline":
        stage1 = ()
    elif spec.kind == "offline-opt":
        return Policy(spec, (), adaptive=False)
    elif spec.kind == "leaves-first":
        if len(instance.hyperedges) != 1:
            raise ValueError("leaves-first policy is defined for a single hyperedge")
        return Policy(spec, (), adaptive=True)
    else:
        raise ValueError(f"unknown algorithm kind {spec.kind!r}")
    chosen = set(stage1)
    covers = all(a in chosen or b in chosen for a, b in build_cover_graph(instance).edges)
    return Policy(spec, stage1, adaptive=not covers)
