"""The staged candidate-pipeline engine behind every query mode.

The paper's query algorithm is a fixed cascade — structural similarity
filtering (Theorem 1), PMI probabilistic pruning (Theorems 3 & 4), exact
verification (Section 5) — and earlier revisions hard-wired that cascade
inside ``QueryPlanner.query()``.  This module turns the cascade into data:

* a :class:`CandidateSet` — a numpy boolean membership mask over the
  planner's graph slice plus per-graph ``usim``/``lsim`` bound columns —
  threaded through
* an ordered list of :class:`PipelineStage` objects
  (:class:`StructuralFilterStage`, :class:`PmiPruningStage`,
  :class:`VerificationStage`), each with a vectorized
  ``run(candidates, ctx, stage_stats)`` and per-stage
  :class:`~repro.core.results.StageStatistics`, driven by
* a :class:`QueryPipeline` built once per planner, with all per-query state
  in a :class:`PipelineContext`.

Two query modes share the stages through a :class:`ThresholdState`:

* **threshold (T-PS)** — the probability floor is the fixed query ``ε``;
  stage behaviour (and answers) are identical to the pre-pipeline planner.
* **top_k** — the floor starts at the k-th largest PMI lower bound among
  the surviving candidates (at least k graphs have SSP above it, so nothing
  provably below can rank) and *tightens* as verified answers fill a
  k-sized heap; candidates are visited in descending ``usim`` order so later
  candidates prune against the running k-th-best probability.

**One top-k loop, two estimate sources.**  :func:`replay_top_k` is the only
walk of the top-k visit order — ``(-usim, graph_id)`` under the seeded,
tightening floor — and it asks an *estimator* for each candidate it reaches
above the floor.  A top-k query over the whole database (one shard) runs it
inside the verification stage, over the PMI stage's ``(graph id, usim,
lsim)`` table, with an estimator that verifies the candidate there and then:
the floor skips exactly the candidates it can.  A shard of several cannot see
the global floor, so it runs *partial*: its verification stage verifies every
candidate above its shard-local seed in blocks, like a threshold query, and
ships a :class:`TopKPartial` — its examined ``(graph id, usim, lsim)`` table
and those estimates.  :func:`merge_top_k_partials` runs the same loop over
the concatenated tables with the shipped estimates as its estimator: same
global seed (the lsim multiset is the same), same visit order, same
tightening.  Because every estimate derives from ``(root, VERIFY_STREAM,
global graph id)`` (:func:`repro.utils.rng.derive_seed`), a graph's estimate
is identical no matter which process verified it or in which block, and the
shard-local seed is never above the global seed (a k-th largest over a subset
cannot exceed the superset's), so every estimate the merge asks for was
shipped.  Merged answers are therefore byte-identical to one shard's for any
shard count and any worker count, for stochastic and exact verification
alike.
"""

from __future__ import annotations

import heapq
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.pruning import VACUOUS_BOUNDS
from repro.core.results import (
    QueryAnswer,
    QueryResult,
    QueryStatistics,
    StageStatistics,
)
from repro.utils.rng import PRUNE_STREAM, VERIFY_STREAM, derive_seed
from repro.utils.timer import Timer
from repro.exceptions import ConfigurationError, StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.planner import QueryPlan, QueryPlanner

# PRUNE_STREAM / VERIFY_STREAM (re-exported from repro.utils.rng): every
# stochastic sub-task draws from derive_seed(root, STAGE, stable_graph_id),
# passed as the seed and made a generator only where something draws, where
# the stable id is the planner's global id for the graph (its row position in
# a static database, its external id in a mutable catalog).  The streams a
# graph consumes therefore depend only on (root, stage, stable id) — never on
# how many other candidates ran before it, which shard owns it, or how the
# database was mutated around it.  That is what lets sharded executors and
# mutated catalogs reproduce a from-scratch sequential run bit-for-bit.

THRESHOLD_MODE = "threshold"
TOP_K_MODE = "top_k"

# candidates per verify_block() call in threshold mode; block composition
# never changes an estimate (each graph keeps its own stream), only how the
# work is chunked
VERIFY_BLOCK_SIZE = 64


class CandidateSet:
    """The explicit candidate state threaded through the pipeline stages.

    ``mask[i]`` is True while local graph ``i`` is still in play; ``usim`` /
    ``lsim`` carry the per-graph SSP bound columns once the PMI stage has
    filled them (``1.0`` / ``0.0`` — the vacuous bounds — before that, and
    for graphs whose bounds were never computed).  A catalog planner starts
    the mask at its live (non-tombstoned) rows instead of all-True, which is
    the only difference a mutated database makes to the stages — counters
    and answers then match a from-scratch build over the live rows exactly.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.mask = np.ones(size, dtype=bool)
        self.usim = np.ones(size, dtype=np.float64)
        self.lsim = np.zeros(size, dtype=np.float64)

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def active_ids(self) -> np.ndarray:
        """Active local graph ids, ascending."""
        return np.flatnonzero(self.mask)

    def deactivate(self, ids) -> None:
        self.mask[ids] = False

    def record_bounds(self, ids, usim, lsim) -> None:
        """Fill the bound columns for ``ids`` (index-aligned arrays)."""
        self.usim[ids] = usim
        self.lsim[ids] = lsim


@dataclass
class ThresholdState:
    """The mutable probability floor the stages prune against.

    In threshold mode the floor is the query's fixed ``ε``.  In top-k mode
    it starts at 0, is seeded with the k-th largest PMI lower bound
    (:meth:`seed_floor`), and rises to the running k-th best verified
    probability as :meth:`offer` fills the heap.  Only :func:`replay_top_k`
    offers; a pipeline's own top-k state is seeded and never offered to, so a
    shard part's floor stays at its local seed (see the module docstring).
    """

    mode: str = THRESHOLD_MODE
    floor: float = 0.0
    k: int | None = None
    _heap: list = field(default_factory=list, repr=False)

    @classmethod
    def fixed(cls, probability_threshold: float) -> "ThresholdState":
        """The threshold-mode state: a floor that never moves."""
        return cls(mode=THRESHOLD_MODE, floor=probability_threshold)

    @classmethod
    def for_top_k(cls, k: int) -> "ThresholdState":
        return cls(mode=TOP_K_MODE, floor=0.0, k=k)

    @property
    def is_top_k(self) -> bool:
        return self.mode == TOP_K_MODE

    def admits(self, upper_bound: float) -> bool:
        """Can a graph with this SSP upper bound still enter the answer set?"""
        return upper_bound >= self.floor

    def seed_floor(self, lower_bounds) -> None:
        """Tighten to the k-th largest lower bound (top-k mode only).

        At least ``k`` graphs have SSP at or above their own lower bound, so
        any graph whose *upper* bound is strictly below the k-th largest
        lower bound is provably outside the top k.
        """
        if self.k is None:
            return
        values = np.asarray(lower_bounds, dtype=np.float64)
        if values.size < self.k:
            return
        kth = float(np.partition(values, -self.k)[-self.k])
        if kth > self.floor:
            self.floor = kth

    def offer(self, answer: QueryAnswer) -> bool:
        """Record a verified answer; True when it (currently) ranks top-k.

        The heap is keyed by ``(probability, -graph_id)`` so its minimum is
        the answer the full ordering ``(-probability, graph_id)`` ranks
        worst: ties at the k-th place resolve to the smaller graph id,
        exactly as the final sort does.  Zero-probability graphs are never
        answers.
        """
        if self.k is None:
            raise StateError("offer() is only meaningful in top-k mode")
        if answer.probability <= 0.0:
            return False
        entry = (answer.probability, -answer.graph_id, answer)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            if len(self._heap) == self.k:
                self._tighten_to_kth_best()
            return True
        if entry[:2] <= self._heap[0][:2]:
            return False
        heapq.heapreplace(self._heap, entry)
        self._tighten_to_kth_best()
        return True

    def _tighten_to_kth_best(self) -> None:
        if self._heap[0][0] > self.floor:
            self.floor = self._heap[0][0]

    def ranked(self) -> list[QueryAnswer]:
        """Heap contents in final answer order: ``(-probability, graph_id)``."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        ]


@dataclass
class TopKPartial:
    """One shard's contribution to a cross-shard top-k merge.

    ``candidate_ids``/``usim``/``lsim`` cover every candidate the shard's
    PMI stage examined (global ids); ``estimates`` holds the verified SSP of
    every candidate at or above the shard-local seed floor — a superset of
    what the one-shard loop verifies, which is what lets
    :func:`merge_top_k_partials` run that loop exactly.
    """

    candidate_ids: np.ndarray
    usim: np.ndarray
    lsim: np.ndarray
    estimates: dict[int, float]
    names: dict[int, str | None]
    statistics: QueryStatistics


@dataclass
class PipelineContext:
    """Everything one query execution threads through the stages."""

    plan: "QueryPlan"
    root: int
    state: ThresholdState
    result: QueryResult
    partial: TopKPartial | None = None

    @property
    def gather_partial(self) -> bool:
        return self.partial is not None


class PipelineStage:
    """One composable step of the candidate pipeline.

    ``run`` narrows (never widens) the candidate set, may append answers to
    ``ctx.result``, and records its pruned/accepted/passed counts on the
    provided :class:`StageStatistics` (``examined`` and ``seconds`` are
    filled in by the driving :class:`QueryPipeline`).
    """

    name = "stage"

    def run(
        self, candidates: CandidateSet, ctx: PipelineContext, stage_stats: StageStatistics
    ) -> None:
        raise NotImplementedError


class StructuralFilterStage(PipelineStage):
    """Stage 1 (Theorem 1): discard graphs whose skeleton cannot match."""

    name = "structural_filter"

    def __init__(self, planner: "QueryPlanner") -> None:
        self.planner = planner

    def run(self, candidates, ctx, stage_stats):
        keep = self.planner.structural_filter.filter_mask(
            ctx.plan.query,
            ctx.plan.distance_threshold,
            active=candidates.mask,
            profile=ctx.plan.profile,
        )
        candidates.mask &= keep
        passed = candidates.active_count
        ctx.result.statistics.structural_candidates = passed
        stage_stats.pruned = stage_stats.examined - passed
        stage_stats.passed = passed


class PmiPruningStage(PipelineStage):
    """Stage 2 (Theorems 3 & 4): SSP bounds from the PMI's SIP intervals.

    Threshold mode applies Pruning 1 (``usim < ε`` ⇒ discard) and Pruning 2
    (``lsim ≥ ε`` ⇒ answer without verification).  Top-k mode records the
    bound columns, seeds the floor with the k-th largest ``lsim``, and
    discards candidates whose ``usim`` falls below that seed.
    """

    name = "pmi_pruning"

    def __init__(self, planner: "QueryPlanner") -> None:
        self.planner = planner

    def run(self, candidates, ctx, stage_stats):
        plan = ctx.plan
        active = candidates.active_ids()
        planner = self.planner
        pruner = planner._pruner_for(plan)
        if plan.containment:
            bounds_list = [
                pruner.compute_bounds_from_row(
                    plan.relaxed_queries,
                    row,
                    plan.containment,
                    rng=derive_seed(
                        ctx.root, PRUNE_STREAM, int(planner.global_ids[row.graph_id])
                    ),
                )
                for row in planner.pmi.rows(active)
            ]
        else:
            # no feature bounds anything: what the loop returns, without a draw
            bounds_list = [VACUOUS_BOUNDS] * len(active)
        candidates.record_bounds(
            active,
            np.array([bounds.usim for bounds in bounds_list], dtype=np.float64),
            np.array([bounds.lsim for bounds in bounds_list], dtype=np.float64),
        )
        self._record_partial(candidates, ctx, active)
        if ctx.state.is_top_k:
            self._run_top_k(candidates, ctx, active, stage_stats)
        else:
            self._run_threshold(candidates, ctx, active, bounds_list, pruner, stage_stats)

    # ------------------------------------------------------------------
    # mode-specific decisions
    # ------------------------------------------------------------------
    def _run_threshold(self, candidates, ctx, active, bounds_list, pruner, stage_stats):
        stats = ctx.result.statistics
        planner = self.planner
        pruned_mask, accepted_mask = pruner.decide_batch(bounds_list, ctx.state.floor)
        for index in np.flatnonzero(accepted_mask):
            graph_id = int(active[index])
            ctx.result.answers.append(
                QueryAnswer(
                    graph_id=int(planner.global_ids[graph_id]),
                    graph_name=planner.graphs[graph_id].name,
                    probability=bounds_list[index].lsim,
                    decided_by="lower_bound",
                )
            )
        candidates.deactivate(active[pruned_mask | accepted_mask])
        stats.pruned_by_upper_bound = int(pruned_mask.sum())
        stats.accepted_by_lower_bound = int(accepted_mask.sum())
        stats.probabilistic_candidates = len(active) - stats.pruned_by_upper_bound
        stage_stats.pruned = stats.pruned_by_upper_bound
        stage_stats.accepted = stats.accepted_by_lower_bound
        stage_stats.passed = candidates.active_count

    def _run_top_k(self, candidates, ctx, active, stage_stats):
        stats = ctx.result.statistics
        ctx.state.seed_floor(candidates.lsim[active])
        below_seed = candidates.usim[active] < ctx.state.floor
        candidates.deactivate(active[below_seed])
        stats.pruned_by_upper_bound = int(below_seed.sum())
        stats.probabilistic_candidates = len(active) - stats.pruned_by_upper_bound
        stage_stats.pruned = stats.pruned_by_upper_bound
        stage_stats.passed = candidates.active_count

    def _record_partial(self, candidates, ctx, active) -> None:
        """Ship the examined (id, usim, lsim) table for the cross-shard replay."""
        if not ctx.gather_partial:
            return
        partial = ctx.partial
        partial.candidate_ids = self.planner.global_ids[active]
        partial.usim = candidates.usim[active].copy()
        partial.lsim = candidates.lsim[active].copy()


class VerificationStage(PipelineStage):
    """Stage 3 (Section 5): compute the SSP of the surviving candidates.

    A threshold query, and a top-k shard part (which ships an estimate for
    every survivor), verifies candidate *blocks*: survivors are chunked in id
    order and each block goes through one :meth:`~repro.core.verification.
    Verifier.verify_block` call, where the batch kernel draws and evaluates
    every candidate's whole sample matrix at once.  Block composition never
    changes an estimate — each candidate's draws come from its own
    ``derive_seed(root, VERIFY_STREAM, global id)`` stream — so a sharded run
    (different blocks) reproduces the one-shard answers byte-for-byte.

    A whole top-k query hands the survivors to :func:`replay_top_k`, which
    verifies a candidate (the block of one) only when its descending-``usim``
    walk reaches it above the tightening floor; the candidates it passes over
    are the stage's ``pruned``.
    """

    name = "verification"

    def __init__(self, planner: "QueryPlanner") -> None:
        self.planner = planner

    def run(self, candidates, ctx, stage_stats):
        verifier = self.planner._verifier_for(ctx.plan)
        sampled_before = verifier.sampled
        if ctx.state.is_top_k and not ctx.gather_partial:
            self._rank(candidates, ctx, verifier, stage_stats)
        else:
            self._verify_blocks(candidates, ctx, verifier, stage_stats)
        ctx.result.statistics.sampled += verifier.sampled - sampled_before

    def _verify_blocks(self, candidates, ctx, verifier, stage_stats):
        plan = ctx.plan
        stats = ctx.result.statistics
        planner = self.planner
        active = candidates.active_ids()
        answers = 0
        for start in range(0, len(active), VERIFY_BLOCK_SIZE):
            block = [int(local_id) for local_id in active[start : start + VERIFY_BLOCK_SIZE]]
            global_ids = [int(planner.global_ids[local_id]) for local_id in block]
            stats.verified += len(block)
            probabilities = verifier.verify_block(
                plan.query,
                [planner.graphs[local_id] for local_id in block],
                plan.distance_threshold,
                relaxed_queries=plan.relaxed_queries,
                rngs=[
                    derive_seed(ctx.root, VERIFY_STREAM, global_id)
                    for global_id in global_ids
                ],
                family=plan.family,
            )
            for local_id, global_id, probability in zip(
                block, global_ids, probabilities
            ):
                if ctx.gather_partial:
                    ctx.partial.estimates[global_id] = probability
                    ctx.partial.names[global_id] = planner.graphs[local_id].name
                    continue
                if probability >= ctx.state.floor:
                    ctx.result.answers.append(
                        QueryAnswer(
                            graph_id=global_id,
                            graph_name=planner.graphs[local_id].name,
                            probability=probability,
                            decided_by="verification",
                        )
                    )
                    answers += 1
        stage_stats.accepted = answers
        stage_stats.passed = answers

    def _rank(self, candidates, ctx, verifier, stage_stats):
        plan = ctx.plan
        planner = self.planner
        active = candidates.active_ids()
        global_ids = planner.global_ids[active]
        local_of = dict(zip(global_ids.tolist(), active.tolist()))

        def verify(graph_id: int) -> QueryAnswer:
            graph = planner.graphs[local_of[graph_id]]
            probability = verifier.subgraph_similarity_probability(
                plan.query,
                graph,
                plan.distance_threshold,
                relaxed_queries=plan.relaxed_queries,
                rng=derive_seed(ctx.root, VERIFY_STREAM, graph_id),
                family=plan.family,
            )
            return QueryAnswer(graph_id, graph.name, probability, "verification")

        answers, verified = replay_top_k(
            global_ids, candidates.usim[active], candidates.lsim[active], verify, plan.k
        )
        ctx.result.answers.extend(answers)
        ctx.result.statistics.verified += verified
        stage_stats.pruned = len(active) - verified
        stage_stats.accepted = len(answers)
        stage_stats.passed = len(answers)


class QueryPipeline:
    """Drives an ordered stage list over one query's candidate set.

    ``run`` is deterministic given ``(ctx.root, ctx.plan, the live graphs)``:
    wall-clock fields aside, two executions produce byte-identical answers
    and counters, independent of process, shard layout, or storage row
    placement (all per-graph work keys on stable global ids).
    """

    def __init__(self, stages: list[PipelineStage]) -> None:
        if not stages:
            raise ConfigurationError("a query pipeline needs at least one stage")
        self.stages = list(stages)

    def run(self, candidates: CandidateSet, ctx: PipelineContext) -> QueryResult:
        result = ctx.result
        stats = result.statistics
        # the *live* candidate universe: equals candidates.size for a static
        # planner (mask starts all-True), and the non-tombstoned count for a
        # catalog planner — which is what a from-scratch rebuild would report
        stats.database_size = candidates.active_count
        stats.relaxed_query_count = len(ctx.plan.relaxed_queries)
        total_timer = Timer()
        with total_timer:
            for stage in self.stages:
                stage_stats = StageStatistics(
                    stage=stage.name, examined=candidates.active_count
                )
                timer = Timer()
                with timer:
                    stage.run(candidates, ctx, stage_stats)
                stage_stats.seconds = timer.elapsed
                stats.stages.append(stage_stats)
            result.answers.sort(key=lambda a: (-a.probability, a.graph_id))
        stats.total_seconds = total_timer.elapsed
        stats.answers = len(result.answers)
        return result


def build_default_pipeline(planner: "QueryPlanner") -> QueryPipeline:
    """The paper's three-stage cascade over one planner's graph slice.

    The stages reach the planner that owns them through a weak proxy: no
    reference cycle, so a dropped planner frees its graphs and index views
    at once — a pool worker can unmap a retired shard-plane generation
    without waiting for the cyclic collector.
    """
    owner = weakref.proxy(planner)
    return QueryPipeline(
        [
            StructuralFilterStage(owner),
            PmiPruningStage(owner),
            VerificationStage(owner),
        ]
    )


# ----------------------------------------------------------------------
# the top-k loop and the cross-shard merge
# ----------------------------------------------------------------------
def replay_top_k(
    candidate_ids: np.ndarray,
    usim: np.ndarray,
    lsim: np.ndarray,
    estimate: Callable[[int], QueryAnswer],
    k: int,
) -> tuple[list[QueryAnswer], int]:
    """The top-k loop: walk the candidates by ``(-usim, graph_id)`` under the
    floor seeded from ``lsim`` and tightened by every answer the heap keeps,
    asking ``estimate(graph_id)`` for each candidate reached above the floor.

    Returns ``(answers, verified)``: the ranked answers and how many
    candidates the loop asked for.  ``estimate`` verifies there and then (a
    whole query's verification stage) or reads a shipped value (the
    cross-shard merge, whose shards verified more).
    """
    state = ThresholdState.for_top_k(k)
    state.seed_floor(lsim)
    above_seed = usim >= state.floor
    ids = candidate_ids[above_seed]
    upper = usim[above_seed]
    verified = 0
    for index in np.lexsort((ids, -upper)):
        if not state.admits(float(upper[index])):
            continue
        verified += 1
        state.offer(estimate(int(ids[index])))
    return state.ranked(), verified


def merge_top_k_partials(parts: list[TopKPartial], k: int) -> QueryResult:
    """Combine per-shard partials of one top-k query into the final result.

    Answers come from :func:`replay_top_k` over the concatenated candidate
    tables and the shipped estimates — provably one shard's answer list
    (module docstring) — while the statistics merge the shards' *actual*
    work via :meth:`QueryStatistics.merge` (shard floors are laxer than the
    global one, so the summed ``verified`` counter legitimately exceeds one
    shard's).
    """
    if not parts:
        raise ConfigurationError("cannot merge an empty list of top-k partials")
    candidate_ids = np.concatenate([part.candidate_ids for part in parts])
    usim = np.concatenate([part.usim for part in parts])
    lsim = np.concatenate([part.lsim for part in parts])
    estimates: dict[int, float] = {}
    names: dict[int, str | None] = {}
    for part in parts:
        estimates.update(part.estimates)
        names.update(part.names)

    def shipped(graph_id: int) -> QueryAnswer:
        try:
            probability = estimates[graph_id]
        except KeyError:  # pragma: no cover - violates the shipped-superset invariant
            raise ConfigurationError(
                f"top-k merge is missing the verified estimate of graph {graph_id}; "
                "shard partials must cover every candidate at or above their "
                "local seed floor"
            ) from None
        return QueryAnswer(graph_id, names.get(graph_id), probability, "verification")

    answers, _ = replay_top_k(candidate_ids, usim, lsim, shipped, k)
    result = QueryResult(answers=answers)
    result.statistics = QueryStatistics.merge(part.statistics for part in parts)
    result.statistics.answers = len(answers)
    return result
