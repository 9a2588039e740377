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

**One top-k loop.**  :func:`replay_top_k` is the only walk of the top-k
visit order — ``(-usim, graph_id)`` under a floor seeded once from the
candidates' ``lsim`` and tightened by every answer the heap keeps — and it
asks an *estimator* for each candidate it reaches above the floor.  The PMI
stage of a top-k plan records the bound columns and decides nothing, so the
walk sees every structural candidate of the database: :func:`rank_top_k` runs
it over the planner's ``(graph id, usim, lsim)`` table with an estimator
that verifies the candidate there and then, in the parent.  Because every
estimate derives from ``(root, VERIFY_STREAM, global graph id)``
(:func:`repro.utils.rng.derive_seed`), answers and counters are the same for
any worker count, for stochastic and exact verification alike.

**Verification is the only work that moves.**  :meth:`QueryPipeline.filter`
runs every stage before verification; a threshold plan's survivors are then
the storage rows :func:`verify_rows` estimates, in blocks, wherever they are
placed (:class:`~repro.core.sharding.ShardedPlanner` deals them to pool
slots), and :func:`finish_threshold` records the estimates as the
verification stage would have.
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
# how many other candidates ran before it, which process verifies it, or how
# the database was mutated around it.  That is what lets a pool and a
# mutated catalog reproduce a from-scratch sequential run bit-for-bit.

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
    seeds and offers; a pipeline's own top-k state only says the plan ranks.
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
class PipelineContext:
    """Everything one query execution threads through the stages."""

    plan: "QueryPlan"
    root: int
    state: ThresholdState
    result: QueryResult


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
    bound columns and decides nothing: the floor is seeded once, over every
    candidate, by :func:`rank_top_k`, which also books the candidates below
    that seed as this stage's ``pruned``.
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
        stats = ctx.result.statistics
        if ctx.state.is_top_k:
            stats.probabilistic_candidates = len(active)
            stage_stats.passed = len(active)
            return
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


class VerificationStage(PipelineStage):
    """Stage 3 (Section 5): compute the SSP of the surviving candidates.

    A threshold query verifies candidate *blocks* (:func:`verify_rows`):
    survivors are chunked in row order and each block goes through one
    :meth:`~repro.core.verification.Verifier.verify_block` call, where the
    batch kernel draws and evaluates every candidate's whole sample matrix at
    once.  Block composition never changes an estimate — each candidate's
    draws come from its own ``derive_seed(root, VERIFY_STREAM, global id)``
    stream — so verifying a block of survivors in a pool worker reproduces the
    in-process answers byte-for-byte.

    A top-k query hands the candidates to :func:`rank_top_k`, which verifies
    a candidate (the block of one) only when its descending-``usim`` walk
    reaches it above the tightening floor; the candidates it passes over are
    the stage's ``pruned``.
    """

    name = "verification"

    def __init__(self, planner: "QueryPlanner") -> None:
        self.planner = planner

    def run(self, candidates, ctx, stage_stats):
        part = FilteredPlan.of(self.planner, ctx, candidates)
        if ctx.state.is_top_k:
            ctx.result.answers.extend(rank_top_k(part, ctx.result.statistics, stage_stats))
        else:
            probabilities, sampled, _ = part.verify()  # the stage loop times it
            record_verified(part, probabilities, sampled, stage_stats)


class QueryPipeline:
    """Drives an ordered stage list over one query's candidate set.

    The last stage is the verification stage: :meth:`filter` runs every
    stage before it, and :meth:`run` all of them.  ``run`` is deterministic
    given ``(ctx.root, ctx.plan, the live graphs)``: wall-clock fields aside,
    two executions produce byte-identical answers and counters, independent
    of process or storage row placement (all per-graph work keys on stable
    global ids).
    """

    def __init__(self, stages: list[PipelineStage]) -> None:
        if not stages:
            raise ConfigurationError("a query pipeline needs at least one stage")
        self.stages = list(stages)

    def filter(self, candidates: CandidateSet, ctx: PipelineContext) -> None:
        """Every stage before verification, in order."""
        stats = ctx.result.statistics
        # the *live* candidate universe: equals candidates.size for a static
        # planner (mask starts all-True), and the non-tombstoned count for a
        # catalog planner — which is what a from-scratch rebuild would report
        stats.database_size = candidates.active_count
        stats.relaxed_query_count = len(ctx.plan.relaxed_queries)
        for stage in self.stages[:-1]:
            self._run_stage(stage, candidates, ctx)

    def run(self, candidates: CandidateSet, ctx: PipelineContext) -> QueryResult:
        self.filter(candidates, ctx)
        self._run_stage(self.stages[-1], candidates, ctx)
        return close_result(ctx.result)

    @staticmethod
    def _run_stage(stage: PipelineStage, candidates: CandidateSet, ctx: PipelineContext) -> None:
        stage_stats = StageStatistics(stage=stage.name, examined=candidates.active_count)
        timer = Timer()
        with timer:
            stage.run(candidates, ctx, stage_stats)
        stage_stats.seconds = timer.elapsed
        ctx.result.statistics.stages.append(stage_stats)


def close_result(result: QueryResult) -> QueryResult:
    """Answers in final order, ``answers`` counted, the stage times totalled."""
    result.answers.sort(key=lambda a: (-a.probability, a.graph_id))
    stats = result.statistics
    stats.answers = len(result.answers)
    stats.total_seconds = sum(stage.seconds for stage in stats.stages)
    return result


def build_default_pipeline(planner: "QueryPlanner") -> QueryPipeline:
    """The paper's three-stage cascade over one planner's graph slice.

    The stages reach the planner that owns them through a weak proxy: no
    reference cycle, so a dropped planner frees its graphs and index views
    at once.
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
# verification: the block loop, the threshold record, the top-k loop
# ----------------------------------------------------------------------
def verify_rows(
    verifier, graphs, global_ids, plan: "QueryPlan", rows, root: int
) -> tuple[list[float], int]:
    """The SSP estimate of every storage row in ``rows``, and how many of
    them sampled.

    Rows go through :meth:`~repro.core.verification.Verifier.verify_block`
    ``VERIFY_BLOCK_SIZE`` at a time, each on its own ``(root, VERIFY_STREAM,
    global id)`` stream: a planner in the parent and a pool worker holding
    only the graphs it was dealt and their ids (:mod:`repro.core.sharding`)
    run this same loop.
    """
    sampled_before = verifier.sampled
    probabilities: list[float] = []
    for start in range(0, len(rows), VERIFY_BLOCK_SIZE):
        block = [int(row) for row in rows[start : start + VERIFY_BLOCK_SIZE]]
        probabilities.extend(
            verifier.verify_block(
                plan.query,
                [graphs[row] for row in block],
                plan.distance_threshold,
                relaxed_queries=plan.relaxed_queries,
                rngs=[derive_seed(root, VERIFY_STREAM, int(global_ids[row])) for row in block],
                family=plan.family,
            )
        )
    return probabilities, verifier.sampled - sampled_before


@dataclass
class FilteredPlan:
    """One plan after every stage before verification, over one planner's
    rows: the result so far and the storage rows left to verify, with their
    PMI bounds (ascending rows; ``usim`` / ``lsim`` aligned with them)."""

    planner: "QueryPlanner"
    ctx: PipelineContext
    rows: np.ndarray
    usim: np.ndarray
    lsim: np.ndarray

    @classmethod
    def of(cls, planner, ctx: PipelineContext, candidates: CandidateSet) -> "FilteredPlan":
        rows = candidates.active_ids()
        return cls(planner, ctx, rows, candidates.usim[rows], candidates.lsim[rows])

    def verify(self) -> tuple[list[float], int, float]:
        """:func:`verify_rows` over the survivors, in this process, plus its
        seconds."""
        timer = Timer()
        with timer:
            plan = self.ctx.plan
            probabilities, sampled = verify_rows(
                self.planner._verifier_for(plan),
                self.planner.graphs,
                self.planner.global_ids,
                plan,
                self.rows,
                self.ctx.root,
            )
        return probabilities, sampled, timer.elapsed


def record_verified(
    part: FilteredPlan, probabilities, sampled: int, stage_stats: StageStatistics
) -> None:
    """Book a threshold plan's verified survivors: every estimate at or above
    the floor is an answer."""
    stats = part.ctx.result.statistics
    stats.verified += len(part.rows)
    stats.sampled += sampled
    floor = part.ctx.state.floor
    answers = [
        QueryAnswer(
            graph_id=int(part.planner.global_ids[row]),
            graph_name=part.planner.graphs[row].name,
            probability=probability,
            decided_by="verification",
        )
        for row, probability in zip(part.rows.tolist(), probabilities, strict=True)
        if probability >= floor
    ]
    part.ctx.result.answers.extend(answers)
    stage_stats.accepted = len(answers)
    stage_stats.passed = len(answers)


def finish_threshold(
    part: FilteredPlan, probabilities, sampled: int, seconds: float
) -> QueryResult:
    """A filtered threshold plan's result, once its survivors' estimates
    are in (from a pool worker or :meth:`FilteredPlan.verify`)."""
    stage_stats = StageStatistics(
        stage=VerificationStage.name, examined=len(part.rows), seconds=seconds
    )
    record_verified(part, probabilities, sampled, stage_stats)
    part.ctx.result.statistics.stages.append(stage_stats)
    return close_result(part.ctx.result)


def finish_top_k(part: FilteredPlan) -> QueryResult:
    """A filtered top-k plan's result: :func:`rank_top_k` once, in this
    process."""
    result = part.ctx.result
    stage_stats = StageStatistics(stage=VerificationStage.name)
    timer = Timer()
    with timer:
        result.answers.extend(rank_top_k(part, result.statistics, stage_stats))
    stage_stats.seconds = timer.elapsed
    result.statistics.stages.append(stage_stats)
    return close_result(result)


def rank_top_k(
    part: FilteredPlan, statistics: QueryStatistics, stage_stats: StageStatistics
) -> list[QueryAnswer]:
    """The top-k answers of one filtered plan.

    The part's ``(graph id, usim, lsim)`` table is walked once by
    :func:`replay_top_k`, whose estimator verifies a candidate through the
    part's planner.  The candidates below the seeded floor are booked as the
    PMI stage's ``pruned``, those the walk passes over as the verification
    stage's.
    """
    planner, plan, root = part.planner, part.ctx.plan, part.ctx.root
    graph_ids = planner.global_ids[part.rows]
    row_of = dict(zip(graph_ids.tolist(), part.rows.tolist()))

    def verify(graph_id: int) -> QueryAnswer:
        row = row_of[graph_id]
        (probability,), sampled = verify_rows(
            planner._verifier_for(plan), planner.graphs, planner.global_ids, plan, [row], root
        )
        statistics.sampled += sampled
        return QueryAnswer(graph_id, planner.graphs[row].name, probability, "verification")

    answers, examined, verified = replay_top_k(graph_ids, part.usim, part.lsim, verify, plan.k)
    below_seed = len(row_of) - examined
    pmi = next(stage for stage in statistics.stages if stage.stage == PmiPruningStage.name)
    pmi.pruned += below_seed
    pmi.passed -= below_seed
    statistics.pruned_by_upper_bound += below_seed
    statistics.probabilistic_candidates -= below_seed
    statistics.verified += verified
    stage_stats.examined = examined
    stage_stats.pruned = examined - verified
    stage_stats.accepted = len(answers)
    stage_stats.passed = len(answers)
    return answers


def replay_top_k(
    candidate_ids: np.ndarray,
    usim: np.ndarray,
    lsim: np.ndarray,
    estimate: Callable[[int], QueryAnswer],
    k: int,
) -> tuple[list[QueryAnswer], int, int]:
    """The top-k loop: walk the candidates by ``(-usim, graph_id)`` under the
    floor seeded from ``lsim`` and tightened by every answer the heap keeps,
    asking ``estimate(graph_id)`` for each candidate reached above the floor.

    Returns ``(answers, examined, verified)``: the ranked answers, how many
    candidates are at or above the seeded floor, and how many the loop asked
    for.
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
    return state.ranked(), len(ids), verified
