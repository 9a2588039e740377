"""The query cascade: :func:`filter_plan`, then a ``finish_*`` function.

The paper's search is a fixed filter-and-verify cascade — structural
similarity filtering (Theorem 1), PMI probabilistic pruning (Theorems 3 & 4),
verification (Section 5) — and every query runs it as two calls:

* :func:`filter_plan` runs the structural pass and then the PMI pass over one
  planner's live rows, each timed into one
  :class:`~repro.core.results.StageStatistics`, and returns a
  :class:`FilteredPlan`: the result so far and the rows left to verify, with
  their PMI bounds;
* :func:`finish_threshold` verifies a threshold plan's survivors
  (:func:`verify_rows`) and books them, and :func:`finish_top_k` ranks a
  top-k plan.

:meth:`QueryPlanner.execute_plan <repro.core.planner.QueryPlanner.execute_plan>`
is these two calls, in one process.

Two query modes:

* **threshold (T-PS)** — the floor is the plan's fixed
  ``probability_threshold``: the PMI pass applies Pruning 1 (``usim < ε`` ⇒
  discard) and Pruning 2 (``lsim ≥ ε`` ⇒ answer without verification), and a
  verified estimate at or above ``ε`` is an answer.
* **top_k** — the PMI pass records the bound columns and decides nothing; the
  floor starts at the k-th largest PMI lower bound among the candidates (at
  least k graphs have SSP above it, so nothing provably below can rank) and
  *tightens* as verified answers fill a :class:`TopKHeap`; candidates are
  visited in descending ``usim`` order so later candidates prune against the
  running k-th-best probability.

**One top-k loop.**  :func:`replay_top_k` is the only walk of the top-k
visit order — ``(-usim, graph_id)`` under a floor seeded once from the
candidates' ``lsim`` and tightened by every answer the heap keeps — and it
asks an *estimator* for the candidates it reaches above the floor.  Because
the PMI pass of a top-k plan decides nothing, the walk sees every structural
candidate of the database: :func:`finish_top_k` runs it over the part's
``(graph id, usim, lsim)`` table with an estimator that verifies a list of
candidates through :func:`verify_rows`.  Every Usim, seeded floor and
verified probability lies in [0, 1], so no floor passes over a candidate
whose Usim is 1: the walk hands the leading run of them over in one call,
verified ``VERIFY_BLOCK_SIZE`` to a family pass, and every later candidate
alone.  Because every estimate derives from ``(root, VERIFY_STREAM, global
graph id)`` (:func:`repro.utils.rng.derive_seed`), answers and counters do
not depend on the order or the blocks candidates are verified in, for
stochastic and exact verification alike.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.pruning import VACUOUS_BOUNDS
from repro.core.verification import Verifier
from repro.core.results import (
    QueryAnswer,
    QueryResult,
    StageStatistics,
)
from repro.utils.rng import PRUNE_STREAM, VERIFY_STREAM, derive_seed
from repro.utils.timer import Timer
from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.planner import QueryPlan, QueryPlanner

# PRUNE_STREAM / VERIFY_STREAM (re-exported from repro.utils.rng): every
# stochastic sub-task draws from derive_seed(root, STAGE, stable_graph_id),
# passed as the seed and made a generator only where something draws, where
# the stable id is the planner's global id for the graph (its row position in
# a static database, its external id in a mutable catalog).  The streams a
# graph consumes therefore depend only on (root, stage, stable id) — never on
# how many other candidates ran before it, what its verification block holds,
# or how the database was mutated around it.  That is what lets a mutated
# catalog reproduce a from-scratch run bit-for-bit.

THRESHOLD_MODE = "threshold"
TOP_K_MODE = "top_k"

# candidates per verify_block() call (verify_rows); block composition
# never changes an estimate (each graph keeps its own stream), only how the
# work is chunked
VERIFY_BLOCK_SIZE = 64


@dataclass
class TopKHeap:
    """The k best verified answers so far and the probability floor they set.

    The floor starts at 0, is seeded with the k-th largest PMI lower bound
    (:meth:`seed_floor`), and rises to the running k-th best verified
    probability as :meth:`offer` fills the heap.  Only :func:`replay_top_k`
    builds one.
    """

    k: int
    floor: float = 0.0
    _heap: list = field(default_factory=list, repr=False)

    def admits(self, upper_bound: float) -> bool:
        """Can a graph with this SSP upper bound still enter the top k?"""
        return upper_bound >= self.floor

    def seed_floor(self, lower_bounds) -> None:
        """Tighten to the k-th largest lower bound.

        At least ``k`` graphs have SSP at or above their own lower bound, so
        any graph whose *upper* bound is strictly below the k-th largest
        lower bound is provably outside the top k.
        """
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
class FilteredPlan:
    """One plan after the structural and PMI passes over one planner's rows:
    the result so far and the storage rows left to verify, with their PMI
    bounds (ascending rows; ``usim`` / ``lsim`` aligned with them)."""

    planner: "QueryPlanner"
    plan: "QueryPlan"
    root: int
    result: QueryResult
    rows: np.ndarray
    usim: np.ndarray
    lsim: np.ndarray


def filter_plan(planner: "QueryPlanner", plan: "QueryPlan", root: int) -> FilteredPlan:
    """The structural pass, then the PMI pass, of ``plan`` over ``planner``'s
    live rows (every row, or those its ``active_mask`` keeps).

    Deterministic given ``(root, plan, the live graphs)``: every per-graph
    draw keys on the graph's stable global id, never on its row.
    """
    if plan.mode == TOP_K_MODE and plan.k is None:
        raise QueryError("a top-k plan needs k")
    result = QueryResult()
    stats = result.statistics
    live = planner.active_mask
    # the *live* candidate universe: what a from-scratch rebuild over the
    # live graphs would report
    stats.database_size = len(planner.graphs) if live is None else int(np.count_nonzero(live))
    stats.relaxed_query_count = len(plan.relaxed_queries)

    # Theorem 1: discard graphs whose skeleton cannot match
    structural = StageStatistics(stage="structural_filter", examined=stats.database_size)
    with Timer() as timer:
        rows = np.flatnonzero(
            planner.structural_filter.filter_mask(
                plan.query, plan.distance_threshold, active=live, profile=plan.profile
            )
        )
    structural.seconds = timer.elapsed
    structural.passed = stats.structural_candidates = len(rows)
    structural.pruned = structural.examined - structural.passed

    # Theorems 3 & 4: SSP bounds from the PMI's SIP intervals
    pmi = StageStatistics(stage="pmi_pruning", examined=len(rows))
    with Timer() as timer:
        pruner = planner._pruner_for(plan)
        if plan.containment:
            bounds_list = [
                pruner.compute_bounds(
                    plan.relaxed_queries,
                    row,
                    plan.containment,
                    rng=derive_seed(root, PRUNE_STREAM, int(planner.global_ids[row.graph_id])),
                )
                for row in planner.pmi.rows(rows)
            ]
        else:
            # no feature bounds anything: what the loop returns, without a draw
            bounds_list = [VACUOUS_BOUNDS] * len(rows)
        usim = np.array([bounds.usim for bounds in bounds_list], dtype=np.float64)
        lsim = np.array([bounds.lsim for bounds in bounds_list], dtype=np.float64)
        if plan.mode != TOP_K_MODE:
            pruned, accepted = pruner.decide_batch(bounds_list, plan.probability_threshold)
            result.answers.extend(
                QueryAnswer(
                    graph_id=int(planner.global_ids[rows[index]]),
                    graph_name=planner.graphs[rows[index]].name,
                    probability=bounds_list[index].lsim,
                    decided_by="lower_bound",
                )
                for index in np.flatnonzero(accepted)
            )
            pmi.pruned = stats.pruned_by_upper_bound = int(pruned.sum())
            pmi.accepted = stats.accepted_by_lower_bound = int(accepted.sum())
            undecided = ~(pruned | accepted)
            rows, usim, lsim = rows[undecided], usim[undecided], lsim[undecided]
    pmi.seconds = timer.elapsed
    pmi.passed = len(rows)
    stats.probabilistic_candidates = pmi.examined - pmi.pruned
    stats.stages += [structural, pmi]
    return FilteredPlan(planner, plan, root, result, rows, usim, lsim)


def close_result(result: QueryResult) -> QueryResult:
    """Answers in final order, ``answers`` counted, the stage times totalled."""
    result.answers.sort(key=lambda a: (-a.probability, a.graph_id))
    stats = result.statistics
    stats.answers = len(result.answers)
    stats.total_seconds = sum(stage.seconds for stage in stats.stages)
    return result


# ----------------------------------------------------------------------
# verification: the block loop, the threshold record, the top-k loop
# ----------------------------------------------------------------------
def verify_rows(
    planner: "QueryPlanner", plan: "QueryPlan", rows, root: int
) -> tuple[list[float], int]:
    """The SSP estimate of every storage row in ``rows`` of ``planner``, and
    how many of them sampled.

    Rows go through :meth:`~repro.core.verification.Verifier.verify_block`
    ``VERIFY_BLOCK_SIZE`` at a time, each on its own ``(root, VERIFY_STREAM,
    global id)`` stream.  The verifier is this call's own (it holds nothing
    but the plan's configs and its ``sampled`` count), so threads verifying
    on one planner never count each other's draws.
    """
    verifier = Verifier(config=plan.config.verification, relaxation=plan.config.relaxation)
    graphs, global_ids = planner.graphs, planner.global_ids
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
    return probabilities, verifier.sampled


def finish_threshold(part: FilteredPlan) -> QueryResult:
    """A filtered threshold plan's result: its survivors are verified, and
    every estimate at or above the plan's threshold is an answer."""
    with Timer() as timer:
        probabilities, sampled = verify_rows(part.planner, part.plan, part.rows, part.root)
    result = part.result
    stats = result.statistics
    stats.verified += len(part.rows)
    stats.sampled += sampled
    floor = part.plan.probability_threshold
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
    result.answers.extend(answers)
    stats.stages.append(
        StageStatistics(
            stage="verification",
            examined=len(part.rows),
            accepted=len(answers),
            passed=len(answers),
            seconds=timer.elapsed,
        )
    )
    return close_result(result)


def finish_top_k(part: FilteredPlan) -> QueryResult:
    """A filtered top-k plan's result, ranked in this process.

    The part's ``(graph id, usim, lsim)`` table is walked once by
    :func:`replay_top_k`, whose estimator verifies the candidates of each call
    in one :func:`verify_rows` through the part's planner.  The walk verifies
    a prefix of its order, so every estimate made is one the one-at-a-time
    walk makes too.  The candidates below the seeded floor are booked as the
    PMI pass's ``pruned``, those the walk passes over as verification's.
    """
    planner, plan, root, result = part.planner, part.plan, part.root, part.result
    stats = result.statistics
    graph_ids = planner.global_ids[part.rows]
    row_of = dict(zip(graph_ids.tolist(), part.rows.tolist()))

    def verify(ids: list[int]) -> list[QueryAnswer]:
        rows = [row_of[graph_id] for graph_id in ids]
        probabilities, sampled = verify_rows(planner, plan, rows, root)
        stats.sampled += sampled
        return [
            QueryAnswer(graph_id, planner.graphs[row].name, probability, "verification")
            for graph_id, row, probability in zip(ids, rows, probabilities, strict=True)
        ]

    with Timer() as timer:
        answers, examined, verified = replay_top_k(graph_ids, part.usim, part.lsim, verify, plan.k)
    below_seed = len(row_of) - examined
    _, pmi = stats.stages
    pmi.pruned += below_seed
    pmi.passed -= below_seed
    stats.pruned_by_upper_bound += below_seed
    stats.probabilistic_candidates -= below_seed
    stats.verified += verified
    result.answers.extend(answers)
    stats.stages.append(
        StageStatistics(
            stage="verification",
            examined=examined,
            pruned=examined - verified,
            accepted=len(answers),
            passed=len(answers),
            seconds=timer.elapsed,
        )
    )
    return close_result(result)


def replay_top_k(
    candidate_ids: np.ndarray,
    usim: np.ndarray,
    lsim: np.ndarray,
    estimate: Callable[[list[int]], list[QueryAnswer]],
    k: int,
) -> tuple[list[QueryAnswer], int, int]:
    """The top-k loop: walk the candidates by ``(-usim, graph_id)`` under the
    floor seeded from ``lsim`` and tightened by every answer the heap keeps,
    asking ``estimate(graph_ids)`` (answers in the order asked) for the
    candidates reached above the floor, and offering each answer to the heap.

    Usim never rises along the walk and the floor never falls, so the walk
    stops at the first candidate the floor rejects: what it verifies is a
    prefix of its order.  Every Usim, floor and estimate lies in [0, 1], so
    the leading run of candidates whose Usim is 1 is verified whatever the
    heap holds; it goes to ``estimate`` in one call, every later candidate
    alone.

    Returns ``(answers, examined, verified)``: the ranked answers, how many
    candidates are at or above the seeded floor, and how many the loop asked
    for.
    """
    heap = TopKHeap(k)
    heap.seed_floor(lsim)
    above_seed = usim >= heap.floor
    ids, upper = candidate_ids[above_seed], usim[above_seed]
    order = np.lexsort((ids, -upper))
    ids, upper = ids[order].tolist(), upper[order]
    certain = int(np.count_nonzero(upper >= 1.0))
    verified = 0
    while verified < len(ids) and heap.admits(float(upper[verified])):
        stop = max(certain, verified + 1)
        for answer in estimate(ids[verified:stop]):
            heap.offer(answer)
        verified = stop
    return heap.ranked(), len(ids), verified
