"""The reusable query planner: one plan object per workload, not per query.

:class:`QueryPlanner` splits a query's work by lifetime:

* **per database** (planner construction): the structural filter over the
  index, the pruner over the PMI's features and the default verifier;
* **per query** (:meth:`plan` / :meth:`plan_top_k`): array work over one edge
  order of the query — relaxation (Lemma 1) as rows of a mask matrix over it
  (no graph per variant), each feature's embeddings in the query (read off
  the edge list for a single edge, one join for a larger feature), from which
  the structural count profile and the containment relations are read (an
  embedding lies in a relaxed query iff it uses no deleted edge), and the
  rows compiled into the verifier's variant family;
* **per candidate** (:meth:`execute_plan`): the cascade of
  :mod:`repro.core.pipeline` — :meth:`filter_plan` (the structural filter,
  columnar PMI row reads, vectorized pruning decisions), then
  ``finish_threshold`` or ``finish_top_k`` (verification).

A :class:`~repro.core.catalog.GraphCatalog` holds one :class:`QueryPlanner`
over its whole storage and runs every plan through :meth:`execute_plan`.  The
single-query ``execute`` / ``execute_top_k`` below plan and run in one call
and are what the parity suites build their from-scratch reference from.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from repro.core import pipeline
from repro.core.pipeline import (
    PRUNE_STREAM,
    VERIFY_STREAM,
    THRESHOLD_MODE,
    TOP_K_MODE,
    FilteredPlan,
    finish_threshold,
    finish_top_k,
)
from repro.core.pruning import FeatureContainment, ProbabilisticPruner, PruningConfig
from repro.core.relaxation import RelaxationConfig, as_integer, relax_query
from repro.core.results import QueryResult
from repro.core.verification import VerificationConfig
from repro.exceptions import ConfigurationError, QueryError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.generic_join import VariantFamily, compile_variant_family
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.structural.similarity_filter import StructuralFilter
from repro.utils.rng import RandomLike, rng_root

__all__ = [
    "QueryPlan",
    "QueryPlanner",
    "SearchConfig",
    "validate_query",
    "validate_top_k_query",
    "PRUNE_STREAM",
    "VERIFY_STREAM",
]


@dataclass
class SearchConfig:
    """Per-query configuration of the cascade's passes."""

    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)


def _validate_query_structure(query_graph: LabeledGraph, distance_threshold: int) -> int:
    if not isinstance(query_graph, LabeledGraph):
        hint = (
            " (a database graph; its .skeleton is its LabeledGraph)"
            if isinstance(query_graph, ProbabilisticGraph)
            else ""
        )
        raise QueryError(
            f"query graph must be a LabeledGraph, got {type(query_graph).__name__}{hint}"
        )
    distance_threshold = as_integer(distance_threshold, "distance threshold")
    if query_graph.num_edges == 0:
        raise QueryError("query graph must contain at least one edge")
    if not query_graph.is_connected():
        raise QueryError("query graph must be connected")
    if distance_threshold < 0:
        raise QueryError("distance threshold must be >= 0")
    if distance_threshold >= query_graph.num_edges:
        raise QueryError(
            "distance threshold must be smaller than the number of query edges"
        )
    return distance_threshold


def validate_query(
    query_graph: LabeledGraph, probability_threshold: float, distance_threshold: int
) -> int:
    """Reject malformed T-PS queries before any work starts; return the
    distance threshold as a plain int (integer-like values are accepted via
    ``operator.index``, bools and non-integers are rejected).  The probability
    threshold is any real number (``numbers.Real``: ints, floats, numpy
    scalars) in ``(0, 1]``, never a bool."""
    distance_threshold = _validate_query_structure(query_graph, distance_threshold)
    if isinstance(probability_threshold, bool) or not isinstance(probability_threshold, Real):
        raise QueryError(
            f"probability threshold must be a real number, got {probability_threshold!r}"
        )
    if not 0.0 < probability_threshold <= 1.0:
        raise QueryError(
            f"probability threshold must be in (0, 1], got {probability_threshold!r}"
        )
    return distance_threshold


def validate_top_k_query(
    query_graph: LabeledGraph, k: int, distance_threshold: int
) -> tuple[int, int]:
    """Reject malformed top-k queries; return ``(k, distance_threshold)`` as
    plain ints, each normalised like :func:`validate_query`'s threshold."""
    distance_threshold = _validate_query_structure(query_graph, distance_threshold)
    k = as_integer(k, "k")
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k!r}")
    return k, distance_threshold


@dataclass
class QueryPlan:
    """Everything derivable from (query, thresholds, config) alone.

    The plan is reusable: executing it twice (or against a reloaded PMI)
    yields the same candidate partition, so workloads can relax and prepare
    once and execute many times.  ``mode`` selects the probability floor:
    ``"threshold"`` (the fixed ``probability_threshold``) or ``"top_k"`` (a
    :class:`~repro.core.pipeline.TopKHeap`'s floor, tightening toward the
    running ``k``-th best verified probability).

    ``relaxed_queries`` is the set as :func:`relax_query` returns it: masks over
    the query's edges in discovery order (the member indices in ``containment``
    and the rows of ``family`` follow it); indexing it builds a variant's graph,
    which the common path never does.
    """

    query: LabeledGraph
    probability_threshold: float
    distance_threshold: int
    config: SearchConfig
    relaxed_queries: Sequence[LabeledGraph] = field(default_factory=list)
    containment: dict[int, FeatureContainment] = field(default_factory=dict)
    mode: str = THRESHOLD_MODE
    k: int | None = None
    # the query's Grafil count profile; None makes the structural stage derive it
    profile: dict[int, dict] | None = None
    # the relaxed set compiled for one shared matching pass; None makes the verifier derive it
    family: VariantFamily | None = None


class QueryPlanner:
    """Plans and runs the query cascade over one indexed database.

    Determinism contract: with the same ``rng`` seed, every ``execute*``
    method returns byte-identical answers and counters across runs and
    processes — a mutated catalog
    (:class:`~repro.core.catalog.GraphCatalog`) reproduces this planner's
    output exactly, because all stochastic work and all orderings key on
    each graph's stable global id (``global_ids``), never on row positions
    or visit order.

    A planner is shared by the threads querying one catalog, so its pruner
    cache (:meth:`_pruner_for`) hands each caller the pruner it built or
    found, never re-reads the attribute.
    """

    def __init__(
        self,
        graphs: list[ProbabilisticGraph],
        pmi: ProbabilisticMatrixIndex,
        structural_index: StructuralFeatureIndex,
        graph_ids=None,
        active_mask: np.ndarray | None = None,
    ) -> None:
        self.graphs = graphs
        self.pmi = pmi
        self.structural_index = structural_index
        # A planner over the whole database uses row positions as global
        # ids.  A catalog passes explicit `graph_ids` — the stable
        # external id of every storage row — plus an `active_mask` that turns
        # tombstoned rows off before any stage runs.  Everything downstream
        # (answers, RNG salts, top-k visit order) keys on `global_ids`, so
        # answers depend only on the (id → graph) mapping, never on row
        # placement.
        if graph_ids is None:
            self.global_ids = np.arange(len(graphs), dtype=np.int64)
        else:
            self.global_ids = np.asarray(graph_ids, dtype=np.int64)
            if self.global_ids.shape != (len(graphs),):
                raise ConfigurationError(
                    f"graph_ids has {self.global_ids.size} entries for "
                    f"{len(graphs)} graphs"
                )
        if active_mask is not None:
            active_mask = np.asarray(active_mask, dtype=bool)
            if active_mask.shape != (len(graphs),):
                raise ConfigurationError(
                    f"active_mask has {active_mask.size} entries for "
                    f"{len(graphs)} graphs"
                )
        self.active_mask = active_mask
        # the filter reads the index, never `graphs`
        self.structural_filter = StructuralFilter(structural_index)
        self.pruner = ProbabilisticPruner(pmi.features)

    def _pruner_for(self, plan: QueryPlan) -> ProbabilisticPruner:
        """The planner-owned pruner, rebuilt only when the config changes."""
        pruner = self.pruner
        if plan.config.pruning != pruner.config:
            pruner = ProbabilisticPruner(self.pmi.features, config=plan.config.pruning)
            self.pruner = pruner
        return pruner

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None = None,
    ) -> QueryPlan:
        """Relax the query; precompute its count profile and containment relations.

        Planning is fully deterministic (no RNG is consumed): the same
        query, thresholds, and config always yield the same plan, so a plan
        can be built once and executed many times.
        """
        distance_threshold = validate_query(query, probability_threshold, distance_threshold)
        return self._prepare_plan(
            query, probability_threshold, distance_threshold, config
        )

    def plan_top_k(
        self,
        query: LabeledGraph,
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
    ) -> QueryPlan:
        """A reusable plan for a top-k subgraph similarity query.

        The plan's probability floor starts at zero; a
        :class:`~repro.core.pipeline.TopKHeap` supplies the dynamic floor at
        execution time.
        """
        k, distance_threshold = validate_top_k_query(query, k, distance_threshold)
        plan = self._prepare_plan(query, 0.0, distance_threshold, config)
        plan.mode = TOP_K_MODE
        plan.k = k
        return plan

    def _prepare_plan(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None,
    ) -> QueryPlan:
        cfg = config or SearchConfig()
        relaxed = relax_query(query, distance_threshold, cfg.relaxation)
        # one enumeration of each feature in q serves the profile and the f ⊆iso rq relations
        embeddings = self.structural_index.query_embeddings(query)
        return QueryPlan(
            query=query,
            probability_threshold=probability_threshold,
            distance_threshold=distance_threshold,
            config=cfg,
            relaxed_queries=relaxed,
            containment=self.pruner.prepare(relaxed, query, embeddings),
            profile=StructuralFeatureIndex.count_profile(embeddings),
            family=compile_variant_family(query, relaxed),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Plan and execute one threshold (T-PS) query.

        With an int seed (or seeded generator) the result is byte-identical
        across runs and identical to a catalog's execution of the same query
        over the same live graphs (see :meth:`execute_plan`).
        """
        return self.execute_plan(
            self.plan(query, probability_threshold, distance_threshold, config), rng=rng
        )

    def execute_top_k(
        self,
        query: LabeledGraph,
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """The k most probable subgraph-similar graphs, best first.

        Ties resolve to the smaller (global) graph id; graphs with zero SSP
        are never answers, so fewer than ``k`` answers may return.  The
        probability floor tightens as verified answers fill the k-sized
        heap, so candidates are verified in descending PMI upper-bound order
        and late candidates prune against the running k-th best
        (:func:`repro.core.pipeline.replay_top_k`).  Under the same seed the
        ranked list and the counters are byte-identical to a catalog's over
        the same live graphs.
        """
        return self.execute_plan(self.plan_top_k(query, k, distance_threshold, config), rng=rng)

    def execute_plan(self, plan: QueryPlan, rng: RandomLike = None) -> QueryResult:
        """Run one plan: :meth:`filter_plan`, then
        :func:`~repro.core.pipeline.finish_top_k` or
        :func:`~repro.core.pipeline.finish_threshold`.

        The ``rng`` argument is collapsed to a 64-bit *root* and every
        stochastic per-candidate task (QP rounding in pruning, Karp–Luby
        sampling in verification) derives its own generator from
        ``(root, stage, global graph id)``.  Results therefore depend only on
        the root and the graph, not on candidate ordering or database
        placement.
        """
        part = self.filter_plan(plan, rng)
        if plan.mode == TOP_K_MODE:
            return finish_top_k(part)
        return finish_threshold(part)

    def filter_plan(self, plan: QueryPlan, rng: RandomLike = None) -> FilteredPlan:
        """The structural and PMI passes of ``plan`` over this planner's live
        rows (:func:`repro.core.pipeline.filter_plan`); the returned part
        holds the rows left to verify."""
        return pipeline.filter_plan(self, plan, rng_root(rng))

    # `query*()` aliases for symmetry with the catalog's API
    query = execute
    query_top_k = execute_top_k
