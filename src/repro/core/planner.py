"""The reusable query planner: each query shape is planned once, not per request.

:class:`QueryPlanner` splits a query's work by lifetime:

* **per database** (planner construction): the structural filter over the
  index, the pruner over the PMI's features and the default verifier;
* **per query shape, cached per catalog** (a :class:`QueryShape` in the
  :class:`PlanCache`): array work over one edge order of a frozen copy of the
  query — relaxation (Lemma 1) as rows of a mask matrix over it (no graph per
  variant), each feature's embeddings in the query (read off the edge list
  for a single edge, one join for a larger feature), from which the
  structural count profile and the containment relations are read (an
  embedding lies in a relaxed query iff it uses no deleted edge), and the
  rows compiled into the verifier's variant family.  None of it depends on a
  candidate, a threshold or ``k``, only on the query as given, ``δ``, the
  relaxation config and the features — and a catalog's features never change;
* **per request** (:meth:`plan` / :meth:`plan_top_k`): validation, then a
  :class:`QueryPlan` — the threshold, ``mode``, ``k`` and the request's
  :class:`SearchConfig` — assembled around the cached shape;
* **per candidate** (:meth:`execute_plan`): the cascade of
  :mod:`repro.core.pipeline` — :meth:`filter_plan` (the structural filter,
  columnar PMI row reads, vectorized pruning decisions), then
  ``finish_threshold`` or ``finish_top_k`` (verification).

A :class:`~repro.core.catalog.GraphCatalog` holds one :class:`QueryPlanner`
over its whole storage and runs every plan through :meth:`execute_plan`; it
owns one :class:`PlanCache` for its whole life and hands it to every planner
it makes, so a shape stays planned across mutations and compactions.  The
single-query ``execute`` / ``execute_top_k`` below plan and run in one call
and are what the parity suites build their from-scratch reference from.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from threading import Lock

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
from repro.exceptions import ConfigurationError, GraphError, QueryError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.graphs.variant_rows import VariantRows
from repro.isomorphism.generic_join import VariantFamily, compile_variant_family
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.structural.similarity_filter import StructuralFilter
from repro.utils.rng import RandomLike, rng_root

__all__ = [
    "PLAN_CACHE_CAPACITY",
    "PlanCache",
    "QueryPlan",
    "QueryPlanner",
    "QueryShape",
    "SearchConfig",
    "validate_query",
    "validate_top_k_query",
    "PRUNE_STREAM",
    "VERIFY_STREAM",
]


# query shapes a PlanCache holds before it evicts the least recently used
PLAN_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class SearchConfig:
    """Per-query configuration of the cascade's passes.  Frozen, so the type
    checks below hold for its life (``relaxation`` is part of a plan-cache
    key)."""

    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)

    def __post_init__(self) -> None:
        for name, kind in (
            ("relaxation", RelaxationConfig),
            ("pruning", PruningConfig),
            ("verification", VerificationConfig),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"SearchConfig.{name} must be a {kind.__name__}, "
                    f"got {type(value).__name__}"
                )


def _search_config(config) -> SearchConfig:
    """``config``, or the default for ``None``; anything else is refused."""
    if config is None:
        return SearchConfig()
    if not isinstance(config, SearchConfig):
        raise ConfigurationError(
            f"config must be a SearchConfig or None, got {type(config).__name__}"
        )
    return config


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


class _FrozenQuery(LabeledGraph):
    """The copy of a query a :class:`QueryShape` holds.  Every request of the
    shape plans on it, so it refuses every mutation (its memo slots still
    fill); ``copy()`` gives an editable graph."""

    @classmethod
    def of(cls, query: LabeledGraph) -> "_FrozenQuery":
        """``query``'s vertices, edges and labels in its insertion order; no name."""
        frozen = cls()
        frozen._vertex_labels = dict(query._vertex_labels)
        frozen._adjacency = {vertex: dict(nbrs) for vertex, nbrs in query._adjacency.items()}
        frozen._edge_labels = dict(query._edge_labels)
        return frozen

    def _refuse(self, *args, **kwargs) -> None:
        raise GraphError("a planned query is shared by every request of its shape; copy() it")

    add_vertex = add_edge = remove_edge = remove_isolated_vertices = _refuse


@dataclass(frozen=True)
class QueryShape:
    """What planning derives from the query alone: a frozen copy of it (the
    caller's graph is never held), its relaxed set as rows over that copy's
    edges, the features' containment relations, the Grafil count profile and
    the compiled variant family.  Shared by every request of the shape and by
    the threads running them: read-only."""

    query: LabeledGraph
    relaxed_queries: VariantRows
    containment: dict[int, FeatureContainment]
    profile: dict[int, dict]
    family: VariantFamily


def _shape_key(
    query: LabeledGraph, distance_threshold: int, relaxation: RelaxationConfig, embedding_limit
) -> tuple | None:
    """The query exactly as given — vertex labels, adjacency and edge labels in
    insertion order, and the type of every id and label, so that ``1``,
    ``1.0`` and ``True`` stay apart — with ``δ``, the relaxation config and
    the embedding limit the profile was read under; ``None`` when a label or
    id is unhashable."""
    labels, edges = query._vertex_labels, query._edge_labels
    ids_and_labels = chain(labels, labels.values(), chain.from_iterable(edges), edges.values())
    key = (
        tuple(labels.items()),
        tuple((vertex, tuple(nbrs.items())) for vertex, nbrs in query._adjacency.items()),
        tuple(edges.items()),
        tuple(map(type, ids_and_labels)),
        distance_threshold,
        relaxation,
        embedding_limit,
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


class PlanCache:
    """A bounded LRU of :class:`QueryShape` s by :func:`_shape_key`, holding
    :data:`PLAN_CACHE_CAPACITY` of them, with monotonic ``hits`` / ``misses``
    / ``evictions`` counters (an uncacheable query counts as a miss).

    Thread-safe under one lock: a catalog's planners share it, and the query
    service plans batches from a worker thread.  Two threads missing one shape
    at once both derive it; the first to store it wins, and both plan on
    that one (:meth:`store`).
    """

    def __init__(self) -> None:
        self._capacity = PLAN_CACHE_CAPACITY
        self._entries: OrderedDict[tuple, QueryShape] = OrderedDict()
        self._lock = Lock()
        self._hits = self._misses = self._evictions = 0

    def lookup(self, key: tuple | None) -> QueryShape | None:
        with self._lock:
            shape = None if key is None else self._entries.get(key)
            if shape is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return shape

    def store(self, key: tuple | None, shape: QueryShape) -> QueryShape:
        """The shape cached under ``key`` from now on: ``shape``, or one
        another thread stored first."""
        if key is None:
            return shape
        with self._lock:
            shape = self._entries.setdefault(key, shape)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return shape

    def stats(self) -> dict[str, int]:
        """``hits``, ``misses``, ``entries`` and ``evictions``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
                "evictions": self._evictions,
            }


@dataclass
class QueryPlan:
    """One request: its thresholds, ``mode``, ``k`` and config around the
    query-only facts of its :class:`QueryShape` (``query`` is the shape's
    frozen copy, ``relaxed_queries`` / ``containment`` / ``profile`` /
    ``family`` the shape's, shared with every request of the shape).

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
    found, never re-reads the attribute.  Query shapes come from
    ``plan_cache`` (a catalog passes the one it owns); without one the
    planner makes its own.
    """

    def __init__(
        self,
        graphs: list[ProbabilisticGraph],
        pmi: ProbabilisticMatrixIndex,
        structural_index: StructuralFeatureIndex,
        graph_ids=None,
        active_mask: np.ndarray | None = None,
        plan_cache: PlanCache | None = None,
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
        self.plan_cache = PlanCache() if plan_cache is None else plan_cache

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
        can be built once and executed many times.  The query is validated
        on every call; what it derives is read from the plan cache when the
        same shape was planned before (:class:`QueryShape`).
        """
        config = _search_config(config)
        distance_threshold = validate_query(query, probability_threshold, distance_threshold)
        return self._plan_for(query, probability_threshold, distance_threshold, config)

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
        config = _search_config(config)
        k, distance_threshold = validate_top_k_query(query, k, distance_threshold)
        return self._plan_for(query, 0.0, distance_threshold, config, TOP_K_MODE, k)

    def _plan_for(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig,
        mode: str = THRESHOLD_MODE,
        k: int | None = None,
    ) -> QueryPlan:
        shape = self._shape(query, distance_threshold, config.relaxation)
        return QueryPlan(
            query=shape.query,
            probability_threshold=probability_threshold,
            distance_threshold=distance_threshold,
            config=config,
            relaxed_queries=shape.relaxed_queries,
            containment=shape.containment,
            mode=mode,
            k=k,
            profile=shape.profile,
            family=shape.family,
        )

    def _shape(
        self, query: LabeledGraph, distance_threshold: int, relaxation: RelaxationConfig
    ) -> QueryShape:
        """The cached shape of ``query``, derived on a miss over a copy of it,
        so that the caller's graph is neither memoised on nor held."""
        key = _shape_key(
            query, distance_threshold, relaxation, self.structural_index.embedding_limit
        )
        shape = self.plan_cache.lookup(key)
        if shape is None:
            query = _FrozenQuery.of(query)  # nameless: the name is not in the key
            relaxed = relax_query(query, distance_threshold, relaxation)
            # one enumeration of each feature in q serves the profile and the f ⊆iso rq relations
            embeddings = self.structural_index.query_embeddings(query)
            shape = self.plan_cache.store(
                key,
                QueryShape(
                    query=query,
                    relaxed_queries=relaxed,
                    containment=self.pruner.prepare(relaxed, query, embeddings),
                    profile=StructuralFeatureIndex.count_profile(embeddings),
                    family=compile_variant_family(query, relaxed),
                ),
            )
        return shape

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
