"""The end-to-end probabilistic subgraph similarity search engine.

:class:`ProbabilisticGraphDatabase` glues the three stages of Section 1.2
together:

1. **structural pruning** over the deterministic skeletons (Theorem 1),
2. **probabilistic pruning** with PMI-derived SSP bounds (Theorems 3 & 4),
3. **verification** of the remaining candidates (Algorithm 5 or exact).

``build_index()`` constructs a reusable :class:`~repro.core.planner.QueryPlanner`
once; ``query()`` is a thin plan execution and ``query_many()`` runs a whole
workload against the shared planner.

Typical usage::

    database = ProbabilisticGraphDatabase(graphs)
    database.build_index(rng=7)
    result = database.query(query_graph, probability_threshold=0.5,
                            distance_threshold=2)
    for answer in result.answers:
        print(answer.graph_id, answer.probability)

    # batch execution over a workload
    results = database.query_many(queries, 0.5, 2)

    # persist the PMI so other processes skip the expensive build
    database.pmi.save("pmi_dir")
    other = ProbabilisticGraphDatabase(graphs)
    other.build_index(pmi=ProbabilisticMatrixIndex.load("pmi_dir"))

    # scale across cores: K shards, queries fan out over a process pool
    # (note: the full matrices then live sliced inside the shards, so
    # ``database.pmi``/``database.structural_index`` are None — for a
    # sharded index that survives restarts use
    # GraphCatalog.build(graphs, num_shards=4, directory=...) and
    # GraphCatalog.open(...))
    parallel = ProbabilisticGraphDatabase(graphs)
    parallel.build_index(num_shards=4, rng=7)
    results = parallel.query_many(queries, 0.5, 2)
    parallel.close()  # or use the database as a context manager
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.planner import QueryPlanner, validate_query, validate_top_k_query
from repro.core.pruning import PruningConfig
from repro.core.relaxation import RelaxationConfig
from repro.core.results import QueryResult
from repro.core.verification import VerificationConfig
from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.bounds import BoundConfig
from repro.pmi.features import FeatureSelectionConfig
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.rng import RandomLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.catalog import GraphCatalog


@dataclass
class SearchConfig:
    """Per-query configuration of the pipeline stages."""

    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)
    use_structural_pruning: bool = True
    use_probabilistic_pruning: bool = True


class ProbabilisticGraphDatabase:
    """A queryable collection of probabilistic graphs."""

    def __init__(self, graphs: list[ProbabilisticGraph]) -> None:
        if not graphs:
            raise ConfigurationError("the database needs at least one probabilistic graph")
        self.graphs = list(graphs)
        self.pmi: ProbabilisticMatrixIndex | None = None
        self.structural_index: StructuralFeatureIndex | None = None
        self.planner: QueryPlanner | None = None
        # the catalog behind a sharded (num_shards > 1) index
        self._catalog: GraphCatalog | None = None

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def build_index(
        self,
        feature_config: FeatureSelectionConfig | None = None,
        bound_config: BoundConfig | None = None,
        rng: RandomLike = None,
        pmi: ProbabilisticMatrixIndex | None = None,
        num_shards: int = 1,
        max_workers: int | None = None,
    ) -> "ProbabilisticGraphDatabase":
        """Mine features, build both indexes, and construct the query planner.

        Pass a prebuilt (for example :meth:`ProbabilisticMatrixIndex.load`-ed)
        ``pmi`` to skip the expensive SIP-bound computation; it must have been
        built over the same graphs in the same order.

        With ``num_shards > 1`` the engine holds a
        :class:`~repro.core.catalog.GraphCatalog` over contiguous shards
        (:meth:`GraphCatalog.build`, or :meth:`GraphCatalog.from_index` for
        a prebuilt ``pmi``, which must carry its ``build_root``) and queries
        fan out over ``max_workers`` processes (``None`` → cpu count)
        through its :class:`~repro.core.sharding.ShardedPlanner`, with
        answers identical to the sequential path.  ``num_shards=1`` is
        exactly the sequential single-planner path — ``max_workers`` only
        takes effect with ``num_shards > 1``.  To persist an index use
        ``database.pmi.save()`` (sequential) or
        ``GraphCatalog.build(directory=...)`` (sharded).
        """
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards!r}")
        if pmi is not None and (feature_config is not None or bound_config is not None):
            raise IndexError_(
                "feature_config/bound_config conflict with a prebuilt pmi; "
                "the loaded index already carries its build configuration"
            )
        if pmi is not None and pmi.database_size != len(self.graphs):
            raise IndexError_(
                f"prebuilt PMI covers {pmi.database_size} graphs, "
                f"database has {len(self.graphs)}"
            )
        # a rebuild replaces the planner; shut down any worker pool the old
        # one may own before dropping the reference
        self.close()
        self._catalog = None
        if num_shards > 1:
            from repro.core.catalog import GraphCatalog

            if pmi is None:
                self._catalog = GraphCatalog.build(
                    self.graphs,
                    feature_config=feature_config,
                    bound_config=bound_config,
                    rng=rng,
                    num_shards=num_shards,
                    max_workers=max_workers,
                )
            else:
                structural = StructuralFeatureIndex(
                    embedding_limit=pmi.feature_config.embedding_limit
                )
                structural.build([graph.skeleton for graph in self.graphs], pmi.features)
                self._catalog = GraphCatalog.from_index(
                    self.graphs,
                    pmi,
                    structural,
                    num_shards=num_shards,
                    max_workers=max_workers,
                )
            # never mutated, so the catalog's cached planner stays the live one
            self.planner = self._catalog.planner()
            # the full matrices live sliced inside the shards; the engine-level
            # handles stay unset so nothing mistakes a shard view for the whole
            self.pmi = None
            self.structural_index = None
            return self
        if pmi is not None:
            self.pmi = pmi
        else:
            self.pmi = ProbabilisticMatrixIndex(
                feature_config=feature_config, bound_config=bound_config
            )
            # rng passes through unwrapped: an int seed must yield the same
            # 64-bit root here as in the sharded build path
            self.pmi.build(self.graphs, rng=rng)
        self.structural_index = StructuralFeatureIndex(
            embedding_limit=self.pmi.feature_config.embedding_limit
        )
        self.structural_index.build(
            [graph.skeleton for graph in self.graphs], self.pmi.features
        )
        self.planner = QueryPlanner(self.graphs, self.pmi, self.structural_index)
        return self

    @property
    def is_indexed(self) -> bool:
        return self.planner is not None

    def to_catalog(
        self,
        num_shards: int = 1,
        max_workers: int | None = None,
        directory=None,
    ) -> "GraphCatalog":
        """Adopt this engine's built index as a mutable :class:`GraphCatalog`.

        The catalog reuses the already-computed PMI cells and structural
        counts (no SIP bounds are recomputed) and assigns external ids
        ``0..N-1`` — the row positions the static build already salted its
        RNG streams with — so the catalog's answers are byte-identical to
        this engine's until the first mutation.  Only a sequential
        (``num_shards=1``) build can be adopted: a sharded engine holds its
        matrices sliced inside the shards; build the catalog directly with
        :meth:`GraphCatalog.build` in that case.  Passing a ``directory``
        makes the adopted catalog durable (snapshot + write-ahead log; see
        :meth:`GraphCatalog.persist`), recoverable with
        :meth:`GraphCatalog.open`.
        """
        from repro.core.catalog import GraphCatalog

        if self.planner is None:
            raise IndexError_("call build_index() before to_catalog()")
        if self.pmi is None or self.structural_index is None:
            raise IndexError_(
                "a sharded engine holds sliced indexes; build a mutable catalog "
                "directly with GraphCatalog.build(graphs, num_shards=...)"
            )
        return GraphCatalog.from_index(
            self.graphs,
            self.pmi,
            self.structural_index,
            num_shards=num_shards,
            max_workers=max_workers,
            directory=directory,
        )

    def close(self) -> None:
        """Release planner-held resources (the sharded worker pool).

        Idempotent, and a no-op for the sequential planner; the database
        stays queryable — a sharded planner lazily re-creates its pool on
        the next query.
        """
        closer = getattr(self.planner, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ProbabilisticGraphDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.graphs)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        query_graph: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Run a threshold-based probabilistic subgraph similarity (T-PS) query."""
        self._validate_query(query_graph, probability_threshold, distance_threshold)
        if self.planner is None:
            raise IndexError_("call build_index() before querying")
        return self.planner.execute(
            query_graph, probability_threshold, distance_threshold, config, rng=rng
        )

    def query_many(
        self,
        query_graphs: list[LabeledGraph],
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> list[QueryResult]:
        """Run a T-PS workload, amortizing planner setup across all queries.

        Returns one :class:`QueryResult` per query, in input order, with
        answers identical to issuing the same ``query()`` calls sequentially
        (an int or ``None`` ``rng`` is re-normalized per query; see
        :meth:`QueryPlanner.execute_many`).
        """
        if self.planner is None:
            raise IndexError_("call build_index() before querying")
        for query_graph in query_graphs:
            self._validate_query(query_graph, probability_threshold, distance_threshold)
        return self.planner.execute_many(
            query_graphs, probability_threshold, distance_threshold, config, rng=rng
        )

    def query_top_k(
        self,
        query_graph: LabeledGraph,
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """The ``k`` most probable subgraph-similar graphs, best first.

        Runs the same staged pipeline as :meth:`query`, but instead of a
        fixed probability threshold the floor tightens as verified answers
        fill a k-sized heap (candidates are verified in descending PMI
        upper-bound order).  Ties rank the smaller graph id first; graphs
        with zero SSP are never answers, so fewer than ``k`` answers may
        return.  Sharded engines merge per-shard partials into an answer
        list byte-identical to the sequential one for any shard and worker
        count.
        """
        self._validate_top_k(query_graph, k, distance_threshold)
        if self.planner is None:
            raise IndexError_("call build_index() before querying")
        return self.planner.execute_top_k(
            query_graph, k, distance_threshold, config, rng=rng
        )

    def query_top_k_many(
        self,
        query_graphs: list[LabeledGraph],
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> list[QueryResult]:
        """Run a top-k workload; one :class:`QueryResult` per query, in order."""
        if self.planner is None:
            raise IndexError_("call build_index() before querying")
        for query_graph in query_graphs:
            self._validate_top_k(query_graph, k, distance_threshold)
        return self.planner.execute_top_k_many(
            query_graphs, k, distance_threshold, config, rng=rng
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    # the planner validates again inside plan(); this up-front pass exists so
    # query_many rejects a malformed batch before any query executes
    _validate_query = staticmethod(validate_query)
    _validate_top_k = staticmethod(validate_top_k_query)
