"""The end-to-end probabilistic subgraph similarity search engine.

:class:`ProbabilisticGraphDatabase` is the front door to the three stages of
Section 1.2:

1. **structural pruning** over the deterministic skeletons (Theorem 1),
2. **probabilistic pruning** with PMI-derived SSP bounds (Theorems 3 & 4),
3. **verification** of the remaining candidates (Algorithm 5 or exact).

``build_index()`` builds a :class:`~repro.core.catalog.GraphCatalog` over the
graphs — for one shard or many — and never mutates it; ``query*()`` and
``close()`` delegate to it, and ``planner`` / ``pmi`` / ``structural_index``
are read-only views of what it holds.  A database that must change after the
build is a catalog: :meth:`ProbabilisticGraphDatabase.to_catalog` or
:meth:`GraphCatalog.build`.

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

from repro.core.catalog import GraphCatalog
from repro.core.pruning import PruningConfig
from repro.core.relaxation import RelaxationConfig
from repro.core.results import QueryResult
from repro.core.sharding import DatabaseShard, ShardedPlanner
from repro.core.verification import VerificationConfig
from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.bounds import BoundConfig
from repro.pmi.features import FeatureSelectionConfig
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.rng import RandomLike


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
        # everything build_index() builds; never mutated through this class
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
        """Mine features and build both indexes, as a catalog of ``num_shards``.

        The engine holds a :class:`~repro.core.catalog.GraphCatalog` over
        contiguous shards: :meth:`GraphCatalog.build`, or — pass a prebuilt
        (for example :meth:`ProbabilisticMatrixIndex.load`-ed) ``pmi`` to
        skip the expensive SIP-bound computation — :meth:`GraphCatalog.from_index`
        over a structural index counted from the ``pmi``'s features.  A
        prebuilt ``pmi`` must have been built over the same graphs in the
        same order and must carry its ``build_root`` (every index built or
        saved since the catalog layer does); one without is refused with a
        :class:`~repro.exceptions.CatalogError`, for one shard as for many.

        With ``num_shards > 1`` queries fan out over ``max_workers``
        processes (``None`` → cpu count) through the catalog's
        :class:`~repro.core.sharding.ShardedPlanner`, with answers identical
        to one shard's; ``max_workers`` has no effect on one shard.  To
        persist an index use ``database.pmi.save()`` (one shard) or
        ``GraphCatalog.build(directory=...)``.
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
        # a rebuild replaces the catalog; shut down any worker pool the old
        # one may own before dropping the reference
        self.close()
        self._catalog = None
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
        return self

    @property
    def planner(self) -> ShardedPlanner | None:
        """The catalog's current planner (``None`` before :meth:`build_index`)."""
        return None if self._catalog is None else self._catalog.planner()

    def _whole_shard(self) -> DatabaseShard | None:
        # with no mutation ever applied, the one shard's base segment is all of it
        planner = self.planner
        return planner.shards[0] if planner is not None and planner.num_shards == 1 else None

    @property
    def pmi(self) -> ProbabilisticMatrixIndex | None:
        """The whole PMI — the one shard's base segment.  ``None`` before
        :meth:`build_index` and for a sharded engine, whose matrices live
        sliced inside the shards (nothing should mistake a slice for the
        whole)."""
        shard = self._whole_shard()
        return None if shard is None else shard.pmi.base

    @property
    def structural_index(self) -> StructuralFeatureIndex | None:
        """The whole structural index; ``None`` exactly when :attr:`pmi` is."""
        shard = self._whole_shard()
        return None if shard is None else shard.structural_index.base

    def to_catalog(
        self,
        num_shards: int = 1,
        max_workers: int | None = None,
        directory=None,
    ) -> GraphCatalog:
        """Adopt this engine's built index as a mutable :class:`GraphCatalog`.

        The catalog reuses the already-computed PMI cells and structural
        counts (no SIP bounds are recomputed) and assigns external ids
        ``0..N-1`` — the row positions the static build already salted its
        RNG streams with — so the catalog's answers are byte-identical to
        this engine's until the first mutation.  Only a one-shard
        (``num_shards=1``) build can be adopted: a sharded engine holds its
        matrices sliced inside the shards; build the catalog directly with
        :meth:`GraphCatalog.build` in that case.  Passing a ``directory``
        makes the adopted catalog durable (snapshot + write-ahead log; see
        :meth:`GraphCatalog.persist`), recoverable with
        :meth:`GraphCatalog.open`.
        """
        if self._catalog is None:
            raise IndexError_("call build_index() before to_catalog()")
        pmi, structural_index = self.pmi, self.structural_index
        if pmi is None or structural_index is None:
            raise IndexError_(
                "a sharded engine holds sliced indexes; build a mutable catalog "
                "directly with GraphCatalog.build(graphs, num_shards=...)"
            )
        return GraphCatalog.from_index(
            self.graphs,
            pmi,
            structural_index,
            num_shards=num_shards,
            max_workers=max_workers,
            directory=directory,
        )

    def close(self) -> None:
        """Release catalog-held resources (the planner and its worker pool).

        Idempotent; the database stays queryable — the next query builds a
        fresh planner (and, when sharded, a fresh pool).
        """
        if self._catalog is not None:
            self._catalog.close()

    def __enter__(self) -> "ProbabilisticGraphDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.graphs)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _indexed(self) -> GraphCatalog:
        if self._catalog is None:
            raise IndexError_("call build_index() before querying")
        return self._catalog

    def query(
        self,
        query_graph: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Run a threshold-based probabilistic subgraph similarity (T-PS) query."""
        return self._indexed().query(
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
        (an int or ``None`` ``rng`` is re-normalized per query); a malformed
        query anywhere in the batch is rejected before any query executes
        (see :meth:`GraphCatalog.query_many`).
        """
        return self._indexed().query_many(
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
        list byte-identical to the one-shard one for any shard and worker
        count.
        """
        return self._indexed().query_top_k(query_graph, k, distance_threshold, config, rng=rng)

    def query_top_k_many(
        self,
        query_graphs: list[LabeledGraph],
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> list[QueryResult]:
        """Run a top-k workload; one :class:`QueryResult` per query, in order."""
        return self._indexed().query_top_k_many(
            query_graphs, k, distance_threshold, config, rng=rng
        )
