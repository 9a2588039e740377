"""A build-once adapter over :class:`~repro.core.catalog.GraphCatalog`.

:class:`GraphCatalog` is the front door: ``GraphCatalog.build`` /
``GraphCatalog.from_index`` take the arguments this class takes.  The class
keeps exactly the surface one caller uses, the ``verify_heavy`` workload of
the end-to-end benchmark (``benchmarks/e2e/workloads.py::VerifyHeavy``).  A
benchmark change moves that workload onto ``GraphCatalog.build`` and then
deletes this module; until then its answers and counters equal the catalog's
under the same arguments.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.catalog import GraphCatalog
from repro.core.planner import SearchConfig
from repro.core.results import QueryResult
from repro.exceptions import IndexError_
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.bounds import BoundConfig
from repro.pmi.features import FeatureSelectionConfig
from repro.utils.rng import RandomLike


class ProbabilisticGraphDatabase:
    """``GraphCatalog.build`` behind a build-then-query handle."""

    def __init__(self, graphs: list[ProbabilisticGraph]) -> None:
        self.graphs = list(graphs)
        self._catalog: GraphCatalog | None = None

    def build_index(
        self,
        feature_config: FeatureSelectionConfig | None = None,
        bound_config: BoundConfig | None = None,
        rng: RandomLike = None,
    ) -> "ProbabilisticGraphDatabase":
        """Build the catalog: ``GraphCatalog.build`` with these arguments."""
        self.close()
        self._catalog = GraphCatalog.build(
            self.graphs, feature_config=feature_config, bound_config=bound_config, rng=rng
        )
        return self

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
        """:meth:`GraphCatalog.query`."""
        return self._indexed().query(
            query_graph, probability_threshold, distance_threshold, config, rng=rng
        )

    def query_top_k(
        self,
        query_graph: LabeledGraph,
        k: int,
        distance_threshold: int,
        config: SearchConfig | None = None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """:meth:`GraphCatalog.query_top_k`."""
        return self._indexed().query_top_k(query_graph, k, distance_threshold, config, rng=rng)

    def to_catalog(self, directory: str | Path | None = None) -> GraphCatalog:
        """A second catalog over the built index (no SIP bound is recomputed):
        :meth:`GraphCatalog.from_index`, durable when ``directory`` is given."""
        planner = self._indexed().planner()
        return GraphCatalog.from_index(
            self.graphs, planner.pmi, planner.structural_index, directory=directory
        )

    def close(self) -> None:
        """:meth:`GraphCatalog.close` (idempotent)."""
        if self._catalog is not None:
            self._catalog.close()
