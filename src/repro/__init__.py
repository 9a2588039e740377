"""repro — probabilistic subgraph similarity search with the PMI index.

A from-scratch Python reproduction of "Efficient Subgraph Similarity Search
on Large Probabilistic Graph Databases" (Yuan, Wang, Chen & Wang, VLDB 2012).

The public API mirrors the paper's pipeline:

* :class:`~repro.graphs.LabeledGraph` / :class:`~repro.graphs.ProbabilisticGraph`
  — the data model (Definitions 1–3);
* :class:`~repro.core.GraphCatalog` — the front door of every query: the
  filter-and-verify engine (structural pruning → PMI probabilistic pruning →
  verification) over a mutable, optionally durable database;
* :class:`~repro.pmi.ProbabilisticMatrixIndex` — the PMI index with SIP
  bounds per (feature, graph) cell;
* :mod:`repro.datasets` — synthetic STRING/PPI, road and social network
  generators plus query workloads;
* :mod:`repro.baselines` — the Exact scan and independent-edge (IND) models.

The definitions themselves — possible-world enumeration, subgraph distance,
the exact SIP — are oracles in :mod:`repro.reference`, which tests and
benchmarks import and the library does not.

Quickstart (a doctest, run in CI)::

    >>> from repro import GraphCatalog, generate_ppi_database, generate_query_workload
    >>> from repro.datasets import PPIDatasetConfig
    >>> from repro.pmi import BoundConfig, FeatureSelectionConfig
    >>> data = generate_ppi_database(
    ...     PPIDatasetConfig(num_graphs=8, vertices_per_graph=10, edges_per_graph=13), rng=7
    ... )
    >>> catalog = GraphCatalog.build(
    ...     data.graphs,
    ...     feature_config=FeatureSelectionConfig(max_vertices=3, max_features=8),
    ...     bound_config=BoundConfig(num_samples=40),
    ...     rng=7,
    ... )
    >>> workload = generate_query_workload(data.graphs, query_size=3, num_queries=1, rng=7)
    >>> query = workload.queries()[0]
    >>> result = catalog.query(query, probability_threshold=0.3, distance_threshold=1, rng=7)
    >>> [(a.graph_id, round(a.probability, 3), a.decided_by) for a in result.answers]
    [(5, 0.429, 'verification')]
    >>> top = catalog.query_top_k(query, k=2, distance_threshold=1, rng=7)
    >>> [a.graph_id for a in top.answers]
    [5]
    >>> catalog.remove_graph(5)
    >>> catalog.query(query, probability_threshold=0.3, distance_threshold=1, rng=7).answers
    []
    >>> catalog.close()
"""

from repro.graphs import LabeledGraph, ProbabilisticGraph, NeighborEdgeFactor
from repro.probability import JointProbabilityTable, Factor
from repro.isomorphism import (
    is_subgraph_isomorphic,
    find_embeddings,
    find_embeddings_block,
    match_block,
)
from repro.pmi import (
    ProbabilisticMatrixIndex,
    PMIRow,
    BoundConfig,
    FeatureSelectionConfig,
    compute_sip_bounds,
)
from repro.core import (
    GraphCatalog,
    QueryPlanner,
    SearchConfig,
    Verifier,
    VerificationConfig,
    relax_query,
    RelaxationConfig,
    PruningConfig,
    QueryResult,
    QueryAnswer,
)
from repro.baselines import ExactScanBaseline, to_independent_model
from repro.datasets import (
    generate_ppi_database,
    generate_query_workload,
    generate_road_network,
    generate_social_network,
)

__version__ = "1.0.0"

__all__ = [
    "LabeledGraph",
    "ProbabilisticGraph",
    "NeighborEdgeFactor",
    "JointProbabilityTable",
    "Factor",
    "is_subgraph_isomorphic",
    "find_embeddings",
    "find_embeddings_block",
    "match_block",
    "ProbabilisticMatrixIndex",
    "PMIRow",
    "BoundConfig",
    "FeatureSelectionConfig",
    "compute_sip_bounds",
    "GraphCatalog",
    "QueryPlanner",
    "SearchConfig",
    "Verifier",
    "VerificationConfig",
    "relax_query",
    "RelaxationConfig",
    "PruningConfig",
    "QueryResult",
    "QueryAnswer",
    "ExactScanBaseline",
    "to_independent_model",
    "generate_ppi_database",
    "generate_query_workload",
    "generate_road_network",
    "generate_social_network",
    "__version__",
]
