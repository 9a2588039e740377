"""repro — probabilistic subgraph similarity search with the PMI index.

A from-scratch Python reproduction of "Efficient Subgraph Similarity Search
on Large Probabilistic Graph Databases" (Yuan, Wang, Chen & Wang, VLDB 2012).

The public API mirrors the paper's pipeline:

* :class:`~repro.graphs.LabeledGraph` / :class:`~repro.graphs.ProbabilisticGraph`
  — the data model (Definitions 1–3);
* :class:`~repro.core.ProbabilisticGraphDatabase` — the filter-and-verify
  engine (structural pruning → PMI probabilistic pruning → verification);
* :class:`~repro.pmi.ProbabilisticMatrixIndex` — the PMI index with SIP
  bounds per (feature, graph) cell;
* :mod:`repro.datasets` — synthetic STRING/PPI, road and social network
  generators plus query workloads;
* :mod:`repro.baselines` — the Exact scan and independent-edge (IND) models.

The definitions themselves — possible-world enumeration, subgraph distance,
the exact SIP — are oracles in :mod:`repro.reference`, which tests and
benchmarks import and the library does not.

Quickstart::

    from repro import ProbabilisticGraphDatabase, generate_ppi_database
    from repro.datasets import generate_query_workload

    data = generate_ppi_database(rng=7)
    db = ProbabilisticGraphDatabase(data.graphs).build_index(rng=7)
    workload = generate_query_workload(data.graphs, query_size=4,
                                        num_queries=5, rng=7)
    result = db.query(workload.queries()[0], probability_threshold=0.5,
                      distance_threshold=1)
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
    ProbabilisticGraphDatabase,
    QueryPlanner,
    ShardedPlanner,
    SearchConfig,
    Verifier,
    VerificationConfig,
    relax_query,
    RelaxationConfig,
    PruningConfig,
    QueryResult,
    QueryAnswer,
    aggregate_statistics,
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
    "ProbabilisticGraphDatabase",
    "QueryPlanner",
    "ShardedPlanner",
    "SearchConfig",
    "aggregate_statistics",
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
