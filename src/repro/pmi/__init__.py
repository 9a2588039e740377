"""Probabilistic Matrix Index (PMI): subgraph-isomorphism-probability bounds,
embedding/cut machinery, feature selection and the index itself."""

from repro.pmi.max_clique import maximum_weight_clique
from repro.pmi.embedding_graph import build_embedding_graph, best_disjoint_embeddings
from repro.pmi.cuts import (
    enumerate_embedding_cuts,
    best_disjoint_cuts,
)
from repro.pmi.bounds import SipBounds, compute_sip_bounds, BoundConfig
from repro.pmi.features import Feature, FeatureMiner, FeatureSelectionConfig
from repro.pmi.index import ProbabilisticMatrixIndex, PMIRow

__all__ = [
    "maximum_weight_clique",
    "build_embedding_graph",
    "best_disjoint_embeddings",
    "enumerate_embedding_cuts",
    "best_disjoint_cuts",
    "SipBounds",
    "compute_sip_bounds",
    "BoundConfig",
    "Feature",
    "FeatureMiner",
    "FeatureSelectionConfig",
    "ProbabilisticMatrixIndex",
    "PMIRow",
]
