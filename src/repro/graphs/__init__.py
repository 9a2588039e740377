"""Graph substrate: labeled deterministic graphs, probabilistic graphs with
correlated edges, generators and serialization."""

from repro.graphs.labeled_graph import Edge, LabeledGraph
from repro.graphs.neighbor_edges import neighbor_edge_sets, partition_into_neighbor_sets
from repro.graphs.probabilistic_graph import NeighborEdgeFactor, ProbabilisticGraph
from repro.graphs.variant_rows import VariantRows
from repro.graphs.canonical import canonical_form
from repro.graphs.generators import (
    random_labeled_graph,
    random_connected_labeled_graph,
    attach_independent_probabilities,
)
from repro.graphs import io

__all__ = [
    "Edge",
    "LabeledGraph",
    "NeighborEdgeFactor",
    "ProbabilisticGraph",
    "VariantRows",
    "canonical_form",
    "neighbor_edge_sets",
    "partition_into_neighbor_sets",
    "random_labeled_graph",
    "random_connected_labeled_graph",
    "attach_independent_probabilities",
    "io",
]
