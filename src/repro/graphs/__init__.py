"""Graph substrate: labeled deterministic graphs, probabilistic graphs with
correlated edges, their neighbor-edge partition and serialization."""

from repro.graphs.labeled_graph import Edge, LabeledGraph
from repro.graphs.neighbor_edges import partition_into_neighbor_sets
from repro.graphs.probabilistic_graph import NeighborEdgeFactor, ProbabilisticGraph
from repro.graphs.variant_rows import VariantRows
from repro.graphs.canonical import canonical_form
from repro.graphs import io

__all__ = [
    "Edge",
    "LabeledGraph",
    "NeighborEdgeFactor",
    "ProbabilisticGraph",
    "VariantRows",
    "canonical_form",
    "partition_into_neighbor_sets",
    "io",
]
