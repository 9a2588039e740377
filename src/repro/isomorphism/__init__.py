"""Subgraph isomorphism machinery: the vectorized generic-join engine and
embedding enumeration."""

from repro.isomorphism.generic_join import (
    GenericJoinOverflow,
    GraphBlock,
    compile_edge_table,
    compile_join_plan,
    connectivity_order,
    is_subgraph_isomorphic,
    match_block,
)
from repro.isomorphism.embeddings import (
    Embedding,
    EmbeddingEnumeration,
    enumerate_embeddings_block,
    find_embeddings,
    find_embeddings_block,
    count_embeddings_block,
)

__all__ = [
    "connectivity_order",
    "is_subgraph_isomorphic",
    "GenericJoinOverflow",
    "GraphBlock",
    "compile_edge_table",
    "compile_join_plan",
    "match_block",
    "Embedding",
    "EmbeddingEnumeration",
    "enumerate_embeddings_block",
    "find_embeddings",
    "find_embeddings_block",
    "count_embeddings_block",
]
