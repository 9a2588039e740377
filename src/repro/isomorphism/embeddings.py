"""Embedding enumeration (the ``Ef`` sets of Section 4.1).

An *embedding* of feature ``f`` in graph ``gc`` is the subgraph of ``gc``
that one subgraph-isomorphism mapping covers (Definition 5).  Distinct
mappings that cover the same edge set (automorphisms of the feature) are the
same embedding, so embeddings are deduplicated by their edge-key sets.  They
drive both bounds of the PMI index: the lower bound uses disjoint embeddings
(Equation 17), the upper bound embedding cuts (Equation 20).

Enumeration is by block (one pattern, many graphs, one join — see
:mod:`repro.isomorphism.generic_join`); every returned list is in the
canonical order (sorted by repr of the sorted edge-key set), so an
untruncated list does not depend on the order the join discovered it in.
The cap applies to distinct embeddings per graph, and truncation is
*surfaced*: a ``truncated`` flag per graph plus a module-level counter
record when the cap actually bit.

Verification's events (:func:`find_family_events_block`) come from one
shared pass over every relaxed variant (each is the query minus edges) and
skip the ``Embedding`` objects: the edge codes of the join's rows become each
candidate's event masks (:mod:`repro.probability.events`) through a per-graph
table of the mask bit of every row of its edge table, built on the graph's
first verification and kept until its ``mutation_version`` moves.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph, edge_key
from repro.isomorphism import generic_join
from repro.isomorphism.generic_join import GraphBlock, VariantFamily
from repro.probability.events import edge_ranks, mask_words, normalize_masks, pack_bits, plain_order

DEFAULT_EMBEDDING_LIMIT = 200

logger = logging.getLogger(__name__)

# how many (pattern, graph) enumerations hit their limit with matches left
# over; read via truncation_count(), reset via reset_truncation_count()
_truncation_count = 0


def truncation_count() -> int:
    """Number of enumerations (since last reset) that were truncated."""
    return _truncation_count


def reset_truncation_count() -> None:
    global _truncation_count
    _truncation_count = 0


# blocks of find_family_events_block that left the shared pass and were rerun
# per variant (limit, cap); read via family_reroute_count()
_family_reroutes = 0


def family_reroute_count() -> int:
    """Number of blocks (since the last reset) rerun per variant."""
    return _family_reroutes


def reset_family_reroute_count() -> None:
    global _family_reroutes
    _family_reroutes = 0


@dataclass(frozen=True)
class Embedding:
    """One embedding: the covered target edges and vertices."""

    edges: frozenset  # of edge keys
    vertices: frozenset

    def overlaps(self, other: "Embedding") -> bool:
        """True when the two embeddings share at least one edge.

        The paper's disjointness notion for Equation 17 is on *common parts
        (edges)*; vertex sharing alone does not make embeddings overlap.
        """
        return bool(self.edges & other.edges)

    def is_edge_disjoint(self, other: "Embedding") -> bool:
        return not self.overlaps(other)


@dataclass(frozen=True)
class EmbeddingEnumeration:
    """Result of one enumeration: the embeddings plus whether the cap bit."""

    embeddings: list
    truncated: bool


def enumerate_embeddings_block(
    pattern: LabeledGraph,
    targets: Iterable[LabeledGraph] | GraphBlock,
    limit: int | None = DEFAULT_EMBEDDING_LIMIT,
    label_sensitive: bool = True,
) -> list[EmbeddingEnumeration]:
    """All distinct embeddings of ``pattern`` in every target of a block,
    each list with its truncation flag, from one join over the whole block.

    ``targets`` is an iterable of graphs (stacked on the fly from their
    cached edge tables) or a :class:`GraphBlock`.  The rows of the one join
    are deduplicated together and split by graph id; ``limit`` (a cap on
    distinct embeddings, ``None`` for none), the ``truncated`` flag and the
    canonical sort apply per graph, so entry ``k`` equals what the block of
    ``targets[k]`` alone returns.  When the cap bites, a graph keeps the first
    ``limit`` embeddings of the join's discovery order.
    """
    block = GraphBlock.of(targets)
    size = len(block.graphs)
    results = [EmbeddingEnumeration(embeddings=[], truncated=False) for _ in range(size)]
    if pattern.num_edges == 0 or size == 0:
        return results
    plan, rows, counts, cut = generic_join.distinct_embedding_rows(
        pattern, block.table, limit, label_sensitive
    )
    ids = block.table.vertex_ids
    found = [
        Embedding(
            edges=frozenset(edge_key(ids[row[i]], ids[row[j]]) for i, j in plan.pattern_edges),
            vertices=frozenset(ids[image] for image in row),
        )
        for row in rows.tolist()
    ]
    stop = 0  # split by graph: the rows are graph-major
    for position in np.flatnonzero(counts).tolist():
        start, stop = stop, stop + int(counts[position])
        embeddings = found[start:stop]
        if len(embeddings) > 1:  # the canonical final order
            embeddings.sort(key=lambda e: repr(sorted(e.edges, key=repr)))
        results[position] = EmbeddingEnumeration(embeddings, bool(cut[position]))
    _note_truncations(sum(result.truncated for result in results), limit, pattern)
    return results


def _note_truncations(cut: int, limit: int | None, pattern: LabeledGraph) -> None:
    global _truncation_count
    if cut:
        _truncation_count += cut
        logger.debug("enumeration of %r truncated at limit=%s in %d target(s)", pattern, limit, cut)


def find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = DEFAULT_EMBEDDING_LIMIT,
    label_sensitive: bool = True,
) -> list[Embedding]:
    """All distinct embeddings of ``pattern`` in ``target`` (canonical order);
    truncation is still counted and logged."""
    return enumerate_embeddings_block(pattern, (target,), limit, label_sensitive)[0].embeddings


def find_embeddings_block(
    pattern: LabeledGraph,
    targets: Iterable[LabeledGraph] | GraphBlock,
    limit: int | None = DEFAULT_EMBEDDING_LIMIT,
    label_sensitive: bool = True,
) -> list[list[Embedding]]:
    """Embeddings of one ``pattern`` in every target of a block: one join
    over the stacked block, split by graph id (see
    :func:`enumerate_embeddings_block`); entry ``k`` is exactly
    ``find_embeddings(pattern, targets[k])``."""
    results = enumerate_embeddings_block(pattern, targets, limit, label_sensitive)
    return [result.embeddings for result in results]


def find_family_events_block(
    family: VariantFamily | None,
    variants: Sequence[LabeledGraph],
    targets: Iterable[LabeledGraph] | GraphBlock,
    limit: int | None = DEFAULT_EMBEDDING_LIMIT,
) -> list[np.ndarray]:
    """Per target, the events of Equation 22 — the edge sets of the embeddings
    of every variant — as its normalised mask matrix (``(m, W)`` ``uint64``,
    canonical order: :func:`repro.probability.events.normalize_masks`).

    The variants of ``family`` (``compile_variant_family(query, variants)``)
    share one pass.  Without a family, past the branch cap, or when a
    (variant, target) holds more than ``limit`` distinct embeddings
    (truncation stays the per-variant one), every variant is joined on its
    own.  Either way the rows' edge codes become masks in one conversion and
    the whole block is normalised by one ``lexsort``."""
    global _family_reroutes
    block = GraphBlock.of(targets)
    if not block.graphs:
        return []
    if family is not None:
        try:
            # (edge codes, -1 where none, and owning graph) per source of rows
            found = [_shared_pass_codes(family, block.table, limit)]
        except (generic_join.GenericJoinOverflow, _OverLimit) as reason:
            _family_reroutes += 1
            logger.debug("family pass rerun per variant: %s", reason)
            family = None
    if family is None:
        found = [_variant_codes(variant, block.table, limit) for variant in variants]
    masks, owner = normalize_masks(*_code_masks(block, found))
    bounds = np.searchsorted(owner, np.arange(len(block.graphs) + 1)).tolist()
    return [
        masks[bounds[g] : bounds[g + 1], : mask_words(graph.num_edges)]
        for g, graph in enumerate(block.graphs)
    ]


class _OverLimit(Exception):
    """Some (member, graph) of a family pass holds more embeddings than the limit."""


def _shared_pass_codes(
    family: VariantFamily, table: generic_join.EdgeTable, limit: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The members' distinct edge sets off the rows of one pass: their codes
    and the graph of the block each belongs to."""
    assign, variant = generic_join.execute_variant_family(family, table)
    # the edges a row's member requires; equal edge sets adjacent, ordered by member
    order, codes, new_set = generic_join.edge_set_runs(
        assign, family.edge_ends, table, family.required[variant], ties=(variant,)
    )
    variant = variant[order]
    # any edge names the row's graph (a row without one is an empty event, dropped)
    graph = table.graph_of[codes.max(axis=1, initial=-1) // table.num_vertices]
    if limit is not None:
        # distinct embeddings per (graph, member): what the per-variant cap counts
        new_pair = new_set.copy()
        new_pair[1:] |= variant[1:] != variant[:-1]
        pair = graph[new_pair] * family.required.shape[0] + variant[new_pair]
        if np.bincount(pair, minlength=1).max() > limit:
            raise _OverLimit(f"more than limit={limit} embeddings of one variant in one graph")
    return codes[new_set], graph[new_set]


def _variant_codes(
    pattern: LabeledGraph, table: generic_join.EdgeTable, limit: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """One variant's distinct embeddings in the block, capped and counted as
    :func:`find_embeddings_block` caps and counts them: their edge codes and graphs."""
    if not pattern.num_edges:
        return np.empty((0, 0), dtype=np.int64), np.empty(0, dtype=np.int64)
    plan, rows, _, cut = generic_join.distinct_embedding_rows(pattern, table, limit)
    _note_truncations(int(cut.sum()), limit, pattern)
    codes = generic_join._edge_codes(rows, np.array(plan.pattern_edges).T, table)
    return codes, table.graph_of[rows[:, 0]]


def _code_masks(block: GraphBlock, found: list) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``found`` as mask rows of the block's widest graph, and the
    graph of each.  A code is the position of its edge in the stacked table,
    where each graph's rows sit in its own table's order, so one lookup in the
    concatenation of the graphs' bit tables (:func:`_edge_bits`) is its bit."""
    table, graphs = block.table, block.graphs
    words = max(mask_words(graph.num_edges) for graph in graphs)
    if not found:
        return np.zeros((0, words), dtype=np.uint64), np.zeros(0, dtype=np.int64)
    bit_of_row = np.concatenate([_edge_bits(graph) for graph in graphs])
    masks = []
    for codes, _ in found:
        bits = np.full(codes.shape, -1, dtype=np.int64)
        present = codes >= 0
        bits[present] = bit_of_row[np.searchsorted(table.edge_codes, codes[present])]
        masks.append(pack_bits(bits, words))
    return np.concatenate(masks), np.concatenate([graph for _, graph in found])


def _edge_bits(graph: LabeledGraph) -> np.ndarray:
    """Per row of the graph's edge table, the mask bit of its edge: ``E - 1 -``
    the edge's rank under the canonical edge order.  Built on the graph's first
    verification — never by a mutation or a recovery, which compile no events
    — and kept until its ``mutation_version`` moves."""
    return generic_join._memoised(graph, "_event_bits", _build_edge_bits)


def _build_edge_bits(graph: LabeledGraph) -> np.ndarray:
    table = generic_join.compile_edge_table(graph)
    src, dst, n = table.src, table.dst, table.num_vertices
    up = src < dst  # one row per edge, in (src, dst) order
    if plain_order(table.vertex_ids):  # that order is the canonical one
        ranks = np.arange(int(up.sum()))
    else:
        ids = table.vertex_ids
        ranks = edge_ranks(
            edge_key(ids[u], ids[v]) for u, v in zip(src[up].tolist(), dst[up].tolist())
        )
    twin = np.searchsorted(table.edge_codes[up], np.minimum(src, dst) * n + np.maximum(src, dst))
    return (ranks.size - 1 - ranks)[twin]


def count_embeddings_block(
    pattern: LabeledGraph,
    targets: Iterable[LabeledGraph] | GraphBlock,
    limit: int | None = DEFAULT_EMBEDDING_LIMIT,
    label_sensitive: bool = True,
) -> list[int]:
    """Embedding counts of one ``pattern`` across a block (capped at ``limit``),
    read off the join's per-graph distinct-row counts: no ``Embedding`` is built."""
    block = GraphBlock.of(targets)
    if not (pattern.num_edges and block.graphs):
        return [0] * len(block.graphs)
    _, _, counts, truncated = generic_join.distinct_embedding_rows(
        pattern, block.table, limit, label_sensitive
    )
    _note_truncations(int(truncated.sum()), limit, pattern)
    return counts.tolist()


def maximal_disjoint_embeddings(embeddings: list[Embedding]) -> list[Embedding]:
    """A greedy maximal set of pairwise edge-disjoint embeddings.

    Used by the feature-selection frequency measure (``|IN| / |Ef|`` in
    Section 4.2) where an exact maximum independent set would be overkill;
    the exact maximum-weight variant lives in :mod:`repro.pmi.embedding_graph`.
    """
    chosen: list[Embedding] = []
    order = lambda e: (len(e.edges), repr(sorted(e.edges, key=repr)))
    for embedding in sorted(embeddings, key=order):
        if all(embedding.is_edge_disjoint(existing) for existing in chosen):
            chosen.append(embedding)
    return chosen
