"""Events (DNF clauses) as bit masks: their layout, canonical order and
normalization.

An event ``Bf`` (Equation 22) is the edge set of one relaxed-query embedding:
"every one of these edges is present".  One graph's events are one ``uint64``
matrix of shape ``(m, W)``, ``W = ceil(E / 64)``: a row per event, a bit per
edge of the graph, never a Python set per event.  The bits live in *rank
space*: bit ``b = E - 1 - rank`` (bit ``b % 64`` of word ``b // 64``) stands
for the edge whose rank under :func:`_edge_sort_key` is ``rank``.  Rank is not
the compiled world model's column order (``repr`` order, which pins the
sampler's draws); the batch kernel maps bits to columns per graph and never
renumbers its columns.

With that layout the canonical event order — size ascending, then the sorted
edge keys lexicographically, on the keys' own values, never on ``repr``
strings — is size ascending, then mask descending: one ``lexsort``
(:func:`normalize_masks`, the one normalizer).  The family join
(:mod:`repro.isomorphism.embeddings`) writes masks straight from its edge
codes; :mod:`repro.probability.batch_kernel` reads them and encodes the edge
key sets its public entry points still take.  Leaf module: numpy only.
"""

from __future__ import annotations

import numpy as np


def _vertex_sort_key(vertex) -> tuple:
    """Total order over vertex ids of mixed types (class name, then value).

    Mirrors :func:`repro.graphs.labeled_graph.edge_key`: hashable-but-
    unorderable vertex ids fall back to comparing their ``repr`` (the
    discriminator slot keeps orderable and fallback keys from ever being
    compared value-against-repr).
    """
    try:
        vertex < vertex  # orderability probe  # noqa: B015
        return (type(vertex).__name__, 0, vertex)
    except TypeError:
        return (type(vertex).__name__, 1, repr(vertex))


def _edge_sort_key(edge) -> tuple:
    """Canonical sort key of one edge key: its vertices' sort keys in order."""
    return tuple(_vertex_sort_key(vertex) for vertex in edge)


def mask_words(num_edges: int) -> int:
    """``W``: the ``uint64`` words of one event mask over ``num_edges`` edges."""
    return (num_edges + 63) // 64


def plain_order(vertex_ids) -> bool:
    """True when ids of one type are in strictly ascending order: then their
    own order is :func:`_vertex_sort_key`'s, and :func:`edge_key` orients every
    edge from its lower to its higher id."""
    if len({type(vertex) for vertex in vertex_ids}) > 1:
        return False
    try:
        return all(a < b for a, b in zip(vertex_ids, vertex_ids[1:]))
    except TypeError:
        return False


def edge_ranks(keys) -> np.ndarray:
    """Rank of each of a graph's edge keys under :func:`_edge_sort_key`."""
    keys, order = list(keys), None
    if len({type(vertex) for key in keys for vertex in key}) == 1:
        try:  # ids of one type compare as their sort keys do
            order = sorted(range(len(keys)), key=keys.__getitem__)
        except TypeError:
            pass
    if order is None:
        order = sorted(range(len(keys)), key=lambda at: _edge_sort_key(keys[at]))
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return ranks


def pack_bits(bits: np.ndarray, words: int) -> np.ndarray:
    """``(r, k)`` bit positions, distinct per row and -1 for none, as ``(r,
    words)`` masks (distinct powers of two: their sum is their OR)."""
    word, one = bits >> 6, np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    masks = np.empty((bits.shape[0], words), dtype=np.uint64)
    for w in range(words):
        masks[:, w] = np.where(word == w, one, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    return masks


def mask_bits(masks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``(m, len(bits))`` booleans: which rows of ``masks`` hold each bit."""
    shift = (bits & 63).astype(np.uint64)
    return ((masks[:, bits >> 6] >> shift) & np.uint64(1)).astype(bool)


def normalize_masks(
    masks: np.ndarray, owner: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each owner's (graph's) events deduplicated, emptied of absorbed ones and
    in canonical order; the rows come back grouped by ascending owner.

    An event is the conjunction "all of these edges are present", so if A ⊆ B
    then B implies A and A ∨ B collapses to A: supersets are dropped, which
    keeps every estimator cheaper without changing the union probability.
    Empty events are dropped too (no events means probability zero).  The
    subset test runs only for an owner whose event sizes differ; a
    deletion-only relaxed set gives every event the same size.
    """
    if owner is None:
        owner = np.zeros(masks.shape[0], dtype=np.int64)
    sizes = np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
    order = np.lexsort((*~masks.T, sizes, owner))  # the last word is the most significant
    masks, owner, sizes = masks[order], owner[order], sizes[order]
    keep = sizes > 0
    keep[1:] &= (owner[1:] != owner[:-1]) | (masks[1:] != masks[:-1]).any(axis=1)
    masks, owner, sizes = masks[keep], owner[keep], sizes[keep]
    if not owner.size:
        return masks, owner
    start = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    stop = np.append(start[1:], owner.size)
    mixed = sizes[start] != sizes[stop - 1]
    if not mixed.any():
        return masks, owner
    keep = np.ones(owner.size, dtype=bool)
    for a, b in zip(start[mixed].tolist(), stop[mixed].tolist()):
        group = masks[a:b]
        inside = ((group[:, None] & ~group[None]) == 0).all(axis=2)  # [i, j]: i ⊆ j
        np.fill_diagonal(inside, False)
        keep[a:b] = ~inside.any(axis=0)
    return masks[keep], owner[keep]
