"""A Grafil-style deterministic feature-count index.

The paper performs structural pruning with the substructure-similarity filter
of Yan, Yu & Han [38]: per-feature occurrence counts in the query are
compared against per-graph counts, and a graph survives only if the total
"missed" feature occurrences can be explained by ``δ`` edge relaxations of
the query.  The original multi-filter composition is proprietary-ish C++; we
reproduce its core counting filter:

* each indexed feature ``f`` has an occurrence count ``cnt_g(f)`` per data
  graph (number of distinct embeddings, capped),
* for a query ``q`` with threshold ``δ`` the maximum number of feature
  occurrences a single edge deletion can destroy is ``maxhit_q(f)``
  (the largest number of ``f``-embeddings in ``q`` sharing one edge), so any
  data graph with ``cnt_g(f) < cnt_q(f) - δ · maxhit_q(f)`` for some feature
  — or, in the composed form, whose accumulated deficit exceeds the
  allowance — cannot contain ``q`` within distance ``δ`` and is pruned
  (Theorem 1 keeps this sound for probabilistic graphs).

An index always holds two parts over the same rows.  Counts are a dense
``int32`` matrix ``counts[graph, feature]``, so the per-query deficit test
runs as one vectorized pass over the whole database
(:meth:`StructuralFeatureIndex.deficit_prunable_mask`).  Beside it sits
:class:`SignaturePostings`: every graph's edge-signature counts, inverted,
from which :meth:`StructuralFeatureIndex.signature_missing` reads the
edge-signature distance bound of the whole database without opening a graph.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph
from repro.isomorphism.embeddings import (
    Embedding,
    EmbeddingEnumeration,
    count_embeddings_block,
    enumerate_embeddings_block,
)
from repro.isomorphism.generic_join import GraphBlock
from repro.pmi.features import Feature, feature_fingerprint
from repro.utils.rows import resolve_row_selector
from repro.exceptions import ConfigurationError, StateError


class SignaturePostings:
    """Per-graph edge-signature counts as an inverted index.

    ``codes`` numbers the distinct signatures (:meth:`LabeledGraph.edge_signature`)
    in first-seen order; signature ``c`` occurs ``counts[k]`` times in graph
    ``rows[k]`` for ``k`` in ``code_offsets[c]:code_offsets[c + 1]``, each graph
    at most once.  Bytes follow the edges, not the label alphabet.  Derived from
    the graphs wherever they are loaded, never persisted.
    """

    def __init__(self, codes: dict, code_offsets, rows, counts, num_graphs: int) -> None:
        self.codes = codes
        self.code_offsets = code_offsets
        self.rows = rows
        self.counts = counts
        self.num_graphs = num_graphs

    @classmethod
    def from_entries(cls, codes: dict, entry_codes, rows, counts, num_graphs: int):
        """Group ``(signature code, graph, count)`` entries by code."""
        order = np.argsort(entry_codes, kind="stable")
        offsets = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_codes, minlength=len(codes)), out=offsets[1:])
        return cls(
            codes, offsets, rows[order].astype(np.int32), counts[order].astype(np.int32), num_graphs
        )

    @classmethod
    def build(cls, skeletons) -> "SignaturePostings":
        """Index ``edge_signature_counts()`` of every skeleton, in order."""
        counters = [skeleton.edge_signature_counts() for skeleton in skeletons]
        codes: dict = {}
        entry_codes = [codes.setdefault(s, len(codes)) for counter in counters for s in counter]
        counts = [count for counter in counters for count in counter.values()]
        rows = np.repeat(np.arange(len(counters)), [len(counter) for counter in counters])
        return cls.from_entries(
            codes,
            np.array(entry_codes, dtype=np.int64),
            rows,
            np.array(counts, dtype=np.int64),
            len(counters),
        )

    @classmethod
    def concat(cls, parts: list["SignaturePostings"]) -> "SignaturePostings":
        """Row-stack postings: equal, field for field, to :meth:`build` over
        the parts' graphs in order.  The first part's codes stay as they are;
        a later part's signature new to the dictionary takes the next code,
        in that part's first-seen order — the order a build would give it."""
        first = parts[0]
        codes = dict(first.codes)
        entry_codes, rows, counts = [first.entry_codes()], [first.rows], [first.counts]
        offset = first.num_graphs
        for part in parts[1:]:
            mapping = np.array(
                [codes.setdefault(signature, len(codes)) for signature in part.codes],
                dtype=np.int64,
            )
            entry_codes.append(mapping[part.entry_codes()])
            rows.append(part.rows + offset)
            counts.append(part.counts)
            offset += part.num_graphs
        return cls.from_entries(
            codes, np.concatenate(entry_codes), np.concatenate(rows), np.concatenate(counts), offset
        )

    def entry_codes(self) -> np.ndarray:
        """The signature code of every entry, in entry order."""
        return np.repeat(np.arange(len(self.codes)), np.diff(self.code_offsets))

    def take(self, graph_ids) -> "SignaturePostings":
        """Row ``k`` of the result is old row ``graph_ids[k]`` (any order, repeats kept)."""
        ids = np.arange(self.num_graphs)[graph_ids]
        by_row = np.argsort(self.rows, kind="stable")
        starts = np.searchsorted(self.rows[by_row], np.arange(self.num_graphs + 1))
        lengths = starts[ids + 1] - starts[ids]
        first = np.cumsum(lengths) - lengths  # where each picked row's entries land
        picked = by_row[np.repeat(starts[ids] - first, lengths) + np.arange(lengths.sum())]
        return self.from_entries(
            self.codes,
            self.entry_codes()[picked],
            np.repeat(np.arange(ids.size), lengths),
            self.counts[picked],
            ids.size,
        )

    def missing(self, query: LabeledGraph) -> np.ndarray:
        """``|E(q)| − Σ_sig min(cnt_q, cnt_g)`` for every graph ``g``: the query
        edges no edge of ``g`` can absorb (a signature outside the dictionary
        is missing from every graph)."""
        matched = np.zeros(self.num_graphs, dtype=np.int64)
        for signature, count in query.edge_signature_counts().items():
            code = self.codes.get(signature)
            if code is not None:
                span = slice(self.code_offsets[code], self.code_offsets[code + 1])
                matched[self.rows[span]] += np.minimum(self.counts[span], count)
        return query.num_edges - matched


class StructuralFeatureIndex:
    """Columnar per-graph feature occurrence counts — and edge-signature
    postings — for the structural filter."""

    def __init__(self, embedding_limit: int = 64) -> None:
        self.embedding_limit = embedding_limit
        self.features: list[Feature] = []
        self._counts: np.ndarray = np.empty((0, 0), dtype=np.int32)
        self.signatures = SignaturePostings.build(())
        self._feature_pos: dict[int, int] = {}
        self._built = False

    @classmethod
    def from_counts(
        cls,
        features: list[Feature],
        counts: np.ndarray,
        signatures: SignaturePostings,
        embedding_limit: int = 64,
    ) -> "StructuralFeatureIndex":
        """Reconstruct an index from a persisted ``counts[graph, feature]``
        matrix (the snapshot-open path), skipping embedding enumeration.
        ``signatures`` is the same rows' second segment (it is never
        persisted: the caller reads it off the graphs), so it must cover
        exactly as many rows as ``counts``.
        """
        if counts.shape[1] != len(features):
            raise ConfigurationError(
                f"counts matrix has {counts.shape[1]} feature columns, "
                f"got {len(features)} features"
            )
        if signatures.num_graphs != counts.shape[0]:
            raise ConfigurationError(
                f"signature postings cover {signatures.num_graphs} graphs, "
                f"the counts matrix {counts.shape[0]}"
            )
        index = cls(embedding_limit=embedding_limit)
        index.features = list(features)
        index._feature_pos = {
            feature.feature_id: column for column, feature in enumerate(index.features)
        }
        index._counts = np.array(counts, dtype=np.int32)  # own the buffer
        index.signatures = signatures
        index._built = True
        return index

    def build(
        self, skeletons: list[LabeledGraph], features: list[Feature]
    ) -> "StructuralFeatureIndex":
        """Count every feature's embeddings in every skeleton."""
        self.features = list(features)
        self._feature_pos = {
            feature.feature_id: column for column, feature in enumerate(self.features)
        }
        self._counts = self._count_matrix(skeletons)
        self.signatures = SignaturePostings.build(skeletons)
        self._built = True
        return self

    def _count_matrix(self, skeletons: list[LabeledGraph]) -> np.ndarray:
        """``counts[graph, feature]`` for a batch of skeletons.

        Filled feature-major: the skeletons are stacked once and each
        feature is one join over the whole block, its column read off the
        join's per-graph distinct-embedding counts (counting is
        deterministic and RNG-free, so the fill order does not affect
        results).
        """
        counts = np.zeros((len(skeletons), len(self.features)), dtype=np.int32)
        block = GraphBlock(skeletons)
        for column, feature in enumerate(self.features):
            counts[:, column] = count_embeddings_block(
                feature.graph, block, limit=self.embedding_limit
            )
        return counts

    @classmethod
    def concat_rows(cls, parts: list["StructuralFeatureIndex"]) -> "StructuralFeatureIndex":
        """Row-stack built indexes over one feature set into a fresh index:
        counts stacked, postings merged (:meth:`SignaturePostings.concat`),
        so the result equals one :meth:`build` over the parts' skeletons.
        This is how a catalog appends a mutation's row.  The query-side
        ``embedding_limit`` is the first part's.  Raises
        :class:`ConfigurationError` when a part's ``(feature_id, canonical)``
        list is not the first part's.
        """
        first = parts[0]
        fingerprint = feature_fingerprint(first.features)
        for part in parts:
            if not part._built:
                raise StateError("the structural feature index must be built first")
            if feature_fingerprint(part.features) != fingerprint:
                raise ConfigurationError(
                    "concat_rows() requires identical features in every part"
                )
        merged = cls(embedding_limit=first.embedding_limit)
        merged.features = list(first.features)
        merged._feature_pos = dict(first._feature_pos)
        merged._counts = np.vstack([part._counts for part in parts])
        merged.signatures = SignaturePostings.concat([part.signatures for part in parts])
        merged._built = True
        return merged

    def subset(self, graph_ids) -> "StructuralFeatureIndex":
        """A new index over the given rows of the count matrix.

        Mirrors :meth:`ProbabilisticMatrixIndex.subset`: row ``k`` of the
        slice is old row ``graph_ids[k]``, features are shared, and
        contiguous ascending ranges keep a zero-copy view of the counts.
        Used to adopt a built index into a catalog and to compact one.
        """
        if not self._built:
            raise StateError("the structural feature index must be built first")
        _, selector = resolve_row_selector(graph_ids, self._counts.shape[0])
        sub = StructuralFeatureIndex(embedding_limit=self.embedding_limit)
        sub.features = list(self.features)
        sub._feature_pos = dict(self._feature_pos)
        sub._counts = self._counts[selector]
        sub.signatures = self.signatures.take(selector)
        sub._built = True
        return sub

    def counts_matrix(self) -> np.ndarray:
        """The raw ``counts[graph, feature]`` matrix (read-only view; this is
        what :meth:`from_counts` restores when a snapshot is opened)."""
        if not self._built:
            raise StateError("the structural feature index must be built first")
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def is_built(self) -> bool:
        return self._built

    @property
    def num_graphs(self) -> int:
        return self._counts.shape[0]

    def query_embeddings(self, query: LabeledGraph) -> dict[int, EmbeddingEnumeration]:
        """Every feature's embeddings in the query (capped at ``embedding_limit``)
        by feature id: what a plan reads both the count profile and the
        ``f ⊆iso rq`` relations from.  A single-edge feature's are the query's
        edges of its signature, read off the edge list; a larger one (or one
        the cap would cut: the cap picks in the join's discovery order) is one
        join into the query's cached edge table."""
        by_signature: dict = {}  # each list in the enumeration's canonical order
        for key in sorted(query.edge_keys(), key=lambda key: repr([key])):
            by_signature.setdefault(query.edge_signature(key), []).append(key)
        block, limit, found = None, self.embedding_limit, {}
        for feature in self.features:
            keys = None
            if feature.num_edges == 1 and feature.num_vertices == 2:
                (signature,) = feature.graph.edge_signature_counts()
                keys = by_signature.get(signature, ())
            if keys is None or (limit is not None and len(keys) > limit):
                block = block or GraphBlock([query])
                found[feature.feature_id] = enumerate_embeddings_block(
                    feature.graph, block, limit=limit
                )[0]
            else:
                found[feature.feature_id] = EmbeddingEnumeration(
                    [Embedding(frozenset((key,)), frozenset(key)) for key in keys], False
                )
        return found

    def query_profile(self, query: LabeledGraph) -> dict[int, dict]:
        """:meth:`count_profile` of the query's :meth:`query_embeddings`."""
        return self.count_profile(self.query_embeddings(query))

    @staticmethod
    def count_profile(embeddings: dict[int, EmbeddingEnumeration]) -> dict[int, dict]:
        """Feature occurrence statistics of a query, from its :meth:`query_embeddings`.

        For each feature occurring in the query: its embedding count and the
        maximum number of embeddings that share a single query edge (how many
        occurrences one edge deletion can destroy at most).
        """
        profile: dict[int, dict] = {}
        for feature_id, found in embeddings.items():
            if not found.embeddings:
                continue
            per_edge = Counter(key for embedding in found.embeddings for key in embedding.edges)
            profile[feature_id] = {
                "count": len(found.embeddings),
                "max_hits_per_edge": max(per_edge.values(), default=0),
            }
        return profile

    def deficit_prunable_mask(
        self, query_profile: dict[int, dict], distance_threshold: int
    ) -> np.ndarray:
        """Vectorized Grafil deficit test over every graph at once.

        Returns a boolean mask over graph ids: True where some profiled
        feature's occurrence deficit exceeds what ``δ`` edge relaxations can
        explain — exactly the per-graph test of
        ``cnt_q(f) - cnt_g(f) > δ · maxhit_q(f)`` applied column-wise.
        """
        mask = np.zeros(self._counts.shape[0], dtype=bool)
        for feature_id, stats in query_profile.items():
            column = self._feature_pos.get(feature_id)
            if column is None:
                continue
            allowance = distance_threshold * max(1, stats["max_hits_per_edge"])
            deficit = stats["count"] - self._counts[:, column]
            mask |= deficit > allowance
        return mask

    def signature_missing(self, query: LabeledGraph) -> np.ndarray:
        """Per graph, a lower bound on ``dis(query, g)`` — the scalar
        ``repro.reference.signature_distance_lower_bound(query, skeleton)`` —
        in one pass over the postings."""
        return self.signatures.missing(query)
