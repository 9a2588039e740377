"""Probabilistic pruning (Section 3): SSP bounds and Pruning conditions 1 & 2.

For each candidate graph that survived structural pruning, the pruner derives
an upper bound ``Usim(q)`` and a lower bound ``Lsim(q)`` of the subgraph
similarity probability from the PMI's per-feature SIP bounds:

* **Pruning 1 (subgraph pruning, Theorem 3)** — features contained in the
  relaxed queries give ``Usim``; if ``Usim < ε`` the graph is pruned.
* **Pruning 2 (super-graph pruning, Theorem 4)** — features containing the
  relaxed queries give ``Lsim``; if ``Lsim ≥ ε`` the graph is accepted
  without verification.

The *tightest* bounds use weighted set cover (Algorithm 1) and the QP
rounding scheme (Algorithm 2); the plain variants pick one arbitrary feature
per relaxed query, matching the SSPBound / OPT-SSPBound split in the paper's
experiments.

The feature-vs-relaxed-query containment relations depend only on the query,
not on the candidate graph, so :meth:`ProbabilisticPruner.prepare` computes
them once per query and every candidate reuses them: ``f ⊆iso rq`` is read off
``f``'s embeddings in the query itself (a relaxed query is the query minus
some edges — a row of the relaxed set's ``kept`` matrix — and contains ``f``
iff one of those embeddings uses no edge the row deleted; the planner
enumerates them once, for the structural count profile too), ``rq ⊆iso f`` is
one join per small-enough relaxed query over the stacked features, its size
read off the row before any graph is built.  Per candidate the pruner reads
SIP intervals straight from the PMI's columnar row view
(:meth:`~ProbabilisticPruner.compute_bounds`), and the pruned/accepted
decision over a whole candidate set is one vectorized array pass
(:meth:`~ProbabilisticPruner.decide_batch`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

import numpy as np

from repro.core.quadratic_program import QPSet, solve_lsim_rounding
from repro.core.set_cover import WeightedSet, greedy_weighted_set_cover
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.variant_rows import VariantRows
from repro.isomorphism.embeddings import EmbeddingEnumeration
from repro.isomorphism.generic_join import GraphBlock, match_block
from repro.pmi.features import Feature
from repro.pmi.index import PMIRow
from repro.utils.rng import RandomLike


@dataclass(frozen=True)
class SspBounds:
    """Derived bounds of the subgraph similarity probability for one graph."""

    usim: float
    lsim: float
    usim_covered: bool
    lsim_covered: bool


# what no usable feature leaves: Usim = 1 and Lsim = 0, neither covered
VACUOUS_BOUNDS = SspBounds(usim=1.0, lsim=0.0, usim_covered=False, lsim_covered=False)


@dataclass(frozen=True)
class FeatureContainment:
    """Query-only containment relations of one feature.

    ``sub_of`` holds relaxed-query indices i with ``f ⊆iso rqi`` (feature
    inside the relaxed query, used for the upper bound); ``super_of`` holds
    indices with ``rqi ⊆iso f`` (feature contains the relaxed query, used for
    the lower bound).
    """

    sub_of: frozenset
    super_of: frozenset

    @property
    def is_useful(self) -> bool:
        return bool(self.sub_of) or bool(self.super_of)


@dataclass(frozen=True)
class PruningConfig:
    """Which bound variants to use (the paper's SSPBound vs OPT-SSPBound)."""

    optimal_usim: bool = True
    optimal_lsim: bool = True


class ProbabilisticPruner:
    """Applies Pruning 1 and Pruning 2 using PMI bounds."""

    def __init__(self, features: list[Feature], config: PruningConfig | None = None) -> None:
        self.features = {feature.feature_id: feature for feature in features}
        self._max_feature_edges = max((f.num_edges for f in features), default=0)
        self._max_feature_vertices = max((f.num_vertices for f in features), default=0)
        # every vertex on an edge: an embedding's edge set then names all of it
        self._edge_covered = {
            f.feature_id
            for f in features
            if f.num_edges and all(map(f.graph.degree, f.graph.vertices()))
        }
        # stacked by the first relaxed query small enough to fit inside a
        # feature (a planner handed its containment relations with the plan
        # never needs it), then joined by every later one
        self._feature_block: GraphBlock | None = None
        self.config = config or PruningConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def prepare(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        query: LabeledGraph | None = None,
        embeddings: dict[int, EmbeddingEnumeration] | None = None,
    ) -> dict[int, FeatureContainment]:
        """Containment relations of *every* feature against the relaxed set.

        These relations are independent of the candidate graph, so a query
        computes them exactly once and shares them across all candidates.
        Given the ``query`` the set was relaxed from and the features'
        ``embeddings`` in it (``StructuralFeatureIndex.query_embeddings``),
        ``f ⊆iso rq`` costs no join (:meth:`_containment_for`), same result.
        Features related to no relaxed query can never contribute a bound
        candidate, so they are dropped here and the per-candidate loop skips them.
        """
        relations = self._containment_for(relaxed_queries, query, embeddings)
        return {
            feature_id: containment
            for feature_id, containment in relations.items()
            if containment.is_useful
        }

    def compute_bounds(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        row: PMIRow,
        containment: dict[int, FeatureContainment],
        rng: RandomLike = None,
    ) -> SspBounds:
        """Compute ``(Usim, Lsim)`` for one graph from its PMI row.

        ``relaxed_queries`` is the set ``U = {rq1..rqa}`` and ``containment``
        its relations from :meth:`prepare`.  Reads ``(LowerB, UpperB)``
        straight from the row's array views, building only a small interval
        map for the features that are both present in the graph and useful
        for the query.  ``rng`` is the stream the QP rounding draws from: the
        pipeline passes each graph's own seed, ``None`` draws a fresh one.
        """
        intervals: dict[int, tuple[float, float]] = {}
        for column in np.flatnonzero(row.present):
            feature_id = int(row.feature_ids[column])
            if feature_id in containment:
                intervals[feature_id] = row.interval(column)
        usim, usim_covered = self._upper_bound(relaxed_queries, intervals, containment)
        lsim, lsim_covered = self._lower_bound(relaxed_queries, intervals, containment, rng)
        return SspBounds(
            usim=usim, lsim=lsim, usim_covered=usim_covered, lsim_covered=lsim_covered
        )

    @staticmethod
    def decide_batch(
        bounds_list: list[SspBounds], probability_threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply Pruning 1 and 2 to a whole candidate set at once.

        Returns ``(pruned_mask, accepted_mask)`` boolean arrays index-aligned
        with ``bounds_list``: pruned where ``Usim`` is covered and below ε,
        accepted where ``Lsim`` is covered and at least ε.  Candidates with
        neither flag set need verification; Pruning 1 wins when both
        conditions fire.
        """
        if not bounds_list:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        usim = np.array([b.usim for b in bounds_list])
        lsim = np.array([b.lsim for b in bounds_list])
        usim_covered = np.array([b.usim_covered for b in bounds_list], dtype=bool)
        lsim_covered = np.array([b.lsim_covered for b in bounds_list], dtype=bool)
        pruned = usim_covered & (usim < probability_threshold)
        accepted = ~pruned & lsim_covered & (lsim >= probability_threshold)
        return pruned, accepted

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _containment_for(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        query: LabeledGraph | None = None,
        embeddings: dict[int, EmbeddingEnumeration] | None = None,
    ) -> dict[int, FeatureContainment]:
        """Relations of every feature, useful or not, in feature order.

        A relaxed query that is ``query`` minus some edges (same vertex ids) is
        a row of ``VariantRows.kept``, and it contains ``f`` iff one of ``f``'s
        ``embeddings`` in ``query`` uses no edge the row deleted: one array
        pass for every feature and row, no graph of a variant.  The join of
        ``f`` over the stacked relaxed queries is the exact fallback: without
        a ``query``, and for a feature whose enumeration is missing or
        truncated or that has a vertex off every edge.  ``rq ⊆iso f`` is
        answered from a variant's edge and vertex counts unless some feature
        is large enough to hold it.
        """
        rows = None if query is None else VariantRows.of(query, relaxed_queries)
        small = range(len(relaxed_queries))  # the variants a feature may be large enough to hold
        usable = {}  # the features the rows decide: feature id -> its embeddings' edge sets
        if rows is not None:
            small = np.flatnonzero(
                (rows.kept.sum(axis=1) <= self._max_feature_edges)
                & (rows.present.sum(axis=1) <= self._max_feature_vertices)
            ).tolist()
            usable = {
                feature_id: [embedding.edges for embedding in found.embeddings]
                for feature_id, found in (embeddings or {}).items()
                if feature_id in self._edge_covered and not found.truncated
            }
        contained_in = {i: self._features_containing(relaxed_queries[i]) for i in small}
        # holds[s][i]: row i kept every edge of the s-th of the usable features' stacked embeddings
        holds = rows.holding(list(chain.from_iterable(usable.values()))).tolist() if usable else []
        spans = dict(zip(usable, pairwise(accumulate(map(len, usable.values()), initial=0))))
        relaxed_block = None
        relations: dict[int, FeatureContainment] = {}
        for position, (feature_id, feature) in enumerate(self.features.items()):
            if feature_id in spans:
                matched = holds[slice(*spans[feature_id])]
            else:
                if relaxed_block is None:
                    relaxed_block = GraphBlock(relaxed_queries)
                matched = [match_block(feature.graph, relaxed_block)]
            relations[feature_id] = FeatureContainment(
                sub_of=frozenset(i for held in matched for i, match in enumerate(held) if match),
                super_of=frozenset(i for i, matches in contained_in.items() if matches[position]),
            )
        return relations

    def _features_containing(self, relaxed: LabeledGraph) -> list[bool]:
        """``rq ⊆iso f`` per feature position: one join over the stacked features."""
        if (
            relaxed.num_edges > self._max_feature_edges
            or relaxed.num_vertices > self._max_feature_vertices
        ):
            return [False] * len(self.features)
        if self._feature_block is None:
            self._feature_block = GraphBlock(f.graph for f in self.features.values())
        return match_block(relaxed, self._feature_block)

    def _upper_bound(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        intervals: dict[int, tuple[float, float]],
        containment: dict[int, FeatureContainment],
    ) -> tuple[float, bool]:
        universe = frozenset(range(len(relaxed_queries)))
        candidates = [
            WeightedSet(
                set_id=feature_id,
                members=containment[feature_id].sub_of,
                weight=intervals[feature_id][1],
            )
            for feature_id in intervals
            if containment[feature_id].sub_of
        ]
        if not candidates:
            return 1.0, False
        if self.config.optimal_usim:
            solution = greedy_weighted_set_cover(universe, candidates)
            if not solution.covered:
                return 1.0, False
            return min(1.0, solution.total_weight), True
        # plain SSPBound: one arbitrary feature per relaxed query (an exactly
        # rounded sum: the bound does not depend on how the set is numbered)
        weights = []
        for index in sorted(universe):
            matching = [c for c in candidates if index in c.members]
            if not matching:
                return 1.0, False
            weights.append(matching[0].weight)
        return min(1.0, math.fsum(weights)), True

    def _lower_bound(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        intervals: dict[int, tuple[float, float]],
        containment: dict[int, FeatureContainment],
        rng,
    ) -> tuple[float, bool]:
        universe = frozenset(range(len(relaxed_queries)))
        candidates = [
            QPSet(
                set_id=feature_id,
                members=containment[feature_id].super_of,
                lower_weight=intervals[feature_id][0],
                upper_weight=intervals[feature_id][1],
            )
            for feature_id in intervals
            if containment[feature_id].super_of
        ]
        if not candidates:
            return 0.0, False
        if self.config.optimal_lsim:
            result = solve_lsim_rounding(universe, candidates, rng=rng)
            if not result.covered:
                return 0.0, False
            return max(0.0, min(1.0, result.lower_bound)), True
        # plain SSPBound: one arbitrary covering feature per relaxed query,
        # summed in feature order whatever the numbering of the set
        picked = set()
        for index in sorted(universe):
            matching = [c.set_id for c in candidates if index in c.members]
            if not matching:
                return 0.0, False
            picked.add(matching[0])
        chosen = [c for c in candidates if c.set_id in picked]
        lower_sum = sum(c.lower_weight for c in chosen)
        upper_sum = sum(c.upper_weight for c in chosen)
        return max(0.0, min(1.0, lower_sum - upper_sum * upper_sum)), True
