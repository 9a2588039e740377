"""Structural pruning of the database (step 1 of the pipeline, Theorem 1).

If the query is not subgraph-similar to the deterministic skeleton ``gc``
(all uncertainty removed) its subgraph similarity probability is zero, so the
graph can be discarded before any probabilistic work.  The filter combines:

1. the feature-count deficit test of :class:`StructuralFeatureIndex` (Grafil [38]);
2. the edge-signature bound (a query edge whose signature the skeleton cannot
   absorb must be relaxed away, so more than ``δ`` of them ⇒ prune), read off
   the index's signature postings.

Both are array passes over the index; the filter opens no graph.  The
candidate set is a superset of ``SCq``: verification gives a graph that is
not subgraph-similar probability 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.labeled_graph import LabeledGraph
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.timer import Timer
from repro.exceptions import StateError


@dataclass
class StructuralFilterResult:
    """Outcome of structural pruning over a database."""

    candidate_ids: list[int] = field(default_factory=list)
    pruned_ids: list[int] = field(default_factory=list)
    seconds: float = 0.0


class StructuralFilter:
    """Runs the deterministic filters against all indexed skeletons."""

    def __init__(self, index: StructuralFeatureIndex) -> None:
        if not index.is_built:
            raise StateError("the structural feature index must be built first")
        self.index = index

    def filter(self, query: LabeledGraph, distance_threshold: int) -> StructuralFilterResult:
        """Return the candidate set ``SCq`` (ids into the database order)."""
        result = StructuralFilterResult()
        timer = Timer()
        with timer:
            keep = self.filter_mask(query, distance_threshold)
            result.candidate_ids = [int(gid) for gid in np.flatnonzero(keep)]
            result.pruned_ids = [int(gid) for gid in np.flatnonzero(~keep)]
        result.seconds = timer.elapsed
        return result

    def filter_mask(
        self,
        query: LabeledGraph,
        distance_threshold: int,
        active: np.ndarray | None = None,
        profile: dict[int, dict] | None = None,
    ) -> np.ndarray:
        """Boolean keep-mask over the database, honoring an incoming mask.

        ``active`` restricts the answer to a candidate subset (graphs outside
        it come back False) — this is the pipeline entry point, where an
        upstream stage may already have narrowed the candidate set.  The
        Grafil feature-count deficit and the signature bound are each one
        vectorized pass over the whole index.  ``profile`` is the query's
        count profile when the caller holds it: a plan does, so that the
        filter reads the planner's instead of re-deriving its own.
        """
        if profile is None:
            profile = self.index.query_profile(query)
        keep = ~self.index.deficit_prunable_mask(profile, distance_threshold)
        keep &= self.index.signature_missing(query) <= distance_threshold
        if active is not None:
            keep &= np.asarray(active, dtype=bool)
        return keep
