"""Verification: computing the subgraph similarity probability of a candidate
(Section 5).

Two strategies are provided, both built on Lemma 1 / Equation 22, which
identify ``Pr(q ⊆sim g)`` with the probability that at least one embedding of
one relaxed query is fully present in the sampled world.  Those events come
from one matching pass per candidate block for the whole relaxed set (a
:class:`~repro.isomorphism.generic_join.VariantFamily`, compiled once per
plan) as each candidate's mask matrix (:mod:`repro.probability.events`),
normalised and in canonical order before any estimator reads it
(:meth:`Verifier.events_block`).

* ``"sampling"`` — chosen per candidate from its events, both by
  the batch kernel (:mod:`repro.probability.batch_kernel`): exact over the
  events' support when it is narrow (one weighted enumeration of the few edges
  they mention; no randomness, the same float under every root), the paper's
  Algorithm 5 otherwise (Karp-Luby coverage sampler, SMP in the experiments:
  all samples drawn and evaluated as numpy matrices under the kernel's
  canonical draw order).  ``num_samples`` / ``xi`` / ``tau`` are read by the
  sampled route only; ``Verifier.sampled`` counts the estimates that took it;
* ``"inclusion_exclusion"`` — exact Equation 21 over the embedding events
  (the paper's Exact method; exponential in the number of events).

The definition itself — every possible world, a subgraph-distance test in
each — is the oracle both are tested against
(``repro.reference.similarity_probability_by_enumeration``).

:meth:`Verifier.verify_block` is the block entry point the pipeline's
verification stage uses: one call verifies a whole candidate block, with an
explicit per-graph rng list so every estimate stays keyed on the graph's own
``VERIFY_STREAM`` stream regardless of block composition.  A single candidate
(:meth:`Verifier.subgraph_similarity_probability`) is the block of one.  A
stream is passed as its seed and becomes a generator only on the sampled
route, the one that draws.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.relaxation import RelaxationConfig, relax_query
from repro.exceptions import ConfigurationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.embeddings import find_family_events_block
from repro.isomorphism.generic_join import GraphBlock, VariantFamily, compile_variant_family
from repro.probability.batch_kernel import (
    estimate_union_probability_batch,
    event_masks,
    support_union_probability,
)
from repro.probability.dnf import exact_union_probability
from repro.probability.sampling import check_embedding_limit, check_sample_count
from repro.utils.rng import RandomLike, ensure_rng

VERIFICATION_METHODS = ("sampling", "inclusion_exclusion")


@dataclass(frozen=True)
class VerificationConfig:
    """Controls the verification strategy and its accuracy/cost trade-offs."""

    method: str = "sampling"
    xi: float = 0.05
    tau: float = 0.1
    num_samples: int | None = 400
    embedding_limit: int = 64
    max_exact_events: int = 18

    def __post_init__(self) -> None:
        check_sample_count(self.num_samples)
        check_embedding_limit(self.embedding_limit)
        if self.method not in VERIFICATION_METHODS:
            raise ConfigurationError(
                f"unknown verification method {self.method!r}; "
                f"expected one of {VERIFICATION_METHODS}"
            )


class Verifier:
    """Computes SSP estimates for (query, graph) pairs."""

    def __init__(
        self,
        config: VerificationConfig | None = None,
        relaxation: RelaxationConfig | None = None,
        rng: RandomLike = None,
    ) -> None:
        self.config = config or VerificationConfig()
        self.relaxation = relaxation or RelaxationConfig()
        self._rng = rng
        self.sampled = 0  # estimates so far that drew worlds (QueryStatistics.sampled)

    @property
    def rng(self):
        """The verifier-level generator (streams not given per candidate draw
        from it), built on first use."""
        if not isinstance(self._rng, random.Random):
            self._rng = ensure_rng(self._rng)
        return self._rng

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def subgraph_similarity_probability(
        self,
        query: LabeledGraph,
        graph: ProbabilisticGraph,
        distance_threshold: int,
        relaxed_queries: Sequence[LabeledGraph] | None = None,
        rng: RandomLike = None,
        family: VariantFamily | None = None,
    ) -> float:
        """``Pr(q ⊆sim g)`` with the configured method: the graph goes through
        :meth:`verify_block` as the block of one, ``rng`` (None: the
        verifier-level generator) as its one stream."""
        (probability,) = self.verify_block(
            query, [graph], distance_threshold, relaxed_queries, [rng], family
        )
        return probability

    def verify_block(
        self,
        query: LabeledGraph,
        graphs: list[ProbabilisticGraph],
        distance_threshold: int,
        relaxed_queries: Sequence[LabeledGraph] | None = None,
        rngs: list | None = None,
        family: VariantFamily | None = None,
    ) -> list[float]:
        """SSP estimates for a whole candidate block.

        Query relaxation happens once for the block, and so does matching:
        the relaxed set's ``family`` (the pipeline passes the plan's; compiled
        here when None) joins the stacked block in one pass.  Each candidate then
        runs the configured method with its own entry of ``rngs`` (the
        pipeline passes ``derive_seed(root, VERIFY_STREAM, global id)`` per
        graph), so estimates are independent of block composition and block
        size — a re-chunked execution reproduces them exactly.
        Under ``method="sampling"`` a candidate whose events read few edges
        gets the exact value and consumes nothing of its stream; any other
        has all its samples drawn and evaluated as one matrix batch.
        """
        if relaxed_queries is None:
            relaxed_queries = relax_query(query, distance_threshold, self.relaxation)
        if rngs is None:
            rngs = [None] * len(graphs)
        if family is None:
            family = compile_variant_family(query, relaxed_queries)
        events_per_graph = self.events_block(relaxed_queries, graphs, family)
        return [
            self._estimate(graph, events, rng)
            for graph, rng, events in zip(graphs, rngs, events_per_graph, strict=True)
        ]

    def events_block(
        self,
        relaxed_queries: Sequence[LabeledGraph],
        graphs: list[ProbabilisticGraph],
        family: VariantFamily | None = None,
    ) -> list[np.ndarray]:
        """Per graph, its events (Equation 22: the edge sets of every
        relaxed-query embedding) as the normalised mask matrix the estimators
        read, for a block whose skeletons are stacked once: one shared matching
        pass under the relaxed set's ``family``, without one a join per relaxed
        query.  The two give equal matrices whenever nothing is truncated
        (:func:`~repro.isomorphism.embeddings.find_family_events_block`)."""
        skeletons = GraphBlock(graph.skeleton for graph in graphs)
        return find_family_events_block(
            family, relaxed_queries, skeletons, self.config.embedding_limit
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _estimate(self, graph: ProbabilisticGraph, events, rng: RandomLike = None) -> float:
        """The union probability of ``events`` (a mask matrix, or edge-key sets
        normalised here); ``rng`` (None: the verifier's generator) is read only
        if the estimate draws."""
        events = event_masks(graph, events)
        if not len(events):
            return 0.0
        if self.config.method == "inclusion_exclusion":
            return exact_union_probability(graph, events, max_events=self.config.max_exact_events)
        exact = support_union_probability(graph, events)
        if exact is not None:
            return exact
        self.sampled += 1
        return estimate_union_probability_batch(
            graph,
            events,
            xi=self.config.xi,
            tau=self.config.tau,
            num_samples=self.config.num_samples,
            rng=self.rng if rng is None else ensure_rng(rng),
        )
