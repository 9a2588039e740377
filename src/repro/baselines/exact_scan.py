"""The ``Exact`` baseline: scan every probabilistic graph and compute its SSP
without any index (Section 6).

The paper's Exact baseline evaluates Equation 21 (inclusion–exclusion over
the relaxed-query embeddings) per graph; for very small graphs a literal
possible-world enumeration is also available.  Both are exponential — that is
the point of the comparison in Figure 13 — so the scan accepts per-graph caps
and falls back to sampling when a graph exceeds them (the fallback keeps the
benchmark harness runnable at every database size while preserving the
dominant exponential cost on the graphs that fit).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.pipeline import VERIFY_STREAM
from repro.core.planner import validate_top_k_query
from repro.core.relaxation import RelaxationConfig, relax_query
from repro.core.results import QueryAnswer, QueryResult
from repro.core.verification import VerificationConfig, Verifier
from repro.exceptions import VerificationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.generic_join import VariantFamily, compile_variant_family
from repro.utils.rng import RandomLike, derive_seed, ensure_rng, rng_root
from repro.utils.timer import Timer


@dataclass
class ExactScanConfig:
    """Caps and strategy for the exact scan."""

    method: str = "inclusion_exclusion"  # or "enumeration"
    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    verification: VerificationConfig = field(default_factory=VerificationConfig)
    fallback_to_sampling: bool = True


class ExactScanBaseline:
    """Answer T-PS queries by exhaustively verifying every graph."""

    def __init__(
        self, graphs: list[ProbabilisticGraph], config: ExactScanConfig | None = None
    ) -> None:
        self.graphs = list(graphs)
        self.config = config or ExactScanConfig()

    def query(
        self,
        query_graph: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Scan the whole database, verifying each graph exactly."""
        generator = ensure_rng(rng)
        verifier = Verifier(
            config=self.config.verification,
            relaxation=self.config.relaxation,
            rng=generator,
        )
        relaxed = relax_query(query_graph, distance_threshold, self.config.relaxation)
        family = compile_variant_family(query_graph, relaxed)  # once per query, not per graph
        result = QueryResult()
        result.statistics.database_size = len(self.graphs)
        result.statistics.relaxed_query_count = len(relaxed)
        timer = Timer()
        with timer:
            for graph_id, graph in enumerate(self.graphs):
                result.statistics.verified += 1
                probability = self._verify(
                    verifier, query_graph, graph, distance_threshold, relaxed, family
                )
                if probability >= probability_threshold:
                    result.answers.append(
                        QueryAnswer(
                            graph_id=graph_id,
                            graph_name=graph.name,
                            probability=probability,
                            decided_by="verification",
                        )
                    )
        result.statistics.total_seconds = timer.elapsed
        result.statistics.answers = len(result.answers)
        return result

    def top_k(
        self,
        query_graph: LabeledGraph,
        k: int,
        distance_threshold: int,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Reference top-k: verify *every* graph, rank by ``(-p, graph_id)``.

        The index-free ground truth the pipeline's ``query_top_k`` is tested
        against.  Each graph's verifier draws from the per-graph stream
        ``(root, VERIFY_STREAM, graph_id)`` — the planner's scheme — so under
        any verification method both sides compute the *same* per-graph
        probability and the comparison is exact, not approximate.  Graphs
        with zero probability are never answers, so fewer than ``k`` answers
        may return.
        """
        validate_top_k_query(query_graph, k, distance_threshold)
        root = rng_root(rng)
        verifier = Verifier(
            config=self.config.verification, relaxation=self.config.relaxation
        )
        relaxed = relax_query(query_graph, distance_threshold, self.config.relaxation)
        family = compile_variant_family(query_graph, relaxed)  # once per query, not per graph
        result = QueryResult()
        result.statistics.database_size = len(self.graphs)
        result.statistics.relaxed_query_count = len(relaxed)
        ranked: list[tuple[float, int, str | None]] = []
        timer = Timer()
        with timer:
            for graph_id, graph in enumerate(self.graphs):
                result.statistics.verified += 1
                verifier.rng = derive_seed(root, VERIFY_STREAM, graph_id)
                probability = self._verify(
                    verifier, query_graph, graph, distance_threshold, relaxed, family
                )
                if probability > 0.0:
                    ranked.append((probability, graph_id, graph.name))
            ranked.sort(key=lambda entry: (-entry[0], entry[1]))
            for probability, graph_id, name in ranked[:k]:
                result.answers.append(
                    QueryAnswer(
                        graph_id=graph_id,
                        graph_name=name,
                        probability=probability,
                        decided_by="verification",
                    )
                )
        result.statistics.total_seconds = timer.elapsed
        result.statistics.answers = len(result.answers)
        return result

    def _verify(
        self,
        verifier: Verifier,
        query_graph: LabeledGraph,
        graph: ProbabilisticGraph,
        distance_threshold: int,
        relaxed: Sequence[LabeledGraph],
        family: VariantFamily,
    ) -> float:
        def probability(method: str) -> float:
            return verifier.subgraph_similarity_probability(
                query_graph, graph, distance_threshold, relaxed, method, family=family
            )

        try:
            return probability(self.config.method)
        except VerificationError:
            if not self.config.fallback_to_sampling:
                raise
            return probability("sampling")
