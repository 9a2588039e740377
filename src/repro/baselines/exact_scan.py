"""The ``Exact`` baseline: scan every probabilistic graph and compute its SSP
without any index (Section 6).

The paper's Exact baseline evaluates Equation 21 (inclusion–exclusion over
the relaxed-query embeddings) per graph, which is the default here: the scan
runs ``verification.method``.  Inclusion–exclusion is exponential in the
events — that is the point of the comparison in Figure 13 — so a graph whose
events exceed ``max_exact_events`` falls back to the same config with
``method="sampling"`` (the fallback keeps the benchmark harness runnable at
every database size while preserving the dominant exponential cost on the
graphs that fit).

Both query modes run one scan loop, and every graph is verified on its own
stream ``(root, VERIFY_STREAM, graph_id)`` — the planner's scheme — so a
graph's probability depends neither on the graphs scanned before it nor on
the mode, and equals the pipeline's under the same verification config.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.core.pipeline import VERIFY_STREAM
from repro.core.planner import validate_query, validate_top_k_query
from repro.core.relaxation import RelaxationConfig, relax_query
from repro.core.results import QueryAnswer, QueryResult
from repro.core.verification import VerificationConfig, Verifier
from repro.exceptions import VerificationError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.generic_join import compile_variant_family
from repro.utils.rng import RandomLike, derive_seed, rng_root
from repro.utils.timer import Timer

# (graph id, probability) of every graph, in id order -> the answers, ranked
Selection = Callable[[list[tuple[int, float]]], list[tuple[int, float]]]


@dataclass
class ExactScanConfig:
    """Relaxation, verification and fallback policy of the exact scan."""

    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    verification: VerificationConfig = field(
        default_factory=lambda: VerificationConfig(method="inclusion_exclusion")
    )
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
        """Every graph whose probability reaches ``probability_threshold``,
        in graph-id order."""
        distance_threshold = validate_query(
            query_graph, probability_threshold, distance_threshold
        )
        return self._scan(
            query_graph,
            distance_threshold,
            rng,
            lambda scored: [entry for entry in scored if entry[1] >= probability_threshold],
        )

    def top_k(
        self,
        query_graph: LabeledGraph,
        k: int,
        distance_threshold: int,
        rng: RandomLike = None,
    ) -> QueryResult:
        """Reference top-k: verify *every* graph, rank by ``(-p, graph_id)``.

        The index-free ground truth the pipeline's ``query_top_k`` is tested
        against: under any verification method both sides compute the *same*
        per-graph probability, so the comparison is exact, not approximate.
        Graphs with zero probability are never answers, so fewer than ``k``
        answers may return.
        """
        k, distance_threshold = validate_top_k_query(query_graph, k, distance_threshold)
        return self._scan(
            query_graph,
            distance_threshold,
            rng,
            lambda scored: sorted(
                (entry for entry in scored if entry[1] > 0.0),
                key=lambda entry: (-entry[1], entry[0]),
            )[:k],
        )

    def _scan(
        self,
        query_graph: LabeledGraph,
        distance_threshold: int,
        rng: RandomLike,
        select: Selection,
    ) -> QueryResult:
        """Verify every graph on its own ``VERIFY_STREAM`` seed; ``select``
        turns the scored database into the answers."""
        root = rng_root(rng)
        config = self.config
        verifier = Verifier(config=config.verification, relaxation=config.relaxation)
        fallback = Verifier(
            config=replace(config.verification, method="sampling"),
            relaxation=config.relaxation,
        )
        relaxed = relax_query(query_graph, distance_threshold, config.relaxation)
        family = compile_variant_family(query_graph, relaxed)  # once per query, not per graph
        result = QueryResult()
        statistics = result.statistics
        statistics.database_size = len(self.graphs)
        statistics.relaxed_query_count = len(relaxed)
        timer = Timer()
        with timer:
            scored = []
            for graph_id, graph in enumerate(self.graphs):
                statistics.verified += 1
                seed = derive_seed(root, VERIFY_STREAM, graph_id)
                try:
                    probability = verifier.subgraph_similarity_probability(
                        query_graph, graph, distance_threshold, relaxed, seed, family
                    )
                except VerificationError:
                    if not config.fallback_to_sampling:
                        raise
                    probability = fallback.subgraph_similarity_probability(
                        query_graph, graph, distance_threshold, relaxed, seed, family
                    )
                scored.append((graph_id, probability))
            result.answers = [
                QueryAnswer(
                    graph_id=graph_id,
                    graph_name=self.graphs[graph_id].name,
                    probability=probability,
                    decided_by="verification",
                )
                for graph_id, probability in select(scored)
            ]
        statistics.total_seconds = timer.elapsed
        statistics.answers = len(result.answers)
        return result
