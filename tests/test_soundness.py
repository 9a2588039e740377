"""End-to-end soundness: the full pipeline against the index-free exact scan.

First slice of the adversarial harness (ROADMAP).  On small generated
databases every candidate's support fits the kernel's exact enumeration, so
the production configuration — ``method="sampling"`` — must return exactly
what ``ExactScanBaseline`` computes with Equation 21: no true answer
dismissed by the structural filter or the PMI, no false one accepted, at
thresholds placed on, just above and far from the probabilities themselves,
under both correlation models.  Exact SIP bounds keep the pruning provably
sound, as in ``test_topk_parity``.
"""

from __future__ import annotations

import math
from functools import partial

import pytest

from repro.baselines.exact_scan import ExactScanBaseline, ExactScanConfig
from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig

DISTANCE_THRESHOLD = 1
TOLERANCE = 1e-9
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
# the production route: exact wherever the support fits, which is everywhere here
SEARCH_CONFIG = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=50))
EXACT_SCAN_CONFIG = ExactScanConfig(fallback_to_sampling=False)


@pytest.fixture(scope="module", params=["max", "independent"])
def case(request):
    """(graphs, queries, catalog, exact scan) for one correlation model."""
    config = PPIDatasetConfig(
        num_graphs=12,
        num_families=2,
        vertices_per_graph=8,
        edges_per_graph=9,
        num_vertex_labels=3,  # few labels: most graphs match most queries
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
        probability_spread=0.2,
        correlation=request.param,
    )
    graphs = generate_ppi_database(config, rng=321).graphs
    queries = [extract_query(graphs[index].skeleton, 3, rng=40 + index) for index in range(4)]
    engine = GraphCatalog.build(
        graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BoundConfig(method="exact"),
        rng=321,
    )
    yield graphs, queries, engine, ExactScanBaseline(graphs, EXACT_SCAN_CONFIG)
    engine.close()


def exact_probabilities(scan, query) -> dict[int, float]:
    """Every graph's SSP by inclusion-exclusion (zero ones included)."""
    result = scan.top_k(query, len(scan.graphs), DISTANCE_THRESHOLD, rng=0)
    probabilities = dict.fromkeys(range(len(scan.graphs)), 0.0)
    probabilities.update((answer.graph_id, answer.probability) for answer in result.answers)
    return probabilities


def assert_sound(result, exact: dict[int, float], epsilon: float, context) -> None:
    """No false dismissal, no false accept (ties within TOLERANCE of ``epsilon``
    may fall either way against the reference's own rounding), and every
    verified probability is the exact one."""
    assert result.statistics.sampled == 0, context
    answered = {answer.graph_id: answer for answer in result.answers}
    for graph_id, probability in exact.items():
        if probability >= epsilon + TOLERANCE:
            assert graph_id in answered, (context, "dismissed", graph_id, probability)
        elif probability < epsilon - TOLERANCE:
            assert graph_id not in answered, (context, "accepted", graph_id, probability)
    for graph_id, answer in answered.items():
        if answer.decided_by == "verification":
            assert answer.probability == pytest.approx(exact[graph_id], abs=TOLERANCE), context
        else:  # accepted on Lsim: a lower bound of the truth
            assert answer.probability <= exact[graph_id] + TOLERANCE, context


def test_threshold_answers_equal_the_exact_scan(case):
    _, queries, engine, scan = case
    boundaries = 0
    for query_index, query in enumerate(queries):
        exact = exact_probabilities(scan, query)
        positive = sorted({p for p in exact.values() if 0.0 < p < 1.0})
        assert positive, "the query matches nothing: the case tests nothing"
        # the middle of the widest gap between two probabilities: no tie possible
        gaps = list(zip([0.0, *positive], [*positive, 1.0]))
        low, high = max(gaps, key=lambda gap: gap[1] - gap[0])
        run = partial(
            engine.query,
            query,
            distance_threshold=DISTANCE_THRESHOLD,
            config=SEARCH_CONFIG,
            rng=7,
        )
        context = query_index
        assert_sound(run((low + high) / 2.0), exact, (low + high) / 2.0, context)
        assert_sound(run(1.0), exact, 1.0, context)
        everything = run(min(positive) / 2.0)
        assert_sound(everything, exact, min(positive) / 2.0, context)
        # an answer's own reported probability is still a threshold it
        # meets (>=); the next float above it is one it does not
        for answer in everything.answers:
            if answer.decided_by != "verification":
                continue
            boundaries += 1
            own = answer.probability
            at = run(own)
            assert_sound(at, exact, own, context)
            assert answer.graph_id in at.answer_ids(), (context, own)
            above = run(math.nextafter(own, math.inf))
            assert_sound(above, exact, own, context)
            assert answer.graph_id not in above.answer_ids(), (context, own)
    assert boundaries >= len(queries)


def test_top_k_ranks_equal_the_exact_scan(case):
    graphs, queries, engine, scan = case
    for query_index, query in enumerate(queries):
        for k in (1, 3, len(graphs)):
            expected = scan.top_k(query, k, DISTANCE_THRESHOLD, rng=7).answers
            result = engine.query_top_k(
                query, k, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=7
            )
            context = (query_index, k)
            assert result.statistics.sampled == 0, context
            assert [a.graph_id for a in result.answers] == [
                a.graph_id for a in expected
            ], context
            for actual, reference in zip(result.answers, expected):
                assert actual.probability == pytest.approx(
                    reference.probability, abs=TOLERANCE
                ), context
