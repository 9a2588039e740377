"""Figure 14: answer quality under the correlated (COR) versus the
independent (IND) probability model.

The paper asks whether thresholded similarity search can recover the organism
a query was extracted from.  Ground truth: a query and a graph "belong
together" when they come from the same organism family.  A returned graph is
correct when it shares the query's family.  The paper reports the correlated
model holding precision/recall above ~85% while the independent model drops
below 60% at higher thresholds.

The synthetic database encodes organisms as generator families (each family
shares a structural motif), which plays the role of the STRING organism
labels here.
"""

from __future__ import annotations

from repro.baselines import database_to_independent
from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import generate_query_workload

from benchmarks.conftest import (
    BENCH_BOUND_CONFIG,
    BENCH_FEATURE_CONFIG,
    BENCH_SEED,
    print_table,
)

PROBABILITY_THRESHOLDS = [0.3, 0.4, 0.5, 0.6, 0.7]
DISTANCE_THRESHOLD = 1
QUERY_SIZE = 4
NUM_QUERIES = 6


def _evaluate(catalog, workload, organisms, epsilon) -> tuple[float, float]:
    """(precision, recall) of organism recovery at threshold ``epsilon``."""
    config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=300))
    true_positive = 0
    returned = 0
    relevant = 0
    for record in workload:
        family = record.organism
        family_members = {i for i, value in enumerate(organisms) if value == family}
        relevant += len(family_members)
        result = catalog.query(
            record.query, epsilon, DISTANCE_THRESHOLD, config=config, rng=BENCH_SEED
        )
        answered = result.answer_ids()
        returned += len(answered)
        true_positive += len(answered & family_members)
    precision = true_positive / returned if returned else 1.0
    recall = true_positive / relevant if relevant else 0.0
    return precision, recall


def run_quality_comparison(database) -> list[dict]:
    workload = generate_query_workload(
        database.graphs,
        query_size=QUERY_SIZE,
        num_queries=NUM_QUERIES,
        organisms=database.organisms,
        rng=BENCH_SEED,
    )
    build = dict(
        feature_config=BENCH_FEATURE_CONFIG, bound_config=BENCH_BOUND_CONFIG, rng=BENCH_SEED
    )
    correlated = GraphCatalog.build(database.graphs, **build)
    independent = GraphCatalog.build(database_to_independent(database.graphs), **build)
    rows = []
    for epsilon in PROBABILITY_THRESHOLDS:
        cor_precision, cor_recall = _evaluate(
            correlated, workload, database.organisms, epsilon
        )
        ind_precision, ind_recall = _evaluate(
            independent, workload, database.organisms, epsilon
        )
        rows.append(
            {
                "epsilon": epsilon,
                "cor_precision": cor_precision,
                "cor_recall": cor_recall,
                "ind_precision": ind_precision,
                "ind_recall": ind_recall,
            }
        )
    return rows


def test_fig14_correlated_vs_independent_quality(benchmark, bench_database):
    rows = benchmark.pedantic(run_quality_comparison, args=(bench_database,), rounds=1, iterations=1)
    print_table(
        "Figure 14: organism-recovery quality, COR vs IND (%)",
        ["epsilon", "COR precision", "COR recall", "IND precision", "IND recall"],
        [
            [
                r["epsilon"],
                f"{100 * r['cor_precision']:.1f}",
                f"{100 * r['cor_recall']:.1f}",
                f"{100 * r['ind_precision']:.1f}",
                f"{100 * r['ind_recall']:.1f}",
            ]
            for r in rows
        ],
    )
    # shape check: at higher thresholds the correlated model should not recall
    # fewer same-family graphs than the independent model (the paper's gap)
    high = rows[-2:]
    assert sum(r["cor_recall"] for r in high) >= sum(r["ind_recall"] for r in high) - 1e-9
