"""Batch throughput: ``query_many`` vs repeated ``query`` on the PPI dataset.

The columnar PMI + reusable planner refactor is about workload economics:
the structural filter, pruner and verifier are built once per database, the
feature-vs-relaxed-query containment relations are computed once per query
instead of once per candidate, and pruning decisions for a candidate set are
one vectorized array pass.  This micro-benchmark measures the end-to-end
effect as queries/second over the synthetic PPI workload, for the one-shot
API (``query`` repeated, planner still shared) versus the batch API
(``query_many``), and checks the two return identical answers.
"""

from __future__ import annotations

from repro.core import SearchConfig, VerificationConfig, aggregate_statistics
from repro.datasets import generate_query_workload
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_SEED, print_table

PROBABILITY_THRESHOLD = 0.4
DISTANCE_THRESHOLD = 1
QUERY_SIZE = 4
NUM_QUERIES = 8

BATCH_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=200)
)


def run_throughput_comparison(catalog, queries) -> dict:
    sequential_timer = Timer()
    with sequential_timer:
        sequential_results = [
            catalog.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=BATCH_SEARCH_CONFIG,
                rng=BENCH_SEED,
            )
            for query in queries
        ]
    batch_timer = Timer()
    with batch_timer:
        batch_results = catalog.query_many(
            queries,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=BATCH_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )
    return {
        "num_queries": len(queries),
        "sequential_seconds": sequential_timer.elapsed,
        "batch_seconds": batch_timer.elapsed,
        "sequential_qps": len(queries) / max(sequential_timer.elapsed, 1e-9),
        "batch_qps": len(queries) / max(batch_timer.elapsed, 1e-9),
        "sequential_results": sequential_results,
        "batch_results": batch_results,
    }


def test_batch_throughput(benchmark, bench_index, bench_database):
    workload = generate_query_workload(
        bench_database.graphs,
        query_size=QUERY_SIZE,
        num_queries=NUM_QUERIES,
        organisms=bench_database.organisms,
        rng=BENCH_SEED,
    )
    queries = [record.query for record in workload]
    report = benchmark.pedantic(
        run_throughput_comparison, args=(bench_index.catalog, queries), rounds=1, iterations=1
    )
    totals = aggregate_statistics(report["batch_results"])
    print_table(
        "Batch throughput: query vs query_many (queries/second)",
        ["API", "queries", "seconds", "queries/s"],
        [
            [
                "query (loop)",
                report["num_queries"],
                f"{report['sequential_seconds']:.3f}",
                f"{report['sequential_qps']:.2f}",
            ],
            [
                "query_many",
                report["num_queries"],
                f"{report['batch_seconds']:.3f}",
                f"{report['batch_qps']:.2f}",
            ],
        ],
    )
    print(
        f"batch totals: verified={totals['verified']} "
        f"pruned={totals['pruned_by_upper_bound']} "
        f"accepted={totals['accepted_by_lower_bound']} "
        f"mean s/query={totals['mean_seconds_per_query']}"
    )
    # the two APIs must agree exactly — answers, order and decision stage
    for sequential, batch in zip(report["sequential_results"], report["batch_results"]):
        assert [
            (a.graph_id, a.probability, a.decided_by) for a in sequential.answers
        ] == [(a.graph_id, a.probability, a.decided_by) for a in batch.answers]
    assert totals["num_queries"] == report["num_queries"]
