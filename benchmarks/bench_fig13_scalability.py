"""Figure 13: total query processing time versus database size — PMI vs Exact.

The paper scales the database from 2K to 10K graphs and reports the full PMI
pipeline answering queries within ~10 seconds while the Exact scan grows
exponentially (beyond 1000 s at 6K graphs).  We scale the database from 8 to
32 synthetic PPI graphs and compare the same two systems: the indexed
filter-and-verify engine versus an index-free exact scan (with a sampling
fallback for graphs that are too large to enumerate exactly).
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines import ExactScanBaseline
from repro.baselines.exact_scan import ExactScanConfig
from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import generate_ppi_database, generate_query_workload
from repro.utils.timer import Timer

from benchmarks.conftest import (
    BENCH_BOUND_CONFIG,
    BENCH_DATASET_CONFIG,
    BENCH_FEATURE_CONFIG,
    BENCH_SEED,
    print_table,
)

DATABASE_SIZES = [8, 16, 32]
PROBABILITY_THRESHOLD = 0.4
DISTANCE_THRESHOLD = 1
QUERY_SIZE = 3
NUM_QUERIES = 3

# Fewer vertex labels than the default benchmark dataset: queries then match
# many graphs structurally, which is what makes the index-free Exact scan pay
# the #P-complete verification cost on most of the database (the effect the
# paper's Figure 13 demonstrates at 2K-10K graphs).
SCALABILITY_DATASET = replace(BENCH_DATASET_CONFIG, num_vertex_labels=6)


def run_scalability_sweep() -> list[dict]:
    rows = []
    for size in DATABASE_SIZES:
        dataset = generate_ppi_database(
            replace(SCALABILITY_DATASET, num_graphs=size), rng=BENCH_SEED + size
        )
        workload = generate_query_workload(
            dataset.graphs, query_size=QUERY_SIZE, num_queries=NUM_QUERIES, rng=BENCH_SEED
        )
        catalog = GraphCatalog.build(
            dataset.graphs,
            feature_config=BENCH_FEATURE_CONFIG,
            bound_config=BENCH_BOUND_CONFIG,
            rng=BENCH_SEED,
        )
        scan = ExactScanBaseline(
            dataset.graphs,
            ExactScanConfig(
                verification=VerificationConfig(method="inclusion_exclusion", num_samples=400),
            ),
        )
        pmi_time = Timer()
        exact_time = Timer()
        pmi_verified = 0
        exact_verified = 0
        pmi_config = SearchConfig(
            verification=VerificationConfig(method="sampling", num_samples=250)
        )
        for record in workload:
            with pmi_time:
                pmi_result = catalog.query(
                    record.query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=pmi_config,
                    rng=BENCH_SEED,
                )
            with exact_time:
                exact_result = scan.query(
                    record.query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, rng=BENCH_SEED
                )
            pmi_verified += pmi_result.statistics.verified
            exact_verified += exact_result.statistics.verified
        rows.append(
            {
                "database_size": size,
                "pmi_seconds": pmi_time.elapsed / NUM_QUERIES,
                "exact_seconds": exact_time.elapsed / NUM_QUERIES,
                "pmi_verified": pmi_verified / NUM_QUERIES,
                "exact_verified": exact_verified / NUM_QUERIES,
                "index_build_seconds": catalog.planner().pmi.build_seconds,
            }
        )
    return rows


def test_fig13_total_query_time(benchmark):
    rows = benchmark.pedantic(run_scalability_sweep, rounds=1, iterations=1)
    print_table(
        "Figure 13: total query processing time (seconds per query)",
        ["database size", "PMI (s)", "Exact (s)", "PMI verified", "Exact verified", "index build (s)"],
        [
            [
                r["database_size"],
                f"{r['pmi_seconds']:.3f}",
                f"{r['exact_seconds']:.3f}",
                f"{r['pmi_verified']:.1f}",
                f"{r['exact_verified']:.1f}",
                f"{r['index_build_seconds']:.2f}",
            ]
            for r in rows
        ],
    )
    # shape checks.  The Exact scan must pay the #P-complete verification on
    # every graph; the PMI pipeline verifies only the graphs its filters
    # could not decide.  (At this scale the per-graph verification cost is
    # tiny, so we assert on verified-graph counts — the quantity that drives
    # the paper's exponential-vs-flat curves — and report wall-clock times.)
    for r in rows:
        assert r["exact_verified"] == r["database_size"]
        assert r["pmi_verified"] < r["exact_verified"]
    # the verified-count gap must widen (at least not shrink) with database size
    first_gap = rows[0]["exact_verified"] - rows[0]["pmi_verified"]
    last_gap = rows[-1]["exact_verified"] - rows[-1]["pmi_verified"]
    assert last_gap >= first_gap
