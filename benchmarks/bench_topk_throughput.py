"""Top-k throughput: the tightening probability floor vs a threshold scan.

A user who wants "the k best matches" could rank the whole database (a
top-k with ``k = |D|``, whose floor never tightens, so every structural
candidate is verified) and truncate the ranked answers.  ``query_top_k`` instead
verifies candidates in descending PMI upper-bound order and skips
everything whose upper bound falls below the running k-th best verified
probability — the same answers, strictly less verification work.  This
benchmark measures both on a synthetic PPI database, checks answer parity
against the truncated scan *and* the index-free exact-scan reference, and
reports wall time plus verified-candidate counts.

Unlike the other benchmarks this one builds its own database: the floor
only skips work when some candidates are *provably weaker* than the
running k-th best, so the database mixes a high-probability tier (the
graphs the answers come from) with a larger low-probability tier (same
skeleton families — they all pass the structural filter — but edge
probabilities far below the top answers' SSP, so their upper bounds fall
under the tightening floor).  Graphs stay small enough (≤ 20 uncertain
edges) for the exact SIP-bound method, whose tight ``usim`` columns are
what give the floor teeth.
"""

from __future__ import annotations

from repro.baselines.exact_scan import ExactScanBaseline, ExactScanConfig
from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_SEED, print_table

K = 2
DISTANCE_THRESHOLD = 1

HIGH_TIER_GRAPHS = 24
LOW_TIER_GRAPHS = 48
HIGH_TIER_EDGE_PROBABILITY = 0.9
LOW_TIER_EDGE_PROBABILITY = 0.15


def _tier_config(num_graphs: int, mean_edge_probability: float) -> PPIDatasetConfig:
    return PPIDatasetConfig(
        num_graphs=num_graphs,
        num_families=3,
        vertices_per_graph=8,
        edges_per_graph=9,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=mean_edge_probability,
        probability_spread=0.08,
    )


TOPK_FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.15, gamma=0.1, max_vertices=3, max_features=16
)
TOPK_BOUND_CONFIG = BoundConfig(method="exact")

# exact verification on purpose: the floor-skip rule compares the k-th best
# *verified* probability against usim, an upper bound on the *true* SSP, so
# the parity asserts below are unconditional only when verified values equal
# true values — with sampling they would rest on the seed keeping estimator
# noise below the tier gap
TOPK_SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="inclusion_exclusion")
)


def run_topk_comparison() -> dict:
    # same generator seed for both tiers: identical skeleton families (so
    # the structural filter passes both), divergent edge probabilities
    high = generate_ppi_database(
        _tier_config(HIGH_TIER_GRAPHS, HIGH_TIER_EDGE_PROBABILITY), rng=BENCH_SEED
    )
    low = generate_ppi_database(
        _tier_config(LOW_TIER_GRAPHS, LOW_TIER_EDGE_PROBABILITY), rng=BENCH_SEED
    )
    graphs = high.graphs + low.graphs
    # family motifs match every member of their family, in both tiers
    queries = list(high.family_motifs)
    catalog = GraphCatalog.build(
        graphs,
        feature_config=TOPK_FEATURE_CONFIG,
        bound_config=TOPK_BOUND_CONFIG,
        rng=BENCH_SEED,
    )

    # the scan: a top-k of the whole database verifies every graph the
    # structural filter passes, and ranks them
    scan_timer = Timer()
    with scan_timer:
        scan_results = catalog.query_top_k_many(
            queries,
            len(graphs),
            DISTANCE_THRESHOLD,
            config=TOPK_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )

    topk_timer = Timer()
    with topk_timer:
        topk_results = catalog.query_top_k_many(
            queries,
            K,
            DISTANCE_THRESHOLD,
            config=TOPK_SEARCH_CONFIG,
            rng=BENCH_SEED,
        )

    reference = ExactScanBaseline(
        graphs,
        ExactScanConfig(verification=TOPK_SEARCH_CONFIG.verification),
    )
    reference_results = [
        reference.top_k(query, K, DISTANCE_THRESHOLD, rng=BENCH_SEED)
        for query in queries
    ]

    return {
        "num_queries": len(queries),
        "scan_seconds": scan_timer.elapsed,
        "topk_seconds": topk_timer.elapsed,
        "scan_verified": sum(r.statistics.verified for r in scan_results),
        "topk_verified": sum(r.statistics.verified for r in topk_results),
        "floor_skipped": sum(r.statistics.stages[-1].pruned for r in topk_results),
        "scan_results": scan_results,
        "topk_results": topk_results,
        "reference_results": reference_results,
    }


def test_topk_throughput(benchmark):
    report = benchmark.pedantic(run_topk_comparison, rounds=1, iterations=1)
    print_table(
        f"Top-{K} search vs a ranked scan (top-|D|)",
        ["executor", "queries", "seconds", "verified candidates"],
        [
            [
                "ranked scan + truncate",
                report["num_queries"],
                f"{report['scan_seconds']:.3f}",
                report["scan_verified"],
            ],
            [
                f"query_top_k (k={K})",
                report["num_queries"],
                f"{report['topk_seconds']:.3f}",
                report["topk_verified"],
            ],
        ],
    )
    print(
        f"bound pruning + tightening floor skipped "
        f"{report['scan_verified'] - report['topk_verified']} verifications "
        f"({report['floor_skipped']} by the floor alone); "
        f"speedup {report['scan_seconds'] / max(report['topk_seconds'], 1e-9):.2f}x"
    )

    # parity first: top-k must be exactly the truncated ranked scan...
    for scan, topk in zip(report["scan_results"], report["topk_results"]):
        expected = [
            (a.graph_id, a.probability) for a in scan.answers[: len(topk.answers)]
        ]
        assert [(a.graph_id, a.probability) for a in topk.answers] == expected
    # ...and must agree with the index-free exact-scan reference
    for topk, reference in zip(report["topk_results"], report["reference_results"]):
        assert [(a.graph_id, a.probability) for a in topk.answers] == [
            (a.graph_id, a.probability) for a in reference.answers
        ]

    # the floor can only remove verification work, never add it
    assert report["topk_verified"] <= report["scan_verified"]
