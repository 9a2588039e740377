"""Ablation (extra, not a paper figure): SMP estimator error versus sample count.

The paper fixes the Monte-Carlo parameters (ξ, τ) and never reports how the
Karp-Luby verification accuracy depends on the sample budget.  We compare the
sampled SSP against the exact value on a small graph for increasing sample
counts and confirm the error shrinks.

The estimates come from the kernel's estimator called directly on the
verifier's events: ``method="sampling"`` answers a support this narrow
exactly, without a draw, and its error would read 0 at every count.
"""

from __future__ import annotations

from repro.core import VerificationConfig, Verifier, relax_query
from repro.datasets import extract_query
from repro.probability import estimate_union_probability_batch

from benchmarks.conftest import BENCH_SEED, print_table

SAMPLE_COUNTS = [50, 200, 800, 3200]
DISTANCE_THRESHOLD = 1
TRIALS = 5


def run_accuracy_sweep(database) -> list[dict]:
    graph = database.graphs[0]
    query = extract_query(graph.skeleton, 4, rng=BENCH_SEED)
    exact = Verifier(VerificationConfig(method="inclusion_exclusion"))
    truth = exact.subgraph_similarity_probability(query, graph, DISTANCE_THRESHOLD)
    relaxed = relax_query(query, DISTANCE_THRESHOLD, exact.relaxation)
    (events,) = exact.events_block(relaxed, [graph])
    rows = []
    for count in SAMPLE_COUNTS:
        errors = []
        for trial in range(TRIALS):
            estimate = estimate_union_probability_batch(
                graph, events, num_samples=count, rng=BENCH_SEED + trial
            )
            errors.append(abs(estimate - truth))
        rows.append(
            {
                "samples": count,
                "truth": truth,
                "mean_abs_error": sum(errors) / len(errors),
                "max_abs_error": max(errors),
            }
        )
    return rows


def test_sampler_accuracy_vs_budget(benchmark, bench_database):
    rows = benchmark.pedantic(run_accuracy_sweep, args=(bench_database,), rounds=1, iterations=1)
    print_table(
        "Ablation: SMP absolute error vs sample count",
        ["samples", "exact SSP", "mean |error|", "max |error|"],
        [
            [r["samples"], f"{r['truth']:.4f}", f"{r['mean_abs_error']:.4f}", f"{r['max_abs_error']:.4f}"]
            for r in rows
        ],
    )
    # the largest budget should be at least as accurate as the smallest
    assert rows[-1]["mean_abs_error"] <= rows[0]["mean_abs_error"] + 0.02
