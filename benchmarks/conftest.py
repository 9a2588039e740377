"""Shared infrastructure for the benchmark harness.

Each ``bench_figXX_*.py`` module regenerates one exhibit of the paper's
evaluation section (Figures 9-14) on the scaled-down synthetic STRING/PPI
substitute, prints the same series the paper plots, and exposes the heavy
computation to ``pytest-benchmark`` so wall-clock numbers are tracked.

The dataset and index here are intentionally much smaller than the paper's
(5K graphs of ~385 vertices): compare the *shapes* of the curves, not
absolute seconds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest

# Benchmarks run as scripts (python benchmarks/bench_*.py) as often as under
# pytest; skip writing bytecode so ad-hoc runs don't litter benchmarks/ and
# examples/ with __pycache__ directories (they are .gitignore'd too, but the
# cleanest cache is the one never written — import-time cost here is noise
# next to the SIP-bound computations being measured).
sys.dont_write_bytecode = True

from repro.core import GraphCatalog, PruningConfig, QueryPlanner, SearchConfig
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.graphs import ProbabilisticGraph
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural import StructuralFeatureIndex

BENCH_SEED = 20120901

BENCH_DATASET_CONFIG = PPIDatasetConfig(
    num_graphs=24,
    num_families=4,
    vertices_per_graph=16,
    edges_per_graph=22,
    motif_vertices=4,
    motif_edges=5,
    mean_edge_probability=0.55,
    probability_spread=0.2,
)

BENCH_FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.15, gamma=0.1, max_vertices=3, max_features=16
)

BENCH_BOUND_CONFIG = BoundConfig(num_samples=120)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print one figure's series as an aligned text table."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0)) for i in range(len(header))]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


def filter_totals(
    planner: QueryPlanner, queries, epsilon: float, delta: int, pruning: PruningConfig
) -> dict:
    """The production structural and PMI passes (``planner.filter_plan``) of
    every query, summed: the candidates each leaves and each stage's seconds.

    The planner plans a query shape once (its plan cache), so the stage
    seconds hold no planning: the count profile and the containment
    relations are the plan's, not the stages'."""
    config = SearchConfig(pruning=pruning)
    totals = dict.fromkeys(
        ("structural_candidates", "probabilistic_candidates", "structural_filter", "pmi_pruning"), 0
    )
    for query in queries:
        plan = planner.plan(query, epsilon, delta, config)
        statistics = planner.filter_plan(plan, BENCH_SEED).result.statistics
        totals["structural_candidates"] += statistics.structural_candidates
        totals["probabilistic_candidates"] += statistics.probabilistic_candidates
        for stage in statistics.stages:
            totals[stage.stage] += stage.seconds
    return totals


@pytest.fixture(scope="session")
def bench_database():
    """The synthetic PPI database shared by every figure."""
    return generate_ppi_database(BENCH_DATASET_CONFIG, rng=BENCH_SEED)


@dataclass(frozen=True)
class BenchIndex:
    """The benchmark database's PMI and structural index, built directly,
    and the catalog that queries them."""

    graphs: list[ProbabilisticGraph]
    pmi: ProbabilisticMatrixIndex
    structural_index: StructuralFeatureIndex
    catalog: GraphCatalog


@pytest.fixture(scope="session")
def bench_index(bench_database):
    """Both indexes over the benchmark database (``GraphCatalog.build``'s
    one shard, cell for cell) and a catalog over them."""
    graphs = bench_database.graphs
    pmi = ProbabilisticMatrixIndex(
        feature_config=BENCH_FEATURE_CONFIG, bound_config=BENCH_BOUND_CONFIG
    ).build(graphs, rng=BENCH_SEED)
    structural = StructuralFeatureIndex(
        embedding_limit=BENCH_FEATURE_CONFIG.embedding_limit
    ).build([graph.skeleton for graph in graphs], pmi.features)
    return BenchIndex(graphs, pmi, structural, GraphCatalog.from_index(graphs, pmi, structural))


@pytest.fixture(scope="session")
def bench_workload(bench_database):
    """The default query workload (paper default: size-150 queries; scaled to 5)."""
    return generate_query_workload(
        bench_database.graphs,
        query_size=5,
        num_queries=4,
        organisms=bench_database.organisms,
        rng=BENCH_SEED,
    )
