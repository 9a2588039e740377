"""Figure 12: impact of the feature-generation parameters maxL, α, β, γ.

* 12(a) candidate size vs ``maxL`` (maximum feature size),
* 12(b) candidate size vs ``α`` (disjoint-embedding ratio),
* 12(c) index building time vs ``β`` (frequency threshold),
* 12(d) index size vs ``γ`` (discriminative threshold).

The paper's trends: larger maxL → looser bounds → more candidates; candidate
counts dip around α ≈ 0.1-0.15; larger β or γ → fewer features → cheaper,
smaller index.  We sweep scaled parameter grids and report the same metrics.

The candidate counts are the ``probabilistic_candidates`` counter of the
production cascade, ``QueryPlanner.filter_plan``, one planner per index.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import PruningConfig, QueryPlanner
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural import StructuralFeatureIndex

from benchmarks.conftest import BENCH_SEED, filter_totals, print_table

MAXL_VALUES = [2, 3, 4]
ALPHA_VALUES = [0.05, 0.15, 0.25]
BETA_VALUES = [0.1, 0.2, 0.3]
GAMMA_VALUES = [0.05, 0.15, 0.25]
PROBABILITY_THRESHOLD = 0.5
DISTANCE_THRESHOLD = 1

BASE_FEATURES = FeatureSelectionConfig(
    alpha=0.1, beta=0.15, gamma=0.1, max_vertices=3, max_features=16
)
BOUNDS = BoundConfig(num_samples=80)


def _candidate_count(database, index, workload) -> float:
    skeletons = [graph.skeleton for graph in database.graphs]
    structural = StructuralFeatureIndex().build(skeletons, index.features)
    planner = QueryPlanner(database.graphs, index, structural)
    queries = [record.query for record in workload]
    totals = filter_totals(
        planner, queries, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, PruningConfig(True, True)
    )
    return totals["probabilistic_candidates"] / len(workload)


def _build(database, feature_config) -> ProbabilisticMatrixIndex:
    index = ProbabilisticMatrixIndex(feature_config=feature_config, bound_config=BOUNDS)
    index.build(database.graphs, rng=BENCH_SEED)
    return index


def run_parameter_sweeps(database, workload) -> dict:
    results = {"maxL": [], "alpha": [], "beta": [], "gamma": []}
    for max_vertices in MAXL_VALUES:
        index = _build(database, replace(BASE_FEATURES, max_vertices=max_vertices))
        results["maxL"].append(
            {"value": max_vertices, "candidates": _candidate_count(database, index, workload)}
        )
    for alpha in ALPHA_VALUES:
        index = _build(database, replace(BASE_FEATURES, alpha=alpha))
        results["alpha"].append(
            {"value": alpha, "candidates": _candidate_count(database, index, workload)}
        )
    for beta in BETA_VALUES:
        index = _build(database, replace(BASE_FEATURES, beta=beta))
        results["beta"].append(
            {"value": beta, "build_seconds": index.build_seconds, "features": index.num_features}
        )
    for gamma in GAMMA_VALUES:
        index = _build(database, replace(BASE_FEATURES, gamma=gamma))
        results["gamma"].append(
            {"value": gamma, "index_kb": index.size_in_bytes() / 1024.0, "features": index.num_features}
        )
    return results


def test_fig12_feature_generation_parameters(benchmark, bench_database, bench_workload):
    results = benchmark.pedantic(
        run_parameter_sweeps, args=(bench_database, bench_workload), rounds=1, iterations=1
    )
    print_table(
        "Figure 12(a): candidate size vs maxL (max feature vertices)",
        ["maxL", "OPT-SSPBound candidates"],
        [[r["value"], f"{r['candidates']:.1f}"] for r in results["maxL"]],
    )
    print_table(
        "Figure 12(b): candidate size vs alpha",
        ["alpha", "OPT-SIPBound candidates"],
        [[r["value"], f"{r['candidates']:.1f}"] for r in results["alpha"]],
    )
    print_table(
        "Figure 12(c): index building time vs beta",
        ["beta", "build seconds", "features"],
        [[r["value"], f"{r['build_seconds']:.3f}", r["features"]] for r in results["beta"]],
    )
    print_table(
        "Figure 12(d): index size vs gamma",
        ["gamma", "index KB", "features"],
        [[r["value"], f"{r['index_kb']:.1f}", r["features"]] for r in results["gamma"]],
    )
    # shape checks: raising beta or gamma can only shrink the feature set
    betas = [r["features"] for r in results["beta"]]
    gammas = [r["features"] for r in results["gamma"]]
    assert betas == sorted(betas, reverse=True)
    assert gammas == sorted(gammas, reverse=True)
