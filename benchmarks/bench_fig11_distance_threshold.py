"""Figure 11: candidate size and pruning time versus subgraph distance threshold.

Compares, for δ in {1, 2, 3} (paper: 2-6):

* **Structure** — deterministic structural pruning;
* **SIPBound** — probabilistic pruning fed by *plain* SIP bounds (one
  arbitrary embedding / cut per feature);
* **OPT-SIPBound** — probabilistic pruning fed by the *tightest* SIP bounds
  (maximum-weight-clique selection).

Each PMI gets its own ``QueryPlanner`` over the same structural index, and
every count and time comes from the production cascade,
``QueryPlanner.filter_plan``, under ``SearchConfig(pruning=PruningConfig(...))``:
the candidates are the ``structural_candidates`` / ``probabilistic_candidates``
counters and the times the ``structural_filter`` / ``pmi_pruning`` stage
spans.  Planning (the query's count profile and containment relations) runs
once per query shape and is in neither time column.

The paper reports all bars growing with δ (looser queries keep more graphs),
with both SIP variants far below Structure and OPT-SIPBound paying a little
extra pruning time for fewer candidates.
"""

from __future__ import annotations

from repro.core import PruningConfig, QueryPlanner
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex

from benchmarks.conftest import BENCH_BOUND_CONFIG, BENCH_SEED, filter_totals, print_table

DISTANCE_THRESHOLDS = [1, 2, 3]
PROBABILITY_THRESHOLD = 0.5
PRUNING = PruningConfig(True, True)


def build_plain_index(index) -> ProbabilisticMatrixIndex:
    """A second PMI whose cells hold the non-optimized SIP bounds."""
    plain = ProbabilisticMatrixIndex(
        feature_config=index.pmi.feature_config,
        bound_config=BoundConfig(
            num_samples=BENCH_BOUND_CONFIG.num_samples,
            embedding_limit=BENCH_BOUND_CONFIG.embedding_limit,
            optimize=False,
        ),
    )
    plain.build(index.graphs, features=index.pmi.features, rng=BENCH_SEED)
    return plain


def run_distance_sweep(index, workload) -> list[dict]:
    planners = {
        "sip": QueryPlanner(index.graphs, build_plain_index(index), index.structural_index),
        "opt": QueryPlanner(index.graphs, index.pmi, index.structural_index),
    }
    rows = []
    for delta in DISTANCE_THRESHOLDS:
        # a query with no more than δ edges relaxes to nothing
        queries = [record.query for record in workload if delta < record.query.num_edges]
        totals = {
            name: filter_totals(planner, queries, PROBABILITY_THRESHOLD, delta, PRUNING)
            for name, planner in planners.items()
        }
        row = {
            "delta": delta,
            # the structural pass reads the shared structural index, not the PMI
            "structure_candidates": totals["opt"]["structural_candidates"] / len(workload),
            "structure_seconds": totals["opt"]["structural_filter"] / len(workload),
        }
        for name, total in totals.items():
            row[f"{name}_candidates"] = total["probabilistic_candidates"] / len(workload)
            row[f"{name}_seconds"] = total["pmi_pruning"] / len(workload)
        rows.append(row)
    return rows


def test_fig11_candidate_size_and_time_vs_distance(benchmark, bench_index, bench_workload):
    rows = benchmark.pedantic(
        run_distance_sweep, args=(bench_index, bench_workload), rounds=1, iterations=1
    )
    print_table(
        "Figure 11(a): average candidate size vs subgraph distance threshold",
        ["delta", "Structure", "SIPBound", "OPT-SIPBound"],
        [
            [r["delta"], f"{r['structure_candidates']:.1f}", f"{r['sip_candidates']:.1f}", f"{r['opt_candidates']:.1f}"]
            for r in rows
        ],
    )
    print_table(
        "Figure 11(b): average pruning time (seconds) vs subgraph distance threshold",
        ["delta", "Structure", "SIPBound", "OPT-SIPBound"],
        [
            [r["delta"], f"{r['structure_seconds']:.4f}", f"{r['sip_seconds']:.4f}", f"{r['opt_seconds']:.4f}"]
            for r in rows
        ],
    )
    # shape checks: candidates never exceed structure, and grow with δ
    for r in rows:
        assert r["opt_candidates"] <= r["structure_candidates"] + 1e-9
        assert r["sip_candidates"] <= r["structure_candidates"] + 1e-9
    assert rows[0]["structure_candidates"] <= rows[-1]["structure_candidates"] + 1e-9
