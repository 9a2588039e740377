"""Figure 10: candidate size and pruning time versus probability threshold.

Compares three filters for ε in {0.3 .. 0.7}:

* **Structure** — deterministic structural pruning only (threshold-agnostic,
  flat bars in the paper);
* **SSPBound** — probabilistic pruning with arbitrary feature pairing;
* **OPT-SSPBound** — probabilistic pruning with the tightest bounds
  (set cover + QP rounding).

Every count and time comes from the production cascade,
``QueryPlanner.filter_plan``, under ``SearchConfig(pruning=PruningConfig(...))``:
the candidates are the ``structural_candidates`` / ``probabilistic_candidates``
counters and the times the ``structural_filter`` / ``pmi_pruning`` stage
spans.  Planning (the query's count profile and containment relations) runs
once per query shape and is in neither time column.

The paper reports OPT-SSPBound candidate sets of ~15 graphs on average,
shrinking as ε grows, with sub-second pruning time slightly above SSPBound.
"""

from __future__ import annotations

from repro.core import PruningConfig, QueryPlanner

from benchmarks.conftest import filter_totals, print_table

PROBABILITY_THRESHOLDS = [0.3, 0.4, 0.5, 0.6, 0.7]
DISTANCE_THRESHOLD = 1
PRUNING = {"sspbound": PruningConfig(False, False), "opt": PruningConfig(True, True)}


def run_threshold_sweep(index, workload) -> list[dict]:
    planner = QueryPlanner(index.graphs, index.pmi, index.structural_index)
    queries = [record.query for record in workload]
    rows = []
    for epsilon in PROBABILITY_THRESHOLDS:
        totals = {
            name: filter_totals(planner, queries, epsilon, DISTANCE_THRESHOLD, pruning)
            for name, pruning in PRUNING.items()
        }
        row = {
            "epsilon": epsilon,
            # the structural pass is the same under either pruning config
            "structure_candidates": totals["opt"]["structural_candidates"] / len(queries),
            "structure_seconds": totals["opt"]["structural_filter"] / len(queries),
        }
        for name, total in totals.items():
            row[f"{name}_candidates"] = total["probabilistic_candidates"] / len(queries)
            row[f"{name}_seconds"] = total["pmi_pruning"] / len(queries)
        rows.append(row)
    return rows


def test_fig10_candidate_size_and_pruning_time(benchmark, bench_index, bench_workload):
    rows = benchmark.pedantic(
        run_threshold_sweep, args=(bench_index, bench_workload), rounds=1, iterations=1
    )
    print_table(
        "Figure 10(a): average candidate size vs probability threshold",
        ["epsilon", "Structure", "SSPBound", "OPT-SSPBound"],
        [
            [r["epsilon"], f"{r['structure_candidates']:.1f}", f"{r['sspbound_candidates']:.1f}", f"{r['opt_candidates']:.1f}"]
            for r in rows
        ],
    )
    print_table(
        "Figure 10(b): average pruning time (seconds) vs probability threshold",
        ["epsilon", "Structure", "SSPBound", "OPT-SSPBound"],
        [
            [r["epsilon"], f"{r['structure_seconds']:.4f}", f"{r['sspbound_seconds']:.4f}", f"{r['opt_seconds']:.4f}"]
            for r in rows
        ],
    )
    # shape checks: structure is threshold-agnostic; probabilistic pruning
    # never yields more candidates than structure alone and shrinks with ε
    assert len({round(r["structure_candidates"], 6) for r in rows}) == 1
    for r in rows:
        assert r["opt_candidates"] <= r["structure_candidates"] + 1e-9
    assert rows[-1]["opt_candidates"] <= rows[0]["opt_candidates"] + 1e-9
