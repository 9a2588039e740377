"""Figure 10: candidate size and pruning time versus probability threshold.

Compares three filters for ε in {0.3 .. 0.7}:

* **Structure** — deterministic structural pruning only (threshold-agnostic,
  flat bars in the paper);
* **SSPBound** — probabilistic pruning with arbitrary feature pairing;
* **OPT-SSPBound** — probabilistic pruning with the tightest bounds
  (set cover + QP rounding).

The paper reports OPT-SSPBound candidate sets of ~15 graphs on average,
shrinking as ε grows, with sub-second pruning time slightly above SSPBound.
"""

from __future__ import annotations

import numpy as np

from repro.core import PruningConfig, relax_query
from repro.core.pruning import ProbabilisticPruner
from repro.structural import StructuralFilter
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_SEED, print_table

PROBABILITY_THRESHOLDS = [0.3, 0.4, 0.5, 0.6, 0.7]
DISTANCE_THRESHOLD = 1


def run_threshold_sweep(index, workload) -> list[dict]:
    structural_filter = StructuralFilter(index.structural_index)
    rows = []
    for epsilon in PROBABILITY_THRESHOLDS:
        structure_candidates = 0
        structure_time = Timer()
        results = {
            "SSPBound": {"candidates": 0, "timer": Timer(), "config": PruningConfig(False, False)},
            "OPT-SSPBound": {"candidates": 0, "timer": Timer(), "config": PruningConfig(True, True)},
        }
        for record in workload:
            relaxed = relax_query(record.query, DISTANCE_THRESHOLD)
            with structure_time:
                structural = structural_filter.filter(record.query, DISTANCE_THRESHOLD)
            structure_candidates += structural.candidate_count
            for _name, entry in results.items():
                pruner = ProbabilisticPruner(
                    index.pmi.features, config=entry["config"], rng=BENCH_SEED
                )
                with entry["timer"]:
                    containment = pruner.prepare(relaxed)
                    bounds_list = [
                        pruner.compute_bounds(relaxed, row, containment)
                        for row in index.pmi.rows(structural.candidate_ids)
                    ]
                    pruned, _ = pruner.decide_batch(bounds_list, epsilon)
                    entry["candidates"] += int(np.count_nonzero(~pruned))
        queries = len(workload)
        rows.append(
            {
                "epsilon": epsilon,
                "structure_candidates": structure_candidates / queries,
                "structure_seconds": structure_time.elapsed / queries,
                "sspbound_candidates": results["SSPBound"]["candidates"] / queries,
                "sspbound_seconds": results["SSPBound"]["timer"].elapsed / queries,
                "opt_candidates": results["OPT-SSPBound"]["candidates"] / queries,
                "opt_seconds": results["OPT-SSPBound"]["timer"].elapsed / queries,
            }
        )
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
