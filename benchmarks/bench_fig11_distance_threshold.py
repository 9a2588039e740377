"""Figure 11: candidate size and pruning time versus subgraph distance threshold.

Compares, for δ in {1, 2, 3} (paper: 2-6):

* **Structure** — deterministic structural pruning;
* **SIPBound** — probabilistic pruning fed by *plain* SIP bounds (one
  arbitrary embedding / cut per feature);
* **OPT-SIPBound** — probabilistic pruning fed by the *tightest* SIP bounds
  (maximum-weight-clique selection).

The paper reports all bars growing with δ (looser queries keep more graphs),
with both SIP variants far below Structure and OPT-SIPBound paying a little
extra pruning time for fewer candidates.
"""

from __future__ import annotations

import numpy as np

from repro.core import PruningConfig, relax_query
from repro.core.pruning import ProbabilisticPruner
from repro.pmi import BoundConfig, ProbabilisticMatrixIndex
from repro.structural import StructuralFilter
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_BOUND_CONFIG, BENCH_SEED, print_table

DISTANCE_THRESHOLDS = [1, 2, 3]
PROBABILITY_THRESHOLD = 0.5


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
    structural_filter = StructuralFilter(index.structural_index)
    plain_index = build_plain_index(index)
    indexes = {"SIPBound": plain_index, "OPT-SIPBound": index.pmi}
    rows = []
    for delta in DISTANCE_THRESHOLDS:
        structure_candidates = 0
        structure_time = Timer()
        series = {name: {"candidates": 0, "timer": Timer()} for name in indexes}
        for record in workload:
            if delta >= record.query.num_edges:
                continue
            relaxed = relax_query(record.query, delta)
            with structure_time:
                structural = structural_filter.filter(record.query, delta)
            structure_candidates += structural.candidate_count
            for name, index in indexes.items():
                pruner = ProbabilisticPruner(
                    index.features, config=PruningConfig(True, True), rng=BENCH_SEED
                )
                with series[name]["timer"]:
                    containment = pruner.prepare(relaxed)
                    bounds_list = [
                        pruner.compute_bounds(relaxed, row, containment)
                        for row in index.rows(structural.candidate_ids)
                    ]
                    pruned, _ = pruner.decide_batch(bounds_list, PROBABILITY_THRESHOLD)
                    series[name]["candidates"] += int(np.count_nonzero(~pruned))
        queries = len(workload)
        rows.append(
            {
                "delta": delta,
                "structure_candidates": structure_candidates / queries,
                "structure_seconds": structure_time.elapsed / queries,
                "sip_candidates": series["SIPBound"]["candidates"] / queries,
                "sip_seconds": series["SIPBound"]["timer"].elapsed / queries,
                "opt_candidates": series["OPT-SIPBound"]["candidates"] / queries,
                "opt_seconds": series["OPT-SIPBound"]["timer"].elapsed / queries,
            }
        )
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
