"""One workload, start to finish: set-ups, warm-up, measured rounds, checks.

Rounds (README, "Rounds"): a round yields one sample of every timing metric,
so a noise phase on the shared box spoils a round or two instead of the whole
number.  The value reported is the median across rounds; quartiles, spread
and the per-round values go to the result file.  End-to-end metrics are
always measured with tracing off; the traced pass runs its traced rounds
after the untraced ones, then the per-layer probes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
from pathlib import Path

from repro.core import GraphCatalog
from repro.graphs.io import probabilistic_graph_to_dict
from repro.utils.atomic_io import atomic_write_text

from benchmarks.e2e import layers
from benchmarks.e2e.corpus import build_corpus, build_requests
from benchmarks.e2e.measure import (
    directory_bytes,
    median,
    now,
    quartiles,
    self_peak_rss_mb,
    spread,
)
from benchmarks.e2e.reference import ReferenceKernel, slowdown
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOAD_CLASSES, RoundSample

OUT_DIR = Path(__file__).resolve().parent / "out"

ROOT = Path(__file__).resolve().parents[2]


def contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions and
    bounds are written down.  A metric computed here but not declared there
    is an error, not an extra line of output."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SETUPS = 3  # set-ups per run; setup_s is their median
ROUNDS = 12  # fewest measured rounds of a timed run, however slow the box
TRACED_ROUNDS = 3  # fewest rounds of each kind, traced and untraced, in a traced pass


def round_series(rounds: list[RoundSample]) -> dict[str, list[float]]:
    """Per-round samples of the timing metrics, at reference speed: every
    duration of a round is divided by the slowdown the reference kernel
    measured around that round (``reference.py``)."""
    return {
        "query_p50_ms": [median(r.query_s) / r.slowdown * 1e3 for r in rounds],
        "throughput_qps": [len(r.query_s) / r.traffic_s * r.slowdown for r in rounds],
        "cpu_ms_per_query": [r.cpu_s / r.slowdown / len(r.query_s) * 1e3 for r in rounds],
        "mutation_p50_ms": [
            median(r.mutation_s["add"] + r.mutation_s["update"]) / r.slowdown * 1e3
            for r in rounds
        ],
        "recovery_s": [r.recovery_s / r.slowdown for r in rounds],
    }


def summarize(values: list[float], unit: str) -> dict:
    """One metric's entry in the result file.  ``value`` is the median of the
    samples: per-round values, the set-ups, or a single observation."""
    q1, q2, q3 = quartiles(values)
    return {
        "value": q2,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "rounds": values,
    }


def for_at_least(rounds: int, seconds: float):
    """Continue-condition of a timed series of rounds: ``rounds`` of them
    whatever the clock says, then more until ``seconds`` have passed."""
    deadline = now() + seconds
    return lambda done: done < rounds or now() < deadline


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, gate=None) -> dict:
    """Run one workload and return its detailed result.  ``gate`` (step mode)
    is called before the set-ups and before every measured round, and ends
    the measured rounds by returning False; without it they run for
    ``seconds``.  A traced pass splits ``seconds`` between its two kinds."""
    scratch = OUT_DIR / f"tmp_{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        return _run(name, seed, seconds, trace, smoke, gate, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(name, seed, seconds, trace, smoke, gate, scratch: Path) -> dict:
    corpus = build_corpus(name, smoke)
    requests = build_requests(corpus, seed)
    tracer = Tracer(enabled=False)
    kernel = ReferenceKernel()
    if gate:
        gate()
    setups = []
    setup_count = 1 if smoke else SETUPS
    for index in range(setup_count):
        workload = WORKLOAD_CLASSES[name](corpus, requests, scratch / f"setup_{index}", tracer)
        started = now()
        workload.build()
        setups.append(now() - started)
        if index < setup_count - 1:
            workload.close()
            shutil.rmtree(scratch / f"setup_{index}")
    try:
        workload.prepare()
        warm = workload.run_round()  # unmeasured; its answers are the reference
        checked, mismatched = workload.twin_mismatches(warm)
        attempted, failed = warm.attempted + checked, warm.failed + mismatched

        def play(more) -> list[RoundSample]:
            nonlocal attempted, failed
            rounds: list[RoundSample] = []
            while more(len(rounds)):
                # A full collection over this heap costs ~100 ms, and when the
                # interpreter (or a freshly forked pool worker, which inherits
                # its counters) starts one on its own it lands in 4 rounds of
                # 10: catalog_churn rounds then read 16 or 24 q/s and the
                # median sits between two modes (README, "Noise").  Taken
                # here, between rounds, it lands in none.
                gc.collect()
                before = kernel.samples()
                sample = workload.run_round()
                sample.slowdown = slowdown(before, kernel.samples())
                rounds.append(sample)
                # same request, byte-identical answers, every round
                changed = [
                    key
                    for key, reference in warm.answers.items()
                    if sample.answers.get(key) != reference
                ]
                if changed or sample.failed:
                    print(
                        f"round {len(rounds)}: {sample.failed} failed operations; "
                        f"answers differ from the warm-up round at {changed}",
                        file=sys.stderr,
                    )
                attempted += sample.attempted
                failed += sample.failed + len(changed)
            return rounds

        traced_floor = 1 if smoke else TRACED_ROUNDS
        if gate:
            rounds = play(lambda _done: gate())
        elif trace:
            rounds = play(for_at_least(traced_floor, seconds / 2))
        else:
            rounds = play(for_at_least(2 if smoke else ROUNDS, seconds))
        traced_rounds = []
        if trace:
            tracer.enabled = True
            traced_rounds = play(for_at_least(traced_floor, 0 if gate else seconds / 2))

        # user data = the live graphs in the form a client hands them over
        # (pickles would also count whatever caches queries left on the objects)
        live_bytes = sum(
            len(json.dumps(probabilistic_graph_to_dict(graph)))
            for _id, graph in workload.durable().live_items()
        )
        series = round_series(rounds)
        series["setup_s"] = setups
        series["disk_bytes_per_graph_byte"] = [directory_bytes(workload.directory) / live_bytes]
        series["peak_rss_mb"] = [self_peak_rss_mb() + max(r.workers_rss_mb for r in rounds)]
        result = {
            "workload": name,
            "seed": seed,
            "smoke": smoke,
            "rounds": len(rounds),
            "queries_per_round": len(rounds[0].query_s),
            "attempted": attempted,
            "failed": failed,
            "slowdown": [r.slowdown for r in rounds],  # value x slowdown = what the clock read
            "end_to_end": {
                entry["name"]: summarize(series[entry["name"]], entry["unit"])
                for entry in contract()["end_to_end"]
            },
        }
        if trace:
            result["per_layer"] = _per_layer(
                workload, tracer, rounds, traced_rounds, scratch, attempted, failed
            )
            tracer.write(OUT_DIR / f"trace_{name}.json")
    finally:
        workload.close()
    return result


def _per_layer(workload, tracer, untraced, traced, scratch, attempted, failed) -> dict:
    name, profile, corpus = workload.profile.name, workload.profile, workload.corpus
    units = {entry["name"]: entry["unit"] for entry in contract()["per_layer"]}
    metrics = dict.fromkeys(units, 0.0)  # a workload reports 0 for a layer it does not use
    metrics["datasets.generate_s"] = corpus.generate_s
    build_metrics, planner = layers.probe_build(corpus, tracer, scratch)
    metrics.update(build_metrics)
    metrics.update(layers.probe_pipeline(planner, workload, tracer))
    metrics.update(layers.probe_kernels(planner, workload, tracer))
    metrics.update(layers.round_metrics(traced, tracer))
    # every round ends compacted: this open replays no WAL tail
    started = now()
    with tracer.span("catalog.snapshot_load"):
        snapshot = GraphCatalog.open(workload.directory, max_workers=0)
    metrics["catalog.snapshot_load_s"] = now() - started
    snapshot.close()
    if name in ("service_mixed", "catalog_churn"):
        # the live system pays the log and the compaction inside its traffic
        metrics.update(layers.probe_wal(corpus, tracer, scratch))
        metrics["catalog.compact_s"] = median([r.compact_s for r in traced])
        metrics["wal.replay_records_per_s"] = median(
            [
                r.wal_records / max(r.recovery_s - metrics["catalog.snapshot_load_s"], 1e-9)
                for r in traced
            ]
        )
    if profile.workers:
        metrics.update(layers.probe_sharding(workload, traced, tracer))
    if name == "service_mixed":
        metrics.update(layers.probe_service(workload, tracer))
    metrics["trace.overhead_ratio"] = median(round_series(traced)["throughput_qps"]) / median(
        round_series(untraced)["throughput_qps"]
    )
    metrics["failed_ops_ratio"] = failed / attempted
    return {key: {"value": metrics[key], "unit": units[key]} for key in metrics}


# ----------------------------------------------------------------------
# command line: the driver's contract, plus step mode for interleaved rounds
# ----------------------------------------------------------------------
def _stdin_gate() -> bool:
    """Step mode: announce readiness, then wait for the parent's go/stop.
    A parent that went away ends the run through the clean-up path."""
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("step mode: the driver closed the pipe")
    return line.strip() == "go"


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Run one workload of the end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=20120901)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    parser.add_argument(
        "--step",
        action="store_true",
        help="set up, then run a measured round, each time the parent writes 'go'",
    )
    args = parser.parse_args(argv)

    # One CPU for the whole process tree (pool workers inherit it).  On this
    # shared 2-vCPU box the host grants the second core in phases that outlast
    # a run: pooled rounds measured 36 ms or 44 ms a query depending on the
    # phase, while on one CPU they repeat within a few percent (README, "Noise").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        gate=_stdin_gate if args.step else None,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        OUT_DIR / f"last_{args.workload}_trace{args.trace}.json", json.dumps(result) + "\n"
    )
    section = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        f"# {args.workload}: seed {args.seed}, {result['rounds']} rounds of "
        f"{result['queries_per_round']} queries, {result['attempted']} operations, "
        f"{result['failed']} failed"
    )
    for key, entry in section.items():
        extra = f"  spread {entry['spread']:.3f}" if "spread" in entry else ""
        print(f"{key:40s} {entry['value']:14.6g} {entry['unit']}{extra}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    key: {"value": entry["value"], "unit": entry["unit"]}
                    for key, entry in section.items()
                },
            }
        )
    )
    return 0
