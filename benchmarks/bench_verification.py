"""Verification throughput: the vectorized batch kernel vs the scalar sampler.

The verification stage dominates query cost on any workload the filters
cannot decide, so this benchmark isolates it: one query, every database
graph as a candidate (what a verification-bound query looks like after the
cheap stages pass everything), identical per-graph rng streams, and the two
Karp-Luby implementations head to head:

* ``repro.reference.estimate_union_probability`` — the pre-kernel
  reference: one world at a time, Python dicts and ``Factor.condition`` per
  sample;
* the batch kernel — ``estimate_union_probability_batch`` on the verifier's
  events: events compiled to edge-index arrays, the whole ``S x E`` sample
  matrix drawn per candidate in one shot, coverage tested with one boolean
  matrix product.  It is called directly because ``method="sampling"`` answers
  supports as narrow as these exactly, without drawing a world.

Both sides estimate from the verifier's events for the block (one matching
pass, ``Verifier.events_block``: each candidate's mask matrix, decoded into
edge-key sets for the scalar side) and consume
``derive_rng(root, VERIFY_STREAM, graph_id)`` streams, so
the comparison is apples-to-apples work-wise; the estimates differ
(different canonical draw orders, same distribution) and the benchmark
cross-checks them statistically.  Determinism is asserted exactly: a second
batch pass must reproduce the first byte-for-byte.

Run as a script::

    python benchmarks/bench_verification.py            # full run, asserts >= 3x
    python benchmarks/bench_verification.py --smoke    # small, CI-friendly, no floor

Two kernel-internal rates ride along in the trajectory point, measured on the
same candidates: ``clause_weight_ms_per_event`` (``clause_weights`` — Pr(Bf)
off the compiled world model) and ``worlds_per_s`` (conditioned worlds drawn
and coverage-tested per second inside ``estimate_union_probability_batch``).
So do the steps from the join to the exact answer, in ms per candidate
(``steps_ms_per_candidate``): ``join`` (the family pass over the block, its
rows sorted into distinct edge sets), ``codes_to_masks`` (edge codes to
mask rows), ``order_absorb`` (``normalize_masks``: canonical order,
duplicates, absorption) and ``support_union`` (``support_union_probability``);
``mask_share`` is the middle two over all four.
Every run (``--smoke`` included, which is what CI runs) also asserts that no
``VariableEliminationEngine`` is constructed while estimating these
(edge-partitioned) graphs: variable elimination is the fallback for
overlapping factor components and must not silently become the main path
again.

Each run appends one trajectory point to ``BENCH_verification.json``
(``--out`` to relocate), so the perf history accumulates across commits.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

# allow `python benchmarks/bench_verification.py` from the repo root (CI) as
# well as pytest collection, where the repo root is already importable
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import VerificationConfig, Verifier
from repro.core.relaxation import relax_query
from repro.isomorphism import embeddings
from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
from repro.isomorphism.generic_join import GraphBlock, compile_variant_family
from repro.probability import batch_kernel
from repro.probability.events import normalize_masks
from repro.reference import estimate_union_probability, mask_events
from repro.utils.atomic_io import atomic_write_text
from repro.utils.rng import VERIFY_STREAM, derive_rng
from repro.utils.timer import Timer

from benchmarks.conftest import BENCH_SEED, print_table

DISTANCE_THRESHOLD = 1
QUERY_SIZE = 4
SPEEDUP_FLOOR = 3.0
ROOT = BENCH_SEED

FULL = {
    "dataset": PPIDatasetConfig(
        num_graphs=24,
        num_families=4,
        vertices_per_graph=16,
        edges_per_graph=22,
        motif_vertices=4,
        motif_edges=5,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "num_samples": 640,
    "repeats": 3,
}

SMOKE = {
    "dataset": PPIDatasetConfig(
        num_graphs=8,
        num_families=2,
        vertices_per_graph=12,
        edges_per_graph=16,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    ),
    "num_samples": 160,
    "repeats": 1,
}


def build_workload(profile: dict):
    dataset = generate_ppi_database(profile["dataset"], rng=BENCH_SEED)
    workload = generate_query_workload(
        dataset.graphs,
        query_size=QUERY_SIZE,
        num_queries=1,
        organisms=dataset.organisms,
        rng=BENCH_SEED,
    )
    return dataset.graphs, workload.queries()[0]


def verify_all(verifier: Verifier, method: str, query, graphs, relaxed) -> list[float]:
    """One verification-stage pass over every candidate, per-graph streams:
    the block's one matching pass, then Algorithm 5 on every candidate's
    events — the kernel's estimator on the masks (``"sampling"``) or the
    scalar reference on them decoded (``"scalar"``)."""
    family = compile_variant_family(query, relaxed)
    estimates = []
    for graph_id, (graph, masks) in enumerate(
        zip(graphs, verifier.events_block(relaxed, graphs, family))
    ):
        if method == "scalar":
            estimate, events = estimate_union_probability, mask_events(graph.skeleton, masks)
        else:
            estimate, events = batch_kernel.estimate_union_probability_batch, masks
        estimates.append(
            estimate(
                graph,
                events,
                num_samples=verifier.config.num_samples,
                rng=derive_rng(ROOT, VERIFY_STREAM, graph_id),
            )
        )
    return estimates


def kernel_rates(verifier: Verifier, graphs, relaxed, num_samples: int, repeats: int) -> dict:
    """Clause-weight and world-sampling rates of the kernel's two inner steps.

    Embedding enumeration is done up front and excluded: the timed regions
    are ``clause_weights`` alone and the whole batched estimate (weights,
    event picks, the conditioned world batch, the coverage product).
    """
    candidates = [
        (graph, clean)
        for graph, clean in zip(graphs, verifier.events_block(relaxed, graphs))
        if len(clean)
    ]
    num_events = sum(len(clean) for _, clean in candidates)
    weight_timer = Timer()
    with weight_timer:
        for _ in range(repeats):
            for graph, clean in candidates:
                batch_kernel.clause_weights(graph, clean)
    estimate_timer = Timer()
    with estimate_timer:
        for _ in range(repeats):
            for position, (graph, clean) in enumerate(candidates):
                batch_kernel.estimate_union_probability_batch(
                    graph,
                    clean,
                    num_samples=num_samples,
                    rng=derive_rng(ROOT, VERIFY_STREAM, position),
                )
    return {
        "num_events": num_events,
        "clause_weight_ms_per_event": (
            1e3 * weight_timer.elapsed / max(repeats * num_events, 1)
        ),
        "worlds_per_s": (
            repeats * len(candidates) * num_samples / max(estimate_timer.elapsed, 1e-9)
        ),
    }


def step_breakdown(verifier: Verifier, query, graphs, relaxed, repeats: int) -> dict:
    """ms per candidate in each step from the join to the exact answer, and
    the share of the two mask steps (what the events pass and normalising
    them cost before events were masks)."""
    family = compile_variant_family(query, relaxed)
    block = GraphBlock(graph.skeleton for graph in graphs)
    limit = verifier.config.embedding_limit
    events = verifier.events_block(relaxed, graphs, family)
    timers = {step: Timer() for step in ("join", "codes_to_masks", "order_absorb", "support_union")}
    for _ in range(repeats):
        with timers["join"]:
            found = [embeddings._shared_pass_codes(family, block.table, limit)]
        with timers["codes_to_masks"]:
            masks, owner = embeddings._code_masks(block, found)
        with timers["order_absorb"]:
            normalize_masks(masks, owner)
        with timers["support_union"]:
            for graph, masks in zip(graphs, events):
                if len(masks):
                    batch_kernel.support_union_probability(graph, masks)
    per_candidate = {
        step: 1e3 * timer.elapsed / (repeats * len(graphs)) for step, timer in timers.items()
    }
    total = sum(per_candidate.values())
    return {
        "steps_ms_per_candidate": per_candidate,
        "mask_share": (per_candidate["codes_to_masks"] + per_candidate["order_absorb"])
        / max(total, 1e-12),
    }


def count_elimination_engines(verifier: Verifier, query, graphs, relaxed) -> int:
    """``VariableEliminationEngine`` constructions during one batch pass."""
    built = 0
    original = batch_kernel.VariableEliminationEngine

    def counting(graph):
        nonlocal built
        built += 1
        return original(graph)

    batch_kernel.VariableEliminationEngine = counting
    try:
        verify_all(verifier, "sampling", query, graphs, relaxed)
    finally:
        batch_kernel.VariableEliminationEngine = original
    return built


def run_comparison(profile: dict) -> dict:
    graphs, query = build_workload(profile)
    config = VerificationConfig(num_samples=profile["num_samples"])
    verifier = Verifier(config)
    relaxed = relax_query(query, DISTANCE_THRESHOLD, verifier.relaxation)

    # warm both paths (embedding search caches nothing, but the kernel
    # compiles each graph's factors once — include that cost in the timed
    # batch pass below by warming on a separate Verifier-free call ordering:
    # scalar first, then batch, then timed repeats of each)
    scalar_estimates = verify_all(verifier, "scalar", query, graphs, relaxed)
    batch_estimates = verify_all(verifier, "sampling", query, graphs, relaxed)

    scalar_timer = Timer()
    with scalar_timer:
        for _ in range(profile["repeats"]):
            scalar_repeat = verify_all(verifier, "scalar", query, graphs, relaxed)
    batch_timer = Timer()
    with batch_timer:
        for _ in range(profile["repeats"]):
            batch_repeat = verify_all(verifier, "sampling", query, graphs, relaxed)

    # determinism: same streams, same answers, byte for byte
    assert scalar_repeat == scalar_estimates, "scalar estimates are not reproducible"
    assert batch_repeat == batch_estimates, "batch estimates are not reproducible"
    # statistical sanity: both estimate the same per-graph SSP
    worst_gap = max(
        abs(scalar - batched)
        for scalar, batched in zip(scalar_estimates, batch_estimates)
    )
    scalar_seconds = scalar_timer.elapsed / profile["repeats"]
    batch_seconds = batch_timer.elapsed / profile["repeats"]
    return {
        "num_candidates": len(graphs),
        "num_samples": profile["num_samples"],
        "repeats": profile["repeats"],
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "speedup": scalar_seconds / max(batch_seconds, 1e-9),
        "scalar_candidates_per_second": len(graphs) / max(scalar_seconds, 1e-9),
        "batch_candidates_per_second": len(graphs) / max(batch_seconds, 1e-9),
        "worst_estimate_gap": worst_gap,
        **kernel_rates(
            verifier, graphs, relaxed, profile["num_samples"], profile["repeats"]
        ),
        **step_breakdown(verifier, query, graphs, relaxed, 20 * profile["repeats"]),
        "partition_graphs": all(graph.is_edge_partition() for graph in graphs),
        "elimination_engines_built": count_elimination_engines(
            verifier, query, graphs, relaxed
        ),
    }


def append_trajectory_point(path: Path, point: dict) -> None:
    """Append one run to the JSON trajectory (a list of run records)."""
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(point)
    atomic_write_text(path, json.dumps(history, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small dataset, one repeat, no speedup floor (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_verification.json"),
        help="trajectory file to append this run's point to",
    )
    args = parser.parse_args()
    profile = SMOKE if args.smoke else FULL

    report = run_comparison(profile)
    print_table(
        "Verification throughput: scalar Karp-Luby vs batch kernel "
        f"({report['num_candidates']} candidates x {report['num_samples']} samples)",
        ["method", "seconds/pass", "candidates/s"],
        [
            [
                "scalar (reference)",
                f"{report['scalar_seconds']:.3f}",
                f"{report['scalar_candidates_per_second']:.1f}",
            ],
            [
                "batch kernel (Algorithm 5)",
                f"{report['batch_seconds']:.3f}",
                f"{report['batch_candidates_per_second']:.1f}",
            ],
        ],
    )
    print(f"speedup: {report['speedup']:.2f}x  "
          f"(worst scalar-vs-batch estimate gap {report['worst_estimate_gap']:.3f})")
    print(f"kernel: {report['clause_weight_ms_per_event']:.4f} ms/event clause weights "
          f"over {report['num_events']} events, {report['worlds_per_s']:,.0f} worlds/s")
    steps = ", ".join(f"{step} {ms:.4f}" for step, ms in report["steps_ms_per_candidate"].items())
    print(f"per candidate, ms: {steps} (mask steps {report['mask_share']:.1%} of the four)")

    point = {
        "bench": "verification",
        "mode": "smoke" if args.smoke else "full",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        **report,
    }
    append_trajectory_point(args.out, point)
    print(f"trajectory point appended to {args.out}")

    tolerance = 0.2 if args.smoke else 0.1
    assert report["worst_estimate_gap"] <= tolerance, (
        f"scalar and batch estimates disagree by {report['worst_estimate_gap']:.3f} "
        f"(> {tolerance}); the kernel is computing a different quantity"
    )
    assert report["partition_graphs"], "the bench datasets are expected to be edge partitions"
    assert report["elimination_engines_built"] == 0, (
        f"{report['elimination_engines_built']} VariableEliminationEngine(s) built "
        "while estimating edge-partitioned graphs: clause weights fell back to "
        "variable elimination"
    )
    if not args.smoke:
        assert report["speedup"] >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x verification speedup, "
            f"measured {report['speedup']:.2f}x"
        )


if __name__ == "__main__":
    main()
