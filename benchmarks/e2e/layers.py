"""Per-layer attribution, measured from outside.

Runs only in the traced pass.  Every number comes from the benchmark's own
code timing a call into a public function, reading a public result field
(``QueryResult.statistics``, ``QueryService.stats()``,
``GraphCatalog.active_shm_segments()``, ``truncation_count()``) or observing
files.  Each probe also leaves spans in the trace file.  ``BENCHMARK.json``
lists the full per-layer vocabulary with units.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.core import GraphCatalog, QueryPlanner, Verifier
from repro.core.wal import WriteAheadLog
from repro.graphs.io import probabilistic_graph_from_dict, probabilistic_graph_to_dict
from repro.isomorphism import (
    GenericJoinOverflow,
    compile_edge_table,
    compile_join_plan,
    find_embeddings_block,
)
from repro.isomorphism.embeddings import reset_truncation_count, truncation_count
from repro.isomorphism.generic_join import execute_join_plan
from repro.pmi import ProbabilisticMatrixIndex
from repro.pmi.features import FeatureMiner
from repro.probability.batch_kernel import compile_world_model
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils import atomic_io
from repro.utils.rng import VERIFY_STREAM, derive_rng

from benchmarks.e2e.corpus import BOUND_CONFIG, BUILD_SEED, FEATURE_CONFIG, Corpus
from benchmarks.e2e.measure import directory_bytes, median, now, percentile
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import RoundSample, ServiceMixed, Workload, call

KERNEL_QUERIES = 6  # threshold requests the kernel probe decomposes
KERNEL_CANDIDATES = 10  # candidates per request it enumerates and verifies
PROBE_REQUESTS = 12  # requests replayed by the sharding and service probes


def _cold(graph):
    """A copy none of the per-object compile caches has seen (they live in the
    graph's ``__dict__`` and would ride along in a pickle)."""
    return probabilistic_graph_from_dict(probabilistic_graph_to_dict(graph))


def probe_build(corpus: Corpus, tracer: Tracer, scratch: Path) -> tuple[dict, QueryPlanner]:
    """The set-up pieces one by one, then a full sequential twin planner."""
    graphs = corpus.graphs
    started = now()
    with tracer.span("pmi.mine_features"):
        features = FeatureMiner(FEATURE_CONFIG).mine(graphs)
    mined = now()
    with tracer.span("pmi.bounds_build"):
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(graphs, features=features, rng=BUILD_SEED)
    bounded = now()
    with tracer.span("structural.build"):
        structural = StructuralFeatureIndex(embedding_limit=FEATURE_CONFIG.embedding_limit).build(
            [graph.skeleton for graph in graphs], features
        )
    built = now()
    with tracer.span("catalog.persist"):
        adopted = GraphCatalog.from_index(graphs, pmi, structural, directory=scratch / "persist")
    persisted = now()
    adopted.close()
    metrics = {
        "pmi.mine_features_s": mined - started,
        "pmi.bounds_build_s": bounded - mined,
        "pmi.features": len(features),
        "pmi.index_bytes": pmi.size_in_bytes(),
        "structural.build_s": built - bounded,
        "catalog.persist_s": persisted - built,
        "catalog.snapshot_bytes": directory_bytes(scratch / "persist"),
    }
    return metrics, QueryPlanner(graphs, pmi, structural)


def probe_pipeline(planner: QueryPlanner, workload: Workload, tracer: Tracer) -> dict:
    """Plan and execute every request on the sequential twin; the stage
    children come from the statistics each result reports."""
    profile, config = workload.profile, workload.config
    plan_s = 0.0
    stage_s = {"structural_filter": 0.0, "pmi_pruning": 0.0, "verification": 0.0}
    relaxed = examined = candidates = decided = verified = answers = 0
    for position, request in enumerate(workload.requests):
        started = now()
        with tracer.span("planner.plan", position):
            if request.kind == "query":
                plan = planner.plan(request.query, request.param, profile.delta, config)
            else:
                plan = planner.plan_top_k(request.query, int(request.param), profile.delta, config)
        plan_s += now() - started
        with tracer.span("planner.execute_plan", position):
            result = planner.execute_plan(plan, rng=request.root)
            tracer.stages(result.statistics)
        stats = result.statistics
        for stage in stats.stages:
            stage_s[stage.stage] += stage.seconds
        relaxed += stats.relaxed_query_count
        examined += stats.database_size
        candidates += stats.structural_candidates
        decided += stats.pruned_by_upper_bound + stats.accepted_by_lower_bound
        verified += stats.verified
        answers += sum(1 for answer in result.answers if answer.decided_by == "verification")
    count = len(workload.requests)
    return {
        "planner.plan_ms_per_query": plan_s / count * 1e3,
        "planner.relaxed_queries_per_query": relaxed / count,
        "structural.filter_ms_per_query": stage_s["structural_filter"] / count * 1e3,
        "structural.pass_ratio": candidates / examined,
        "pruning.prune_ms_per_query": stage_s["pmi_pruning"] / count * 1e3,
        "pruning.decided_ratio": decided / candidates if candidates else 0.0,
        "verification.candidates_per_query": verified / count,
        "verification.answers_per_verified": answers / verified if verified else 0.0,
    }


def probe_kernels(planner: QueryPlanner, workload: Workload, tracer: Tracer) -> dict:
    """Call the matching and sampling kernels directly on cold copies of real
    candidates: what one candidate costs before any cache has seen it."""
    profile, config = workload.profile, workload.config
    verifier = Verifier(config=config.verification, relaxation=config.relaxation)
    requests = [r for r in workload.requests if r.kind == "query"][:KERNEL_QUERIES]
    compile_s = embed_s = world_s = verify_s = 0.0
    targets = embeddings = overflows = 0
    reset_truncation_count()
    for request in requests:
        plan = planner.plan(request.query, request.param, profile.delta, config)
        with tracer.span("pruner.prepare"):
            planner.pruner.prepare(plan.relaxed_queries)
        with tracer.span("structural.filter"):
            survivors = planner.structural_filter.filter(request.query, profile.delta)
        ids = survivors.candidate_ids[:KERNEL_CANDIDATES]
        graphs = [_cold(planner.graphs[graph_id]) for graph_id in ids]
        skeletons = [graph.skeleton for graph in graphs]
        targets += len(ids)
        started = now()
        with tracer.span("isomorphism.compile_edge_table"):
            tables = [compile_edge_table(skeleton) for skeleton in skeletons]
        compile_s += now() - started
        for relaxed in plan.relaxed_queries:
            join_plan = compile_join_plan(relaxed)
            for table in tables:
                try:
                    execute_join_plan(join_plan, table)
                except GenericJoinOverflow:
                    overflows += 1
        started = now()
        with tracer.span("isomorphism.find_embeddings_block"):
            for relaxed in plan.relaxed_queries:
                found = find_embeddings_block(
                    relaxed, skeletons, limit=config.verification.embedding_limit
                )
                embeddings += sum(len(per_target) for per_target in found)
        embed_s += now() - started
        started = now()
        with tracer.span("batch_kernel.compile_world_model"):
            for graph in graphs:
                compile_world_model(graph)
        world_s += now() - started
        started = now()
        with tracer.span("verification.verify_block"):
            verifier.verify_block(
                request.query,
                graphs,
                profile.delta,
                relaxed_queries=plan.relaxed_queries,
                rngs=[derive_rng(request.root, VERIFY_STREAM, graph_id) for graph_id in ids],
            )
        verify_s += now() - started
    targets = max(targets, 1)
    return {
        "isomorphism.compile_ms_cold": compile_s / targets * 1e3,
        "isomorphism.embed_ms_per_candidate": embed_s / targets * 1e3,
        "isomorphism.embeddings_per_candidate": embeddings / targets,
        "isomorphism.overflow_reroutes": overflows,
        "isomorphism.truncations": truncation_count(),
        "batch_kernel.compile_world_ms_cold": world_s / targets * 1e3,
        "verification.verify_ms_per_candidate": verify_s / targets * 1e3,
        "batch_kernel.samples_per_s": profile.samples * targets / verify_s if verify_s else 0.0,
    }


def probe_wal(corpus: Corpus, tracer: Tracer, scratch: Path) -> dict:
    """Append real add-records to a scratch log under the default
    fsync-per-record policy.  Sandbox flushes are cheap: this is this
    sandbox's latency, not a device's."""
    path = scratch / "probe_wal.log"
    fsyncs = 0
    real_fsync = atomic_io.fsync_file

    def counting_fsync(handle) -> None:
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(handle)

    records = [
        {"op": "add", "external_id": index, "graph": probabilistic_graph_to_dict(graph)}
        for index, graph in enumerate(corpus.graphs[:16])
    ]
    wal = WriteAheadLog.create(path, 0)
    header_bytes = path.stat().st_size
    latencies = []
    # atomic_io exposes its primitives as module attributes precisely so
    # callers can interpose on them (the crash tests inject faults here)
    atomic_io.fsync_file = counting_fsync
    try:
        for record in records:
            started = now()
            with tracer.span("wal.append"):
                wal.append(record)
            latencies.append(now() - started)
    finally:
        atomic_io.fsync_file = real_fsync
        wal.close()
    return {
        "wal.append_ms_p50": median(latencies) * 1e3,
        "wal.bytes_per_mutation": (path.stat().st_size - header_bytes) / len(records),
        "wal.fsyncs_per_mutation": fsyncs / len(records),
    }


def probe_sharding(workload: Workload, traced: list[RoundSample], tracer: Tracer) -> dict:
    """Pool versus no pool on the same slice, and what a republish costs."""
    catalog = workload.catalog
    requests = workload.requests[:PROBE_REQUESTS]
    fanout = [seconds for sample in traced for seconds in sample.fanout_s]

    def replay(target, name: str) -> float:
        started = now()
        with tracer.span(name):
            for request in requests:
                call(target, request, workload.profile.delta, workload.config)
        return now() - started

    replay(catalog, "sharding.warm")
    pooled = replay(catalog, "sharding.pooled_query_many")
    shm_bytes = sum(
        Path("/dev/shm", name).stat().st_size for name in catalog.active_shm_segments()
    )
    serial = GraphCatalog.open(workload.directory, max_workers=0)
    try:
        replay(serial, "sharding.warm")
        in_process = replay(serial, "sharding.in_process_query_many")
    finally:
        serial.close()
    first = requests[0]
    started = now()
    call(catalog, first, workload.profile.delta, workload.config)
    warm = now() - started
    catalog.close()  # drops the planner, the pool and the published segments
    started = now()
    with tracer.span("sharding.republish"):
        call(catalog, first, workload.profile.delta, workload.config)
    return {
        "sharding.fanout_overhead_ms": median(fanout) * 1e3,
        "sharding.publish_s": max(0.0, now() - started - warm),
        "sharding.parallel_speedup": in_process / pooled,
        "sharding.shm_bytes": shm_bytes,
    }


def probe_service(workload: ServiceMixed, tracer: Tracer) -> dict:
    """The service's own counters, the bare wire round trip, and what one
    request costs over a direct ``catalog.query`` with nothing else in flight."""
    client = workload.clients[0]
    # fresh roots: these must miss the answer cache
    requests = [replace(r, root=r.root + 1) for r in workload.requests[:PROBE_REQUESTS]]

    async def roundtrips() -> list[float]:
        samples = []
        for _ in range(20):
            started = now()
            await client.health()
            samples.append(now() - started)
            tracer.record("service.health", started, now())
        return samples

    async def through_service() -> list[float]:
        samples = []
        for request in requests:
            started = now()
            await workload.send(client, request)
            samples.append(now() - started)
            tracer.record("service.single_request", started, now())
        return samples

    wire = workload.loop.run_until_complete(roundtrips())
    served = workload.loop.run_until_complete(through_service())
    direct = []
    for request in requests:
        started = now()
        with tracer.span("catalog.query_direct"):
            call(workload.catalog, request, workload.profile.delta, workload.config)
        direct.append(now() - started)
    stats = workload.service.stats()
    counters, cache = stats["counters"], stats["cache"]
    refused = (
        counters["rejected_overloaded"]
        + counters["rejected_shutting_down"]
        + counters["deadline_expired"]
    )
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.queue_ms_p50": stats["latency"]["queue_seconds"]["p50"] * 1e3,
        "service.execute_ms_p50": stats["latency"]["execute_seconds"]["p50"] * 1e3,
        "service.mean_batch_size": stats["batch"]["mean_size"],
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.refused_ratio": refused / max(counters["submitted"], 1),
        "service.wire_roundtrip_ms": median(wire) * 1e3,
        "service.overhead_ms_per_query": (median(served) - median(direct)) * 1e3,
    }


def round_metrics(traced: list[RoundSample], tracer: Tracer) -> dict:
    """What the traced rounds themselves say about client, catalog and trace."""
    latencies = [s for sample in traced for s in sample.query_s]
    by_kind = {"query": [], "top_k": []}
    for sample in traced:
        for kind, seconds in zip(sample.kinds, sample.query_s):
            by_kind[kind].append(seconds)
    query_seconds = verification_seconds = 0.0
    for span in tracer.spans:
        if span.name == "query":
            query_seconds += span.end - span.start
        elif span.name == "stage.verification" and tracer.spans[span.parent].name == "query":
            verification_seconds += span.end - span.start
    requery = [s for sample in traced for s in sample.requery_s]

    def mutation_p50(kind: str) -> float:
        samples = [s for sample in traced for s in sample.mutation_s[kind]]
        return median(samples) * 1e3 if samples else 0.0

    return {
        "client.query_p95_ms": percentile(latencies, 0.95) * 1e3,
        "client.tps_p50_ms": median(by_kind["query"]) * 1e3 if by_kind["query"] else 0.0,
        "client.topk_p50_ms": median(by_kind["top_k"]) * 1e3 if by_kind["top_k"] else 0.0,
        "client.samples_per_round": len(latencies) / len(traced),
        # embedding enumeration runs inside the verification stage
        # (0 for the service: its requests overlap, so they carry no stage children)
        "verification.share_of_query": (
            verification_seconds / query_seconds if query_seconds else 0.0
        ),
        "catalog.add_ms_p50": mutation_p50("add"),
        "catalog.update_ms_p50": mutation_p50("update"),
        "catalog.remove_ms_p50": mutation_p50("remove"),
        "catalog.requery_after_mutation_ms": median(requery) * 1e3 if requery else 0.0,
    }
