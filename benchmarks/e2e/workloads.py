"""The four workloads.  Each builds its system through the public front door,
replays one fixed request list per round, and takes one mutation and one
recovery sample per round, so every round yields one sample of every timing
metric (README, "Rounds").

Why these four: ``verify_heavy`` spends its time in embedding enumeration and
Karp-Luby sampling; ``filter_heavy`` in planning, the structural filter and
the shard fan-out; ``service_mixed`` adds the wire protocol, admission,
micro-batching and the answer cache; ``catalog_churn`` exercises the write
side (WAL, delta rows, pool hot-swap, recovery) of the layers
``filter_heavy`` only reads.  A change to one layer should move one of them
and leave the others alone.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core import GraphCatalog, ProbabilisticGraphDatabase, QueryPlanner
from repro.exceptions import ServiceError
from repro.pmi import ProbabilisticMatrixIndex
from repro.service import QueryService, ServiceConfig, TcpServiceClient
from repro.structural.feature_index import StructuralFeatureIndex

from benchmarks.e2e.corpus import (
    BOUND_CONFIG,
    BUILD_SEED,
    FEATURE_CONFIG,
    Corpus,
    Request,
    mutation_schedule,
)
from benchmarks.e2e.measure import live_descendants_rss_mb, now, tree_cpu_seconds
from benchmarks.e2e.trace import Tracer

Answers = tuple  # ((graph_id, probability, decided_by), ...)
TWIN_BASE_SAMPLE = 16  # unmutated graphs in the parity twin, beside every mutated one


def answers_of(result) -> Answers:
    return tuple((a.graph_id, a.probability, a.decided_by) for a in result.answers)


def call(target, request: Request, delta: int, config):
    """One request against anything with the engine's query surface."""
    if request.kind == "query":
        return target.query(request.query, request.param, delta, config=config, rng=request.root)
    return target.query_top_k(
        request.query, int(request.param), delta, config=config, rng=request.root
    )


def apply(catalog: GraphCatalog, op) -> float:
    """Apply one scheduled mutation; returns its acknowledged latency."""
    kind, external_id, graph = op
    started = now()
    if kind == "add":
        catalog.add_graph(graph, external_id=external_id)
    elif kind == "update":
        catalog.update_graph(external_id, graph)
    else:
        catalog.remove_graph(external_id)
    return now() - started


@dataclass
class RoundSample:
    """Everything one round measured."""

    query_s: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    traffic_s: float = 0.0
    cpu_s: float = 0.0
    mutation_s: dict[str, list[float]] = field(
        default_factory=lambda: {"add": [], "update": [], "remove": []}
    )
    requery_s: list[float] = field(default_factory=list)  # first query after a mutation
    fanout_s: list[float] = field(default_factory=list)  # wall minus slowest shard's pipeline
    recovery_s: float = 0.0
    compact_s: float = 0.0
    wal_records: int = 0
    workers_rss_mb: float = 0.0  # live pool workers' peak resident sets, summed
    answers: dict = field(default_factory=dict)  # request position (or probe tag) -> Answers
    attempted: int = 0
    failed: int = 0
    slowdown: float = 1.0  # of the box around this round; set by the runner (reference.py)


class Workload:
    """Shared skeleton; subclasses say what the system is and how traffic reaches it."""

    recover_workers = 0  # pool width of a catalog reopened by the recovery sample

    def __init__(self, corpus: Corpus, requests: list[Request], scratch: Path, tracer: Tracer):
        self.corpus = corpus
        self.profile = corpus.profile
        self.requests = requests
        self.config = self.profile.search_config
        self.directory = scratch / "catalog"
        self.tracer = tracer
        self.schedule = mutation_schedule(corpus)
        self.mutated_ids = {op[1] for op in self.schedule}

    # -- lifecycle ------------------------------------------------------
    def build(self) -> None:
        """Front door to first answer; the caller times it as ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed harness preparation after the last set-up: bring the durable
        catalog to the state every round ends in, so the warm-up round already
        sees what every later round sees at the same request."""
        for op in self.schedule:
            if op[0] != "remove":
                apply(self.durable(), op)

    def close(self) -> None:
        raise NotImplementedError

    def durable(self) -> GraphCatalog:
        """The durable catalog the mutation and recovery samples run on."""
        raise NotImplementedError

    def run_round(self) -> RoundSample:
        raise NotImplementedError

    def final_state_checks(self, sample: RoundSample) -> list[tuple[Request, Answers, set]]:
        """(request, answers, ids to ignore) for requests answered in the
        round's final (id -> graph) state — what the parity twin can judge."""
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------
    def _build_catalog(self) -> GraphCatalog:
        return GraphCatalog.build(
            self.corpus.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=BUILD_SEED,
            num_shards=self.profile.shards,
            max_workers=self.profile.workers,
            directory=self.directory,
        )

    def _answer(self, target, position, request: Request, sample: RoundSample):
        """One timed query; its answers are filed under ``position``."""
        started = now()
        with self.tracer.span("query", position):
            result = call(target, request, self.profile.delta, self.config)
            self.tracer.stages(result.statistics)
        elapsed = now() - started
        sample.query_s.append(elapsed)
        sample.kinds.append(request.kind)
        sample.fanout_s.append(max(0.0, elapsed - result.statistics.total_seconds))
        sample.answers[position] = answers_of(result)
        sample.attempted += 1
        return elapsed

    def _mutate(self, catalog: GraphCatalog, op, sample: RoundSample) -> None:
        with self.tracer.span(f"catalog.{op[0]}"):
            sample.mutation_s[op[0]].append(apply(catalog, op))
        sample.attempted += 1

    def _recover(
        self, catalog: GraphCatalog, probes: list[tuple[object, Request]], sample: RoundSample
    ) -> GraphCatalog:
        """Close, reopen (timed), check the probes still answer the same,
        compact the round's WAL tail away.  Returns the reopened catalog."""
        delta = self.profile.delta
        for index, (position, request) in enumerate(probes):
            if position in sample.answers:
                continue
            started = now()
            sample.answers[position] = answers_of(call(catalog, request, delta, self.config))
            if index == 0:  # the first query after the round's mutations
                sample.requery_s.append(now() - started)
        sample.wal_records = catalog.wal_records
        catalog.close()
        reopened = self._reopen(probes, sample)
        started = now()
        with self.tracer.span("catalog.compact"):
            reopened.compact()
        sample.compact_s = now() - started
        return reopened

    def _reopen(self, probes, sample: RoundSample) -> GraphCatalog:
        """The recovery sample: one timed ``GraphCatalog.open`` on the round's
        WAL tail, then (untimed) the probes must answer as they did before."""
        started = now()
        with self.tracer.span("catalog.open"):
            reopened = GraphCatalog.open(self.directory, max_workers=self.recover_workers)
        sample.recovery_s = now() - started
        for position, request in probes:
            recovered = answers_of(call(reopened, request, self.profile.delta, self.config))
            sample.failed += recovered != sample.answers.get(position)
        sample.attempted += 1 + len(probes)
        return reopened

    def build_twin(self) -> tuple[QueryPlanner, set[int]]:
        """An in-process sequential ``QueryPlanner`` built from scratch over a
        sample of the live graphs that always holds every mutated id.  A
        graph's answer depends only on (root, id, graph, query), never on
        its neighbours, so the sample judges those ids exactly."""
        catalog = self.durable()
        items = dict(catalog.live_items())
        base = [external_id for external_id in items if external_id not in self.mutated_ids]
        step = max(1, len(base) // TWIN_BASE_SAMPLE)
        ids = sorted(set(base[::step]) | (self.mutated_ids & set(items)))
        graphs = [items[external_id] for external_id in ids]
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(graphs, features=catalog.features, rng=catalog.build_root, graph_ids=ids)
        structural = StructuralFeatureIndex(embedding_limit=FEATURE_CONFIG.embedding_limit).build(
            [graph.skeleton for graph in graphs], catalog.features
        )
        twin = QueryPlanner(graphs, pmi, structural, graph_ids=np.asarray(ids, dtype=np.int64))
        return twin, set(ids)

    def twin_mismatches(self, sample: RoundSample) -> tuple[int, int]:
        """(checked, mismatching) requests of the round against the twin."""
        twin, twin_ids = self.build_twin()
        checks = self.final_state_checks(sample)
        mismatches = 0
        for request, actual, ignored in checks:
            judged = twin_ids - ignored
            restricted = tuple(answer for answer in actual if answer[0] in judged)
            if request.kind == "top_k":
                # the system ranked the whole database: its answers that fall in
                # the sample must head the twin's ranking of the whole sample
                request = replace(request, param=len(twin_ids))
            expected = answers_of(call(twin, request, self.profile.delta, self.config))
            expected = tuple(answer for answer in expected if answer[0] in judged)
            if request.kind == "top_k":
                expected = expected[: len(restricted)]
            mismatches += expected != restricted
        return len(checks), mismatches


class _TwinStoreWorkload(Workload):
    """Read-only query side plus a durable twin (``self.store``) that takes the
    round's mutation and recovery sample outside the query window."""

    store: GraphCatalog | None = None
    target = None  # what answers the queries; set by build()

    def durable(self) -> GraphCatalog:
        return self.store

    def probes(self) -> list[tuple[tuple, Request]]:
        """Requests replayed on the store around its close/open."""
        return [(("probe", index), request) for index, request in enumerate(self.requests[:2])]

    def run_round(self) -> RoundSample:
        sample = RoundSample()
        cpu, started = tree_cpu_seconds(), now()
        for position, request in enumerate(self.requests):
            self._answer(self.target, position, request, sample)
        sample.traffic_s = now() - started
        sample.cpu_s = tree_cpu_seconds() - cpu
        sample.workers_rss_mb = live_descendants_rss_mb()
        for op in self.schedule:
            self._mutate(self.store, op, sample)
        self.store = self._recover(self.store, self.probes(), sample)
        return sample

    def final_state_checks(self, sample):
        # the query side never saw the mutations the twin was built over
        checks = [
            (request, sample.answers[position], self.mutated_ids)
            for position, request in enumerate(self.requests)
        ]
        checks += [(request, sample.answers[tag], set()) for tag, request in self.probes()]
        return checks


class VerifyHeavy(_TwinStoreWorkload):
    def build(self) -> None:
        self.target = self.db = ProbabilisticGraphDatabase(self.corpus.graphs).build_index(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=BUILD_SEED
        )
        # the durable twin adopts the built index: persisting costs, rebuilding does not
        self.store = self.db.to_catalog(directory=self.directory)
        call(self.db, self.requests[0], self.profile.delta, self.config)

    def close(self) -> None:
        self.store.close()
        self.db.close()


class FilterHeavy(_TwinStoreWorkload):
    def build(self) -> None:
        self.target = self.catalog = self._build_catalog()
        # the query side never writes: hand the directory to the twin
        self.catalog.close()
        call(self.catalog, self.requests[0], self.profile.delta, self.config)

    def prepare(self) -> None:
        self.store = GraphCatalog.open(self.directory, max_workers=0)
        super().prepare()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        self.catalog.close()


class CatalogChurn(Workload):
    """One caller alternating mutations and queries on a pooled durable
    catalog; every first query after a mutation pays planner invalidation,
    pool shutdown and shm republish."""

    recover_workers = 2

    def build(self) -> None:
        self.catalog = self._build_catalog()
        call(self.catalog, self.requests[0], self.profile.delta, self.config)

    def durable(self) -> GraphCatalog:
        return self.catalog

    def close(self) -> None:
        self.catalog.close()

    def prepare(self) -> None:
        super().prepare()
        # the request list dealt evenly behind the round's mutations
        indexed = list(enumerate(self.requests))
        size = max(1, len(indexed) // len(self.schedule))
        self.chunks = [indexed[i * size : (i + 1) * size] for i in range(len(self.schedule))]
        self.chunks[-1].extend(indexed[len(self.schedule) * size :])

    def run_round(self) -> RoundSample:
        sample = RoundSample()
        cpu, started = tree_cpu_seconds(), now()
        for op, chunk in zip(self.schedule, self.chunks):
            self._mutate(self.catalog, op, sample)
            for index, (position, request) in enumerate(chunk):
                elapsed = self._answer(self.catalog, position, request, sample)
                if index == 0:
                    sample.requery_s.append(elapsed)
        sample.traffic_s = now() - started
        sample.cpu_s = tree_cpu_seconds() - cpu
        sample.workers_rss_mb = live_descendants_rss_mb()
        self.catalog = self._recover(self.catalog, self.chunks[-1][:2], sample)
        return sample

    def final_state_checks(self, sample):
        return [
            (request, sample.answers[position], set()) for position, request in self.chunks[-1]
        ]


class ServiceMixed(Workload):
    """Closed loop over TCP: 2 connections x 4 requests in flight.  Callers of
    this system wait for their answer, so a slow service receives less load.
    Mutations ride through the same dispatch lane; the generator drains its
    outstanding requests before each one so every round sees the same state
    at the same request."""

    CONNECTIONS = 2
    IN_FLIGHT = 4
    MAX_BATCH = 8
    REPEAT_SHARE = 0.2  # of a segment's requests are sent twice: ~1 request in 6 is a repeat

    def build(self) -> None:
        self.catalog = self._build_catalog()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())
        self.loop.run_until_complete(self.send(self.clients[0], self.requests[0]))

    async def _start(self) -> None:
        self.service = QueryService(
            self.catalog, ServiceConfig(max_batch_size=self.MAX_BATCH, search_config=self.config)
        )
        await self.service.start()
        host, port = await self.service.serve_tcp()
        self.clients = []
        for _ in range(self.CONNECTIONS):
            self.clients.append(await TcpServiceClient().connect(host, port))

    def prepare(self) -> None:
        super().prepare()
        parts = len(self.schedule) + 1
        size = -(-len(self.requests) // parts)
        self.segments, position = [], 0
        for part in range(parts):
            segment = self.requests[part * size : (part + 1) * size]
            # verbatim (query, root) repeats of the segment's first requests go
            # last: further behind their originals than the 8 requests in
            # flight, so the answer is cached by the time they are dispatched
            segment = segment + segment[: round(len(segment) * self.REPEAT_SHARE)]
            self.segments.append(list(enumerate(segment, start=position)))
            position += len(segment)

    def durable(self) -> GraphCatalog:
        return self.catalog

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.catalog.close()

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.service.stop()

    async def send(self, client: TcpServiceClient, request: Request):
        if request.kind == "query":
            return await client.query(
                request.query, request.param, self.profile.delta, rng=request.root
            )
        return await client.query_top_k(
            request.query, int(request.param), self.profile.delta, rng=request.root
        )

    async def _worker(self, client, queue: deque, sample: RoundSample) -> None:
        while queue:
            position, request = queue.popleft()
            sample.attempted += 1
            started = now()
            try:
                result = await self.send(client, request)
            except ServiceError:  # refused, expired or failed: counts against the run
                sample.failed += 1
                continue
            ended = now()
            self.tracer.record("service.request", started, ended, position)
            sample.query_s.append(ended - started)
            sample.kinds.append(request.kind)
            sample.answers[position] = answers_of(result)

    async def _service_mutation(self, op, sample: RoundSample) -> None:
        kind, external_id, graph = op
        client = self.clients[0]
        sample.attempted += 1
        started = now()
        if kind == "add":
            await client.add_graph(graph, external_id=external_id)
        elif kind == "update":
            await client.update_graph(external_id, graph)
        else:
            await client.remove_graph(external_id)
        ended = now()
        self.tracer.record(f"catalog.{kind}", started, ended)
        sample.mutation_s[kind].append(ended - started)

    async def _traffic(self, sample: RoundSample) -> None:
        for index, segment in enumerate(self.segments):
            queue = deque(segment)
            await asyncio.gather(
                *[
                    self._worker(client, queue, sample)
                    for client in self.clients
                    for _ in range(self.IN_FLIGHT)
                ]
            )
            if index < len(self.schedule):
                await self._service_mutation(self.schedule[index], sample)

    def run_round(self) -> RoundSample:
        sample = RoundSample()
        cpu, started = tree_cpu_seconds(), now()
        self.loop.run_until_complete(self._traffic(sample))
        sample.traffic_s = now() - started
        sample.cpu_s = tree_cpu_seconds() - cpu
        sample.workers_rss_mb = live_descendants_rss_mb()
        self._recover_beside(sample)
        return sample

    def _recover_beside(self, sample: RoundSample) -> None:
        """The service keeps its catalog; recovery opens the directory a second
        time beside it (the lane is idle), then compaction goes through the
        service like any other write."""
        sample.wal_records = self.catalog.wal_records
        self._reopen(self.segments[-1][:2], sample).close()
        started = now()
        with self.tracer.span("catalog.compact"):
            self.loop.run_until_complete(self.clients[0].compact())
        sample.compact_s = now() - started

    def final_state_checks(self, sample):
        return [
            (request, sample.answers[position], set())
            for position, request in self.segments[-1]
            if position in sample.answers
        ]


WORKLOAD_CLASSES = {
    "verify_heavy": VerifyHeavy,
    "filter_heavy": FilterHeavy,
    "service_mixed": ServiceMixed,
    "catalog_churn": CatalogChurn,
}
