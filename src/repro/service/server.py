"""The always-on query service: micro-batching, admission control, caching.

:class:`QueryService` wraps a :class:`~repro.core.catalog.GraphCatalog` (or
anything with the same ``query_many`` / ``query_top_k_many`` / mutation
surface) behind an asyncio front end.  Requests enter through
:meth:`QueryService.submit` — called directly by the in-process
:class:`~repro.service.client.ServiceClient` and per-line by the NDJSON TCP
handler — pass admission control, and wait on a future that a single
dispatcher loop resolves.

**Micro-batching.**  Whenever the lane is free, the dispatcher takes the
oldest pending request and coalesces every queued request with the same
group key (op + thresholds/k) into one backend ``query_many()`` /
``query_top_k_many()`` call, up to ``max_batch_size`` requests.  It never
waits for company: a batch is what arrived while the previous one ran.
Each request's RNG root is pinned at parse time and rides along via the
``rngs`` parameter, so answers are byte-identical to a sequential
library-mode call with the same seed — batch composition never leaks in.

**Ordering.**  Execution is a single serialized lane (one
``asyncio.to_thread`` call at a time): queries may coalesce and reorder
among themselves — they are pure reads of the catalog — but a mutation runs
alone, and no queued request ever jumps over a mutation that was admitted
before it.  That pair of rules keeps every answer consistent with *some*
admission-order serialization, which is exactly the guarantee the parity
suite checks against a twin catalog.

**Admission control.**  The pending queue is bounded by ``max_queue_depth``;
beyond it requests fail fast with ``overloaded``.  Per-request deadlines
(request field or ``default_deadline``) expire with ``deadline_exceeded``
and expired or disconnected requests are dropped *before* execution when
possible.  :meth:`stop` drains: queued work completes (bounded by
``drain_timeout``), new work is refused with ``shutting_down``.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from numbers import Real

from repro.core.catalog import GraphCatalog
from repro.core.planner import SearchConfig
from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.graphs.io import probabilistic_graph_from_dict
from repro.service.cache import AnswerCache
from repro.service.protocol import (
    BAD_REQUEST,
    CONTROL_OPS,
    DEADLINE_EXCEEDED,
    INTERNAL,
    MUTATION_OPS,
    OVERLOADED,
    SHUTTING_DOWN,
    Request,
    decode_frame,
    encode_frame,
    error_frame,
    parse_request,
    result_frame,
)


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`QueryService`.

    ``max_batch_size`` caps one backend call (1 turns coalescing off).
    ``max_queue_depth`` bounds admission; ``default_deadline`` (seconds)
    applies to requests that carry none, and ``None`` means wait forever.
    ``drain_timeout`` (seconds) bounds :meth:`QueryService.stop`.
    ``cache_entries`` sizes the answer cache (0 turns it off) and
    ``stats_window`` the latency samples ``/stats`` keeps.
    ``search_config`` is the server-side pipeline configuration applied to
    every query — the wire protocol deliberately does not let clients vary
    it per request, since answers cached under one configuration must never
    be served under another.  A field of the wrong type or range is a
    :class:`~repro.exceptions.ConfigurationError`.
    """

    max_batch_size: int = 16
    max_queue_depth: int = 64
    default_deadline: float | None = None
    drain_timeout: float = 5.0
    cache_entries: int = 1024
    stats_window: int = 2048
    search_config: SearchConfig | None = None

    def __post_init__(self) -> None:
        for name, minimum in (
            ("max_batch_size", 1),
            ("max_queue_depth", 1),
            ("cache_entries", 0),
            ("stats_window", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ConfigurationError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        if self.default_deadline is not None:
            _check_seconds("default_deadline", self.default_deadline)
        _check_seconds("drain_timeout", self.drain_timeout)
        if self.search_config is not None and not isinstance(self.search_config, SearchConfig):
            raise ConfigurationError(
                "search_config must be None or a SearchConfig, "
                f"got {type(self.search_config).__name__}"
            )


def _check_seconds(name: str, value: object) -> None:
    """A duration is a finite real > 0 (a bool is no duration)."""
    if (
        not isinstance(value, Real)
        or isinstance(value, bool)
        or not (value > 0 and math.isfinite(value))
    ):
        raise ConfigurationError(
            f"{name} must be a positive, finite number of seconds, got {value!r}"
        )


@dataclass
class _Pending:
    """One admitted request waiting in the dispatch queue."""

    request: Request
    future: asyncio.Future
    admitted_at: float
    expires_at: float | None
    cancelled: bool = False


@dataclass
class _Counters:
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    rejected_bad_request: int = 0
    rejected_overloaded: int = 0
    rejected_shutting_down: int = 0
    deadline_expired: int = 0
    dropped_before_execution: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    mutations: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class QueryService:
    """See the module docstring for the execution model.

    Lifecycle: ``await start()`` → submit traffic (in-process or via
    :meth:`serve_tcp`) → ``await stop()``.  The service does not own the
    catalog — closing it remains the caller's job — but it is the only
    writer while running: route mutations through the service so they
    serialize with query traffic and invalidate the answer cache.
    """

    def __init__(self, catalog: GraphCatalog, config: ServiceConfig | None = None) -> None:
        self._catalog = catalog
        self._config = config or ServiceConfig()
        self._cache = AnswerCache(self._config.cache_entries)
        self._counters = _Counters()
        self._pending: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._accepting = False
        self._draining = False
        self._dispatcher: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # Latency ring buffers (seconds): admission→dispatch, backend call,
        # admission→resolution.  Bounded so /stats stays O(window).
        window = self._config.stats_window
        self._queue_seconds: deque[float] = deque(maxlen=window)
        self._execute_seconds: deque[float] = deque(maxlen=window)
        self._total_seconds: deque[float] = deque(maxlen=window)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._dispatcher is not None:
            raise ServiceError(INTERNAL, "service already started")
        self._loop = asyncio.get_running_loop()
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Graceful drain: finish queued work, refuse new work, stop.

        Idempotent.  Queued requests still complete (a batch already in the
        backend always runs to completion); if the drain exceeds
        ``drain_timeout`` the dispatcher is cancelled and whatever is left
        fails with ``shutting_down``.
        """
        if self._dispatcher is None:
            return
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._draining = True
        self._wake.set()
        dispatcher, self._dispatcher = self._dispatcher, None
        try:
            await asyncio.wait_for(asyncio.shield(dispatcher), self._config.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            dispatcher.cancel()
            try:
                await dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        while self._pending:
            item = self._pending.popleft()
            self._resolve(
                item,
                error_frame(
                    item.request.request_id,
                    SHUTTING_DOWN,
                    "service stopped before the request could run",
                ),
            )

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request entry (in-process and TCP share this path)
    # ------------------------------------------------------------------
    async def submit(self, frame: object) -> dict:
        """Run one request frame through parse → admission → dispatch.

        Always returns a response frame — typed errors included — and never
        raises for request-level failures, so a TCP handler can write the
        return value straight to the socket.
        """
        self._counters.submitted += 1
        try:
            request = parse_request(frame)
        except ServiceError as exc:
            self._counters.rejected_bad_request += 1
            request_id = frame.get("id") if isinstance(frame, dict) else None
            return error_frame(request_id, exc.code, str(exc))
        if request.op in CONTROL_OPS:
            payload = self.health() if request.op == "health" else self.stats()
            return result_frame(request.request_id, payload, cached=False)
        if not self._accepting:
            self._counters.rejected_shutting_down += 1
            return error_frame(
                request.request_id, SHUTTING_DOWN, "service is not accepting requests"
            )
        if len(self._pending) >= self._config.max_queue_depth:
            self._counters.rejected_overloaded += 1
            return error_frame(
                request.request_id,
                OVERLOADED,
                f"admission queue is full ({self._config.max_queue_depth} pending)",
            )
        self._counters.admitted += 1
        deadline = request.deadline
        if deadline is None:
            deadline = self._config.default_deadline
        now = self._loop.time()
        item = _Pending(
            request=request,
            future=self._loop.create_future(),
            admitted_at=now,
            expires_at=(now + deadline) if deadline is not None else None,
        )
        self._pending.append(item)
        self._wake.set()
        try:
            if deadline is None:
                return await item.future
            return await asyncio.wait_for(item.future, deadline)
        except (asyncio.TimeoutError, TimeoutError):
            item.cancelled = True
            self._counters.deadline_expired += 1
            return error_frame(
                request.request_id,
                DEADLINE_EXCEEDED,
                f"deadline of {deadline}s expired before the request completed",
            )
        except asyncio.CancelledError:
            # The waiter vanished (client disconnect): drop the work if it
            # has not run yet, and let the cancellation keep propagating.
            item.cancelled = True
            raise

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap liveness payload; never touches the dispatch queue."""
        status = "ok" if self._accepting else ("draining" if self._draining else "stopped")
        return {
            "status": status,
            "queue_depth": len(self._pending),
            "live_graphs": self._catalog.num_live,
            "generation": self._catalog.mutation_generation,
        }

    def stats(self) -> dict:
        """Counters, batch shape (query batches only: a mutation runs alone
        and counts under ``counters.mutations``), answer- and plan-cache
        accounting, latency percentiles."""
        batches = self._counters.batches
        return {
            "queue_depth": len(self._pending),
            "accepting": self._accepting,
            "generation": self._catalog.mutation_generation,
            "counters": self._counters.as_dict(),
            "batch": {
                "count": batches,
                "mean_size": round(self._counters.batched_requests / batches, 6)
                if batches
                else 0.0,
                "max_size": self._counters.max_batch_size,
            },
            "cache": {**self._cache.stats.as_dict(), "entries": len(self._cache)},
            "plan_cache": self._catalog.plan_cache_stats(),
            "latency": {
                "queue_seconds": _percentiles(self._queue_seconds),
                "execute_seconds": _percentiles(self._execute_seconds),
                "total_seconds": _percentiles(self._total_seconds),
            },
        }

    # ------------------------------------------------------------------
    # TCP front end
    # ------------------------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen for NDJSON connections; returns the bound ``(host, port)``.

        Each connection may pipeline requests: every line is served by its
        own task, responses are written as they finish (match them by
        ``id``).  A disconnect cancels that connection's outstanding
        requests without disturbing the rest of the service.
        """
        if self._dispatcher is None:
            raise ServiceError(INTERNAL, "start() the service before serve_tcp()")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _handle_connection(self, reader, writer) -> None:
        tasks: set[asyncio.Task] = set()
        write_lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _serve_line(self, line: bytes, writer, write_lock: asyncio.Lock) -> None:
        try:
            frame = decode_frame(line)
        except ServiceError as exc:
            self._counters.rejected_bad_request += 1
            response = error_frame(None, exc.code, str(exc))
        else:
            response = await self.submit(frame)
        try:
            async with write_lock:
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client is gone; the answer dies with the connection

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            if not self._pending:
                if self._draining:
                    return
                self._wake.clear()
                continue
            head = self._pending[0].request
            batch = [item for item in self._collect(head.group_key()) if self._still_wanted(item)]
            if not batch:
                continue
            if head.op not in MUTATION_OPS:
                self._counters.batches += 1
                self._counters.batched_requests += len(batch)
                self._counters.max_batch_size = max(self._counters.max_batch_size, len(batch))
            started = self._loop.time()
            for item in batch:
                self._queue_seconds.append(started - item.admitted_at)
            try:
                responses = await asyncio.to_thread(self._run_batch, batch)
            except ServiceError as exc:
                responses = [
                    error_frame(item.request.request_id, exc.code, str(exc))
                    for item in batch
                ]
            except ReproError as exc:
                responses = [
                    error_frame(item.request.request_id, BAD_REQUEST, str(exc))
                    for item in batch
                ]
            except Exception as exc:  # the lane must survive anything
                responses = [
                    error_frame(
                        item.request.request_id, INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
                    for item in batch
                ]
            elapsed = self._loop.time() - started
            for item, response in zip(batch, responses):
                self._execute_seconds.append(elapsed)
                self._resolve(item, response)

    def _collect(self, group_key: tuple) -> list[_Pending]:
        """Pop every batchable request matching ``group_key`` — but never
        past a queued mutation, which acts as an ordering barrier."""
        batch: list[_Pending] = []
        rest: deque[_Pending] = deque()
        barrier = False
        while self._pending:
            item = self._pending.popleft()
            if barrier:
                rest.append(item)
            elif item.request.op in MUTATION_OPS:
                if batch:
                    barrier = True
                    rest.append(item)
                else:
                    batch.append(item)  # head itself is the mutation: run it alone
                    barrier = True
            elif (
                len(batch) < self._config.max_batch_size
                and item.request.group_key() == group_key
            ):
                batch.append(item)
            else:
                rest.append(item)
        self._pending.extend(rest)
        return batch

    def _still_wanted(self, item: _Pending) -> bool:
        if item.cancelled or item.future.done():
            self._counters.dropped_before_execution += 1
            return False
        if item.expires_at is not None and self._loop.time() >= item.expires_at:
            # The waiter's wait_for fires at the same instant; skipping the
            # backend call is purely an economy measure.
            self._counters.dropped_before_execution += 1
            return False
        return True

    def _resolve(self, item: _Pending, response: dict) -> None:
        if item.future.done() or item.future.cancelled():
            return
        item.future.set_result(response)
        self._total_seconds.append(self._loop.time() - item.admitted_at)
        if response.get("ok"):
            self._counters.completed += 1
        else:
            self._counters.failed += 1

    # ------------------------------------------------------------------
    # backend execution (worker thread; the single serialized lane)
    # ------------------------------------------------------------------
    def _run_batch(self, batch: list[_Pending]) -> list[dict]:
        head = batch[0].request
        if head.op in MUTATION_OPS:
            self._counters.mutations += 1
            return [self._run_mutation(head)]
        generation = self._catalog.mutation_generation
        keys = [item.request.cache_key(generation) for item in batch]
        payloads: list[dict | None] = [self._cache.get(key) for key in keys]
        misses = [index for index, payload in enumerate(payloads) if payload is None]
        if misses:
            queries = [batch[index].request.query for index in misses]
            roots = [batch[index].request.root for index in misses]
            if head.op == "query":
                results = self._catalog.query_many(
                    queries,
                    head.probability_threshold,
                    head.distance_threshold,
                    config=self._config.search_config,
                    rngs=roots,
                )
            else:
                results = self._catalog.query_top_k_many(
                    queries,
                    head.k,
                    head.distance_threshold,
                    config=self._config.search_config,
                    rngs=roots,
                )
            for index, result in zip(misses, results):
                payload = result.as_dict()
                payloads[index] = payload
                self._cache.put(keys[index], payload)
        miss_set = set(misses)
        responses = []
        for index, (item, payload) in enumerate(zip(batch, payloads)):
            cached = index not in miss_set
            if cached:
                self._counters.cached += 1
            responses.append(result_frame(item.request.request_id, payload, cached))
        return responses

    def _run_mutation(self, request: Request) -> dict:
        payload = request.payload
        generation_before = self._catalog.mutation_generation
        try:
            if request.op == "add_graph":
                graph = self._mutation_graph(payload)
                # the catalog validates the id: a CatalogError is a BAD_REQUEST frame
                assigned = self._catalog.add_graph(graph, external_id=payload.get("external_id"))
                result = {"op": "add_graph", "external_id": assigned}
            elif request.op == "remove_graph":
                external_id = self._mutation_id(payload)
                self._catalog.remove_graph(external_id)
                result = {"op": "remove_graph", "external_id": external_id}
            elif request.op == "update_graph":
                external_id = self._mutation_id(payload)
                self._catalog.update_graph(external_id, self._mutation_graph(payload))
                result = {"op": "update_graph", "external_id": external_id}
            else:  # compact
                self._catalog.compact()
                result = {
                    "op": "compact",
                    "live_graphs": self._catalog.num_live,
                }
        finally:
            # Even a failed mutation may have advanced partway (update =
            # remove + add); dropping the cache on the error path costs a
            # few recomputes, never a stale answer.
            if self._catalog.mutation_generation != generation_before:
                self._cache.invalidate()
        result["generation"] = self._catalog.mutation_generation
        return result_frame(request.request_id, result, cached=False)

    @staticmethod
    def _mutation_graph(payload: dict):
        graph_payload = payload.get("graph")
        if not isinstance(graph_payload, dict):
            raise ServiceError(BAD_REQUEST, "'graph' must be a probabilistic-graph object")
        try:
            return probabilistic_graph_from_dict(graph_payload)
        except Exception as exc:
            raise ServiceError(BAD_REQUEST, f"malformed graph payload: {exc}") from exc

    @staticmethod
    def _mutation_id(payload: dict) -> int:
        external_id = payload.get("external_id")
        if not isinstance(external_id, int) or isinstance(external_id, bool):
            raise ServiceError(BAD_REQUEST, "'external_id' must be an integer")
        return external_id


def _percentiles(samples: deque[float]) -> dict:
    """Nearest-rank p50/p95/p99 over the retained latency window."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "count": 0}
    ordered = sorted(samples)
    count = len(ordered)

    def rank(fraction: float) -> float:
        return round(ordered[math.ceil(fraction * count) - 1], 6)

    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99), "count": count}
