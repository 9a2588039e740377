"""Clients for the query service: in-process and NDJSON-over-TCP.

Both speak the exact frames defined in :mod:`repro.service.protocol` and
decode results through :meth:`QueryResult.from_dict`, so a test can swap
one for the other and the bytes on the wire (or the dicts that would have
been those bytes) are identical.  Error frames surface as
:class:`~repro.exceptions.ServiceError` with the server's machine-readable
``code`` intact.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.core.results import QueryResult
from repro.exceptions import ServiceError
from repro.graphs.io import labeled_graph_to_dict, probabilistic_graph_to_dict
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.service.protocol import encode_frame
from repro.service.server import QueryService


class _RequestBuilder:
    """Frame construction, response decoding and the eight calls, shared by
    both transports; a transport adds only its ``_call`` (send one frame,
    return the unwrapped result) and its connection code."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)

    def _frame(self, op: str, *, rng=None, deadline=None, **fields) -> dict:
        frame = {"id": next(self._ids), "op": op, **fields}
        if rng is not None:
            frame["rng"] = rng
        if deadline is not None:
            frame["deadline"] = deadline
        return frame

    @staticmethod
    def _unwrap(response: dict) -> dict:
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "internal"), error.get("message", "unknown service error")
        )

    # -- the calls: each transport supplies ``_call(frame) -> result`` ----
    async def query(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        rng=None,
        deadline=None,
    ) -> QueryResult:
        frame = self._frame(
            "query",
            query=labeled_graph_to_dict(query),
            probability_threshold=probability_threshold,
            distance_threshold=distance_threshold,
            rng=rng,
            deadline=deadline,
        )
        return QueryResult.from_dict(await self._call(frame))

    async def query_top_k(
        self,
        query: LabeledGraph,
        k: int,
        distance_threshold: int,
        rng=None,
        deadline=None,
    ) -> QueryResult:
        frame = self._frame(
            "query_top_k",
            query=labeled_graph_to_dict(query),
            k=k,
            distance_threshold=distance_threshold,
            rng=rng,
            deadline=deadline,
        )
        return QueryResult.from_dict(await self._call(frame))

    async def add_graph(self, graph: ProbabilisticGraph, external_id: int | None = None) -> dict:
        fields = {"graph": probabilistic_graph_to_dict(graph)}
        if external_id is not None:
            fields["external_id"] = external_id
        return await self._call(self._frame("add_graph", **fields))

    async def remove_graph(self, external_id: int) -> dict:
        return await self._call(self._frame("remove_graph", external_id=external_id))

    async def update_graph(self, external_id: int, graph: ProbabilisticGraph) -> dict:
        return await self._call(
            self._frame(
                "update_graph",
                external_id=external_id,
                graph=probabilistic_graph_to_dict(graph),
            )
        )

    async def compact(self) -> dict:
        return await self._call(self._frame("compact"))

    async def health(self) -> dict:
        return await self._call(self._frame("health"))

    async def stats(self) -> dict:
        return await self._call(self._frame("stats"))


class ServiceClient(_RequestBuilder):
    """In-process client: frames go straight to :meth:`QueryService.submit`.

    The request/response dicts are the same objects a TCP client would
    serialize, so in-process tests exercise the full protocol layer minus
    only the socket.  ``last_response`` keeps the raw frame of the most
    recent call for assertions on ``cached`` and error metadata.
    """

    def __init__(self, service: QueryService) -> None:
        super().__init__()
        self._service = service
        self.last_response: dict | None = None

    async def _call(self, frame: dict) -> dict:
        self.last_response = await self._service.submit(frame)
        return self._unwrap(self.last_response)


class TcpServiceClient(_RequestBuilder):
    """NDJSON pipelined client over an asyncio TCP connection.

    Requests are written as single lines; a reader task routes response
    lines back to their waiters by ``id``, so many coroutines can share one
    connection and their requests coalesce into server-side micro-batches.
    """

    def __init__(self) -> None:
        super().__init__()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._waiting: dict[object, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()

    async def connect(self, host: str, port: int) -> "TcpServiceClient":
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
            self._writer = None
        self._fail_waiters(ServiceError("internal", "connection closed"))

    async def __aenter__(self) -> "TcpServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _fail_waiters(self, error: Exception) -> None:
        waiting, self._waiting = self._waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self) -> None:
        import json

        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, OSError, ValueError) as exc:
            self._fail_waiters(ServiceError("internal", f"connection lost: {exc}"))
            return
        self._fail_waiters(ServiceError("internal", "server closed the connection"))

    async def _call(self, frame: dict) -> dict:
        if self._writer is None:
            raise ServiceError("internal", "client is not connected")
        future = asyncio.get_running_loop().create_future()
        self._waiting[frame["id"]] = future
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        try:
            return self._unwrap(await future)
        finally:
            self._waiting.pop(frame["id"], None)
