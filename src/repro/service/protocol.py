"""Wire protocol for the query service: NDJSON frames, typed errors, and
the canonical query form used as the answer-cache key.

One request or response per line of UTF-8 JSON.  The same frames flow over
the asyncio TCP transport and through the in-process
:class:`~repro.service.client.ServiceClient`, so both paths exercise the
identical encode/validate/decode pipeline — which is what lets the parity
suite hold the service to byte-identical answers against library mode.

Request frame::

    {"id": 7, "op": "query", "query": {<labeled_graph dict>},
     "probability_threshold": 0.3, "distance_threshold": 1,
     "rng": 1234, "deadline": 2.5}

``op`` is one of ``query`` / ``query_top_k`` (batchable reads),
``add_graph`` / ``remove_graph`` / ``update_graph`` / ``compact``
(exclusive mutations), or ``health`` / ``stats`` (introspection; never
queued).  ``rng`` is an optional integer seed: seeded requests are
cacheable and reproducible, unseeded ones draw a fresh root at admission
and bypass the cache.  ``deadline`` is an optional per-request budget in
seconds, measured from admission.

Success responses carry ``{"id", "ok": true, "result", "cached"}``;
failures carry ``{"id", "ok": false, "error": {"code", "message"}}`` where
``code`` is one of :data:`ERROR_CODES`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.exceptions import ServiceError
from repro.graphs.io import labeled_graph_from_dict, labeled_graph_to_dict
from repro.graphs.labeled_graph import LabeledGraph
from repro.utils.rng import rng_root

# Stable machine-readable error codes (mirrored on ServiceError.code).
BAD_REQUEST = "bad_request"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
SHUTTING_DOWN = "shutting_down"
INTERNAL = "internal"
ERROR_CODES = (BAD_REQUEST, OVERLOADED, DEADLINE_EXCEEDED, SHUTTING_DOWN, INTERNAL)

# Request classes: batchable reads, exclusive mutations, queue-bypassing
# introspection.  Parsing rejects anything else with ``bad_request``.
QUERY_OPS = ("query", "query_top_k")
MUTATION_OPS = ("add_graph", "remove_graph", "update_graph", "compact")
CONTROL_OPS = ("health", "stats")


def canonical_query_key(query: LabeledGraph) -> str:
    """A deterministic string identity for a query graph.

    Uses the sorted-vertex/sorted-edge dict form with the display ``name``
    stripped: two queries that differ only in name answer identically, so
    they must share a cache entry.  ``sort_keys`` pins the key order, making
    the string a stable dictionary key across processes.
    """
    payload = labeled_graph_to_dict(query)
    payload.pop("name", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(BAD_REQUEST, message)


def _number(frame: dict, field: str) -> float:
    value = frame.get(field)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field!r} must be a number, got {value!r}",
    )
    return value


def _integer(frame: dict, field: str) -> int:
    """An integral number: ``2`` or ``2.0``, never ``2.5``, ``Infinity`` or ``NaN``."""
    value = _number(frame, field)
    _require(
        isinstance(value, int) or value.is_integer(),
        f"{field!r} must be an integer, got {value!r}",
    )
    return int(value)


@dataclass
class Request:
    """A parsed, validated request frame.

    ``root`` is pinned at parse time — ``rng_root(seed)`` for seeded
    requests, a fresh nondeterministic draw otherwise — so a request's
    random streams are fixed before it ever enters a batch, and batch
    composition can never leak into its answers.  ``cache_key`` is ``None``
    exactly when the request is unseeded or not a query.
    """

    request_id: object
    op: str
    query: LabeledGraph | None = None
    payload: dict | None = None  # mutation arguments, verbatim
    probability_threshold: float | None = None
    distance_threshold: int | None = None
    k: int | None = None
    seeded: bool = False
    root: int = 0
    deadline: float | None = None

    def group_key(self) -> tuple:
        """Requests with equal group keys may share one backend micro-batch.

        Thresholds/k are part of the key because ``query_many`` takes them
        once per batch; the RNG root is *not* — per-request roots ride along
        via the ``rngs`` parameter.
        """
        if self.op == "query":
            return ("query", self.probability_threshold, self.distance_threshold)
        if self.op == "query_top_k":
            return ("query_top_k", self.k, self.distance_threshold)
        return (self.op, id(self))  # mutations never coalesce

    def cache_key(self, generation: int) -> tuple | None:
        """The answer-cache key under catalog generation ``generation``."""
        if not self.seeded or self.op not in QUERY_OPS:
            return None
        return (self.group_key(), canonical_query_key(self.query), self.root, generation)


def parse_request(frame: object) -> Request:
    """Validate one decoded frame into a :class:`Request`.

    Raises :class:`ServiceError` with code ``bad_request`` on any shape
    problem; the request id (when present) is still echoed by the server so
    pipelined clients can match the failure to its request.
    """
    _require(isinstance(frame, dict), f"request frame must be an object, got {type(frame).__name__}")
    op = frame.get("op")
    _require(
        op in QUERY_OPS + MUTATION_OPS + CONTROL_OPS,
        f"unknown op {op!r}",
    )
    request = Request(request_id=frame.get("id"), op=op)
    seed = frame.get("rng")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool),
            f"'rng' must be an integer seed, got {seed!r}",
        )
        request.seeded = True
    request.root = rng_root(seed)
    deadline = frame.get("deadline")
    if deadline is not None:
        deadline = _number(frame, "deadline")
        _require(deadline > 0, f"'deadline' must be positive, got {deadline!r}")
        request.deadline = float(deadline)
    if op in QUERY_OPS:
        query_payload = frame.get("query")
        _require(isinstance(query_payload, dict), "'query' must be a labeled-graph object")
        try:
            request.query = labeled_graph_from_dict(query_payload)
        except Exception as exc:
            raise ServiceError(BAD_REQUEST, f"malformed query graph: {exc}") from exc
        request.distance_threshold = _integer(frame, "distance_threshold")
        if op == "query":
            request.probability_threshold = float(_number(frame, "probability_threshold"))
        else:
            request.k = _integer(frame, "k")
    elif op in MUTATION_OPS:
        request.payload = dict(frame)
    return request


def error_frame(request_id: object, code: str, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def result_frame(request_id: object, result: dict, cached: bool) -> dict:
    return {"id": request_id, "ok": True, "result": result, "cached": cached}


def encode_frame(frame: dict) -> bytes:
    """One NDJSON line.  ``json.dumps`` emits ``repr``-shortest floats, so
    probabilities survive the wire bit-for-bit (the byte-parity contract)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> object:
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(BAD_REQUEST, f"undecodable frame: {exc}") from exc
