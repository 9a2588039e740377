"""Sharded query execution over database partitions.

The T-PS pipeline is embarrassingly partitionable: every candidate graph is
filtered, pruned, and verified independently of every other graph, so a
database of N probabilistic graphs can be split into K disjoint *shards*,
each owning a PMI row slice, a structural-index row slice, and its own
:class:`~repro.core.planner.QueryPlanner`.  :class:`ShardedPlanner` is the
one planner a :class:`~repro.core.catalog.GraphCatalog` holds, for every K,
and it runs one flow of which a single shard is the degenerate case
(:meth:`ShardedPlanner.execute_plans`):

1. **The parent decides.**  The structural filter (Theorem 1) and the PMI
   bounds (Theorems 3 and 4) are cheap array passes over indexes the parent
   already holds, so it runs them for every plan on every shard's in-process
   planner.
2. **Verification is the only work that moves.**  A threshold plan's
   survivors go to the pool slot that owns their shard —
   one frame per slot that has any, none to a slot that has none — and are
   verified there in blocks; at width <= 1 they are verified in-process
   through the same block loop (:func:`~repro.core.pipeline.verify_rows`).
   A top-k plan's candidates of every shard are concatenated and ranked once,
   in the parent (:func:`~repro.core.pipeline.rank_top_k`): the floor is
   seeded once and each candidate the walk reaches is verified through the
   shard planner that owns it.

Determinism is the load-bearing property: a sharded run reproduces the
one-shard run *exactly*, answers and counters, regardless of K, worker count,
or OS scheduling.  Every stochastic sub-task derives its generator from
``(root, stage, global graph id)`` (:func:`repro.utils.rng.derive_rng`), so
the draws a graph consumes never depend on which process handles it or how
many other candidates ran first; the per-query roots arrive with the plans.
A threshold plan's per-shard answers are concatenated and sorted by
``(-probability, graph_id)`` — one shard's order (:func:`merge_query_results`)
— and per-shard statistics combine via :meth:`QueryStatistics.merge`
(counters sum across the disjoint slices; wall-clock fields take the max).

Shards are built and owned by :class:`~repro.core.catalog.GraphCatalog`, the
front door of every query: every shard carries the stable external id of each
storage row plus a tombstone mask, and its indexes are the catalog's segmented
base+delta views.

**The frame carries the graphs.**  A worker verifies graphs and reads
nothing else, so that is all it is sent, and only the ones it verifies.  A
threshold plan's frame to a slot names each survivor by ``(global id,
digest)`` — the digest is a 16-byte blake2b of the graph's pickle, computed
in the parent the first time the graph survives to a slot and memoised per
graph object — and carries the pickle of every survivor graph that slot's
worker does not hold yet, plus a drop list.  The worker is one ``digest →
graph`` store: it drops, installs, then verifies by digest; a digest it does
not hold is a :class:`~repro.exceptions.ShmError`, and the slot stays
usable.  Each :class:`_Slot` records the digests its worker holds, each with
a weak reference to the parent's graph it was shipped for; once that graph
is gone from the parent, its digest goes out in the next frame's drop list.
So a graph goes to a slot once, a repeated request ships no graph bytes, and
a graph that survives a mutation, a compaction or a reopen (an equal pickle)
is the same object in its worker, caches included.

The pool is one forked worker per slot, driven over a duplex pipe: the
worker receives a task frame, runs it and sends the reply frame, in order,
and the parent resolves each slot's pending replies oldest first.  Shard
``i`` is served by slot ``i mod W`` only: each shard's graphs are
deserialized in exactly one worker.

Lifecycle: a catalog mutation hands the planner new views of the shards it
touched (:meth:`ShardedPlanner.replace_shards`) and a compaction views of
every shard over new bases (:meth:`ShardedPlanner.rebase`); both are a swap
of views, and the pool stays.  :meth:`ShardedPlanner.close` — taken by the
catalog's ``close()`` and a compaction that changes the shard count —
*parks* the workers: one release task per slot, queued behind every task
already submitted, makes each worker keep the graphs it verified since its
previous park and drop the rest, and the digests it kept become the slot's
record, held until its next park.  The slot list waits in a process-wide
registry, at most one list per width, and the next planner of that width
takes it instead of forking.  A slot list with a dead worker, or one that
fails to release, is shut down, never parked; parked pools are shut down at
interpreter exit or by :func:`shutdown_parked_pools`.  Answers stay
byte-identical throughout because the graphs workers read unpickle from the
parent's.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.util import register_after_fork
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.pipeline import (
    TOP_K_MODE,
    FilteredPlan,
    finish_threshold,
    finish_top_k,
    verify_rows,
)
from repro.core.planner import QueryPlan, QueryPlanner
from repro.core.results import QueryResult, QueryStatistics
from repro.core.verification import Verifier
from repro.exceptions import BrokenSlotError, ConfigurationError, ShmError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.timer import Timer


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice ``[start, stop)`` of the global graph-id space."""

    shard_id: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def global_ids(self) -> range:
        return range(self.start, self.stop)


def partition_ranges(num_graphs: int, num_shards: int) -> list[ShardSpec]:
    """Balanced contiguous partition of ``range(num_graphs)`` into K shards.

    The first ``num_graphs % num_shards`` shards get one extra graph (the
    ``numpy.array_split`` rule).  ``num_shards`` is clamped to ``num_graphs``
    so no shard is ever empty.
    """
    if num_graphs <= 0:
        raise ConfigurationError("cannot partition an empty database")
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards!r}")
    num_shards = min(num_shards, num_graphs)
    base, extra = divmod(num_graphs, num_shards)
    specs: list[ShardSpec] = []
    start = 0
    for shard_id in range(num_shards):
        size = base + (1 if shard_id < extra else 0)
        specs.append(ShardSpec(shard_id=shard_id, start=start, stop=start + size))
        start += size
    return specs


@dataclass
class DatabaseShard:
    """One shard's graphs plus its PMI and structural-index row views.

    ``graph_ids`` holds the stable external id of every storage row (not
    necessarily contiguous) and ``active_mask`` switches tombstoned rows
    off; ``spec`` records only the shard id and the live-row count.
    ``pmi``/``structural_index`` are the catalog's segmented base+delta
    views (:mod:`repro.core.catalog`) — planners only need their row-read
    protocol.
    """

    spec: ShardSpec
    graphs: list[ProbabilisticGraph]
    pmi: ProbabilisticMatrixIndex
    structural_index: StructuralFeatureIndex
    graph_ids: np.ndarray
    active_mask: np.ndarray

    def make_planner(self) -> QueryPlanner:
        """A planner whose answers and RNG salts use *global* graph ids."""
        return QueryPlanner(
            self.graphs,
            self.pmi,
            self.structural_index,
            graph_ids=self.graph_ids,
            active_mask=self.active_mask,
        )

    def live_global_ids(self) -> np.ndarray:
        """The global ids this shard can answer with (tombstones excluded)."""
        ids = np.asarray(self.graph_ids, dtype=np.int64)
        return ids[np.asarray(self.active_mask, dtype=bool)]


def route_to_smallest(live_counts: list[int]) -> int:
    """The shard index a new graph routes to: fewest live graphs, lowest
    index on ties.  This is the catalog's ``add_graph`` placement rule; it
    keeps shards balanced without moving existing rows (rebalancing proper
    happens on ``compact()`` via :func:`partition_ranges`)."""
    if not live_counts:
        raise ConfigurationError("cannot route into an empty shard list")
    return int(np.argmin(np.asarray(live_counts, dtype=np.int64)))


# ----------------------------------------------------------------------
# result merging
# ----------------------------------------------------------------------
def merge_query_results(parts: list[QueryResult]) -> QueryResult:
    """Combine per-shard results of one query into a whole-database result.

    Shards cover disjoint graph-id slices, so the merged answer list is the
    concatenation re-sorted by ``(-probability, graph_id)`` — precisely the
    sequential planner's output order — and the counters sum via
    :meth:`QueryStatistics.merge`.
    """
    merged = QueryResult()
    for part in parts:
        merged.answers.extend(part.answers)
    merged.answers.sort(key=lambda a: (-a.probability, a.graph_id))
    merged.statistics = QueryStatistics.merge(part.statistics for part in parts)
    return merged


# ----------------------------------------------------------------------
# verification (runs in worker processes)
# ----------------------------------------------------------------------
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_DIGEST_BYTES = 16  # blake2b digest of one graph's pickle

# graph -> its digest, computed in the parent the first time the graph
# survives to a slot: a frame names each survivor by it
_DIGESTS: WeakKeyDictionary[ProbabilisticGraph, bytes] = WeakKeyDictionary()

# A worker is one store, digest -> graph: a frame drops the digests whose
# graphs the parent let go, installs the graphs it ships, then verifies by
# digest.  `_WORKER_USED` holds the digests verified since the last park,
# the graphs the worker keeps when it is parked.
_WORKER_GRAPHS: dict[bytes, ProbabilisticGraph] = {}
_WORKER_USED: set[bytes] = set()


def _verify_slot(
    drops: list[bytes],
    installs: dict[bytes, bytes],
    work: list[tuple[bytes, list[tuple[np.ndarray, list[bytes]]]]],
) -> list[tuple[list[float], int, float]]:
    """One slot's part of a fan-out: verify the graphs each plan left.

    ``drops`` are digests the worker lets go and ``installs`` maps each
    shipped graph's digest to its pickle; both apply before anything is
    verified.  ``work`` holds, per plan, the pickled ``(plan, root)`` —
    pickled once in the parent for every slot that verifies it — and one
    ``(global ids, digests)`` pair per shard, the survivors in row order.
    Returns ``(estimates, sampled, seconds)`` per pair, in order.  A digest
    the worker does not hold raises :class:`~repro.exceptions.ShmError`
    before any verification, and the store stays as the frame left it.
    """
    for digest in drops:
        _WORKER_GRAPHS.pop(digest, None)
        _WORKER_USED.discard(digest)
    for digest, payload in installs.items():
        _WORKER_GRAPHS[digest] = pickle.loads(payload)
    named = [digest for _, pairs in work for _, digests in pairs for digest in digests]
    missing = [digest for digest in named if digest not in _WORKER_GRAPHS]
    if missing:
        raise ShmError(
            f"this worker holds no graph with digest {missing[0].hex()} "
            f"({len(missing)} of {len(named)} unknown)"
        )
    _WORKER_USED.update(named)
    verdicts = []
    for payload, pairs in work:
        plan, root = pickle.loads(payload)
        verifier = Verifier(config=plan.config.verification, relaxation=plan.config.relaxation)
        for graph_ids, digests in pairs:
            graphs = [_WORKER_GRAPHS[digest] for digest in digests]
            timer = Timer()
            with timer:
                probabilities, sampled = verify_rows(
                    verifier, graphs, graph_ids, plan, range(len(graphs)), root
                )
            verdicts.append((probabilities, sampled, timer.elapsed))
    return verdicts


def _release_worker() -> list[bytes]:
    """The task a closing planner runs in every slot it parks: keep the
    graphs verified since the previous park, drop every other one, and
    return the kept digests — the parent's record of the parked worker."""
    kept = {
        digest: graph for digest, graph in _WORKER_GRAPHS.items() if digest in _WORKER_USED
    }
    _WORKER_GRAPHS.clear()
    _WORKER_GRAPHS.update(kept)
    _WORKER_USED.clear()
    return list(kept)


# ----------------------------------------------------------------------
# the sharded planner
# ----------------------------------------------------------------------
class ShardedPlanner:
    """Runs finished plans over K database shards and merges the answers.

    The query surface is :meth:`plan`, :meth:`plan_top_k` and
    :meth:`execute_plans` — the three methods a
    :class:`~repro.core.catalog.GraphCatalog` calls — and results are
    identical for every shard count and worker count.  The parent filters
    every plan on every shard; only the verification of threshold survivors
    goes to the pool.  ``max_workers`` picks the pool width (``None`` →
    ``min(num_shards, usable_cores())``); at width <= 1 survivors are
    verified in-process, which is also the zero-dependency fallback path.
    The pool is one forked worker per *slot*, each driven over a duplex
    pipe, and shard ``i`` is always served by slot ``i mod width``, so each
    shard's graphs are deserialized in exactly one worker.  A frame carries
    each survivor's global id and digest, plus the pickle of every survivor
    graph the slot's worker does not hold yet.

    Shards carry explicit stable ids plus a tombstone mask (see
    :class:`DatabaseShard`) and are validated for live-id disjointness.
    The determinism contract: answers and counters are byte-identical to a
    sequential run over the same live graphs under the same roots.

    A catalog mutation reaches the planner as :meth:`replace_shards` — new
    views of the shards it touched — and a compaction as :meth:`rebase` —
    every shard over a new base generation.  Both are a swap of views: the
    pool and the graphs its workers hold stay.
    """

    def __init__(
        self,
        shards: list[DatabaseShard],
        max_workers: int | None = None,
    ) -> None:
        _resolve_workers(max_workers, len(shards))  # rejects a negative width
        self.shards = _validated(shards)
        self.max_workers = max_workers
        # slot i: the one worker that serves shards i, i + W, ...
        self._slots: list[_Slot] = []
        self._local_planners: dict[int, QueryPlanner] = {}
        # Guards the shard views and the pool lifecycle against concurrent
        # submission: the query service fans requests in from worker threads
        # while mutations swap shard views, so view replacement, rebase, slot
        # creation, frame building and sending (a slot's record of what its
        # worker holds must change in the order its frames go out), resize,
        # and close must serialize.  Waiting for the workers' replies happens
        # outside it: each slot orders its own sends and receives.
        # Reentrant because locked helpers call one another (execute_plans
        # -> _send -> _ensure_slots -> _take_slots).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        with self._lock:
            return len(self.shards)

    @property
    def width(self) -> int:
        """The slots a fan-out uses; 1 means survivors are verified in-process."""
        return _resolve_workers(self.max_workers, self.num_shards)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def replace_shards(self, shards: list[DatabaseShard]) -> None:
        """Swap in new views of mutated shards, in one step.

        Each view replaces the current shard of the same id (the caller —
        the catalog, whose live-id map is the authority — keeps live ids
        disjoint), and that shard's in-process planner is dropped.  The
        pool, the other shards and their planners stay, and a fan-out sees
        either all of ``shards`` or none of them.
        """
        with self._lock:
            by_id = {shard.spec.shard_id: shard for shard in shards}
            unknown = by_id.keys() - {shard.spec.shard_id for shard in self.shards}
            if unknown:
                raise ConfigurationError(f"no shard with id {sorted(unknown)!r} to replace")
            # a new list: a fan-out that already read the old one keeps it
            self.shards = [by_id.get(shard.spec.shard_id, shard) for shard in self.shards]
            for shard_id in by_id:
                self._local_planners.pop(shard_id, None)

    def rebase(self, shards: list[DatabaseShard]) -> None:
        """Swap every shard for its view over a new base generation.

        This is how a compaction reaches a live planner: the shard ids must
        be the current ones (a compaction that changes the shard count takes
        the full swap, :meth:`close`).  The pool stays, and so does every
        graph its workers hold that the new generation still stores.
        """
        ordered = _validated(shards)
        with self._lock:
            if [s.spec.shard_id for s in ordered] != [s.spec.shard_id for s in self.shards]:
                raise ConfigurationError("a rebase keeps the planner's shard ids")
            self.shards = ordered
            self._local_planners.clear()

    # ------------------------------------------------------------------
    # planning and execution
    # ------------------------------------------------------------------
    def plan(
        self,
        query: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config=None,
    ) -> QueryPlan:
        """Validate and plan one threshold query, once for every shard.

        A :class:`QueryPlan` depends only on the query, thresholds, config
        and the globally shared feature set, so the first shard's planner
        builds it (Lemma-1 relaxation, then the count profile and the
        containment relations from one join of each feature into the query)
        and every shard receives the finished plan instead of re-deriving the
        same one K times.
        """
        return self._planning_planner().plan(
            query, probability_threshold, distance_threshold, config
        )

    def plan_top_k(
        self, query: LabeledGraph, k: int, distance_threshold: int, config=None
    ) -> QueryPlan:
        """Validate and plan one top-k query, once for every shard."""
        return self._planning_planner().plan_top_k(query, k, distance_threshold, config)

    def execute_plans(self, plans: list[QueryPlan], roots: list[int]) -> list[QueryResult]:
        """Run finished plans over every shard, one result per plan.

        Plan ``i`` runs under root ``roots[i]``.  The parent runs every stage
        before verification of every plan on every shard's in-process planner
        (:meth:`~repro.core.planner.QueryPlanner.filter_plan`), then places
        verification.  A threshold plan's survivors are verified by the slot
        that owns their shard, or in-process at width <= 1, and its shard
        parts merge by :func:`merge_query_results`.  A top-k plan is ranked
        once over every shard's candidates, in the parent
        (:func:`~repro.core.pipeline.finish_top_k`).  Because every estimate
        derives from ``(root, VERIFY_STREAM, global graph id)``, answers and
        counters are byte-identical to one shard's over the same live graphs
        with the same roots — for any shard count, worker count or OS
        scheduling.

        Filtering and sending happen under the lifecycle lock, so a fan-out
        filters one set of views and its frames leave in the order the
        slots' records of their workers' graphs changed.
        """
        if not plans:
            return []
        with self._lock:
            planners = [self._planner_for(shard) for shard in self.shards]
            parts = [
                [planner.filter_plan(plan, root) for planner in planners]
                for plan, root in zip(plans, roots)
            ]
            # (plan index, shard position) -> a threshold part with rows to verify
            survivors = {
                (i, j): part
                for i, plan_parts in enumerate(parts)
                if plans[i].mode != TOP_K_MODE
                for j, part in enumerate(plan_parts)
                if len(part.rows)
            }
            sent = self._send(survivors)
        verdicts = self._receive(sent, survivors)
        return [
            finish_top_k(plan_parts)
            if plan.mode == TOP_K_MODE
            else merge_query_results(
                [
                    finish_threshold(part, *verdicts.get((i, j), ([], 0, 0.0)))
                    for j, part in enumerate(plan_parts)
                ]
            )
            for i, (plan, plan_parts) in enumerate(zip(plans, parts))
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Park the pool.

        Each slot runs one release task, queued behind every task already
        submitted to it: its worker keeps the graphs it verified since it
        was last parked, drops the rest, and reports the digests it kept,
        which become the slot's record.  The slot list is then parked for
        the next planner of the same width, which takes it instead of
        forking (this one included).  A slot that cannot release — its
        worker died, or the release raised — takes every slot down with it
        and nothing is parked; a release that raised still raises here.
        This is the full swap: the catalog's ``close()`` and a compaction
        that changes the shard count come here; the dead-worker fallback
        (:class:`~repro.exceptions.BrokenSlotError`) takes it too, shutting
        the slots down instead of parking them.  A mutation does not
        (:meth:`replace_shards`), and neither does a compaction that keeps
        the shard count (:meth:`rebase`).

        Safe under concurrency (the drain-on-close contract): idempotent
        — a second ``close()``, including one racing the first from another
        thread, is a no-op — and a ``close()`` racing an in-flight
        :meth:`execute_plans` drains it rather than tearing it down: the
        release task runs after every submitted task, so the in-flight query
        still returns its (byte-identical) answers.
        """
        self._close(park=True)

    def _close(self, park: bool) -> None:
        with self._lock:
            slots = self._take_slots()
            if park:
                _park(slots)
            else:
                _shutdown(slots)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _send(self, survivors: dict[tuple[int, int], FilteredPlan]):
        """Send every slot that owns a survivor one frame; None when nothing
        goes to a pool (width <= 1, or no survivor at all).

        Called under the lifecycle lock, atomically: the slots are acquired
        and the frames built and sent, shard ``j``'s survivors to slot ``j
        mod W`` — so a concurrent ``close()`` either runs before this batch
        (which then takes a parked pool or forks one) or drains it (its
        release tasks queue behind the batch's), and a concurrent mutation or
        rebase lands wholly before or wholly after it.  Each plan is pickled
        once, however many slots verify it, and each graph a worker does not
        hold once per slot (:meth:`_Slot.hold`).  A frame that fails to go
        out leaves its slot's record ahead of its worker, so it shuts every
        slot down before it raises.
        """
        workers = self.width
        if workers <= 1 or not survivors:
            return None
        with self._lock:
            slots = self._ensure_slots(workers)
            submitted = []
            try:
                payloads: dict[int, bytes] = {}
                for slot_index, slot in enumerate(slots):
                    keys = [key for key in survivors if key[1] % workers == slot_index]
                    if not keys:
                        continue
                    installs: dict[bytes, bytes] = {}
                    work: dict[int, list] = {}
                    for i, j in keys:
                        part = survivors[i, j]
                        if i not in payloads:
                            payloads[i] = pickle.dumps(
                                (part.ctx.plan, part.ctx.root), protocol=_PICKLE_PROTOCOL
                            )
                        graphs = part.planner.graphs
                        digests = [slot.hold(graphs[row], installs) for row in part.rows.tolist()]
                        work.setdefault(i, []).append((part.planner.global_ids[part.rows], digests))
                    frame = [(payloads[i], pairs) for i, pairs in work.items()]
                    reply = slot.submit(_verify_slot, slot.stale(), installs, frame)
                    submitted.append((slot, reply, keys))
            except BaseException:
                self._close(park=False)
                raise
            return submitted

    def _receive(self, sent, survivors: dict[tuple[int, int], FilteredPlan]) -> dict:
        """Every survivor's ``(estimates, sampled, seconds)``, keyed like
        ``survivors``: the slots' replies, or — without a pool, or after a
        dead worker — :meth:`~repro.core.pipeline.FilteredPlan.verify` in this
        process.  Waiting for the replies happens outside the lock so
        concurrent submitters and a draining ``close()`` never deadlock on
        each other."""
        if sent is None:
            return {key: part.verify() for key, part in survivors.items()}
        try:
            replies = _gather([(slot, reply) for slot, reply, _ in sent])
        except BrokenSlotError:
            # a dead worker poisons its slot; answers are deterministic
            # either way, so finish this call in-process and let the next
            # call fork fresh slots (a broken slot list is never parked)
            self._close(park=False)
            return {key: part.verify() for key, part in survivors.items()}
        return {
            key: verdict
            for (_, _, keys), values in zip(sent, replies)
            for key, verdict in zip(keys, values, strict=True)
        }

    def _planning_planner(self) -> QueryPlanner:
        with self._lock:
            return self._planner_for(self.shards[0])

    def _planner_for(self, shard: DatabaseShard) -> QueryPlanner:
        with self._lock:
            planner = self._local_planners.get(shard.spec.shard_id)
            if planner is None:
                planner = shard.make_planner()
                self._local_planners[shard.spec.shard_id] = planner
            return planner

    def map_slots(self, fn, *args) -> list:
        """``fn(*args)`` run once in the worker of every slot, in slot order
        (starting the pool if there is none; ``[]`` without one).  Slot ``s``
        serves shards ``s, s + W, ...``: how tests and benchmarks reach the
        worker of a given shard to inspect or kill it.  A dead worker takes
        the fan-out's path — every slot shut down, none parked — and raises
        :class:`~repro.exceptions.BrokenSlotError`; the next call forks
        fresh workers."""
        workers = self.width
        if workers <= 1:
            return []
        with self._lock:
            submitted = [(slot, slot.submit(fn, *args)) for slot in self._ensure_slots(workers)]
        try:
            return _gather(submitted)
        except BrokenSlotError:
            self._close(park=False)
            raise

    def _take_slots(self) -> list[_Slot]:
        """Hand every slot over, to be parked or shut down."""
        with self._lock:
            slots, self._slots = self._slots, []
            return slots

    def _ensure_slots(self, workers: int) -> list[_Slot]:
        """The planner's slots: its own, else the parked list of this width,
        else ``workers`` newly forked ones."""
        with self._lock:
            if self._slots and len(self._slots) != workers:
                # resize: the old width's workers wait for a planner of it
                _park(self._take_slots())
            if not self._slots:
                self._slots = _take_parked(workers) or [_Slot() for _ in range(workers)]
            return self._slots


# ----------------------------------------------------------------------
# slots: one forked worker on a duplex pipe
# ----------------------------------------------------------------------
# Slots are forked one at a time, process-wide: a worker forked while another
# slot's pipe is half set up would inherit that pipe's child end and hide
# the other worker's death from this process.
_FORK_LOCK = threading.Lock()


class _Slot:
    """One forked worker (:func:`_serve_slot`) and this process's end of
    the duplex pipe to it.

    Every :meth:`submit` sends one task frame and queues one pending reply;
    the worker answers the frames in the order they arrived, and whichever
    caller waits reads replies off the pipe into the pending ones, oldest
    first, until its own has arrived.  Sends are serialised by one lock and
    receives by another, so a caller blocked sending a large frame to a
    worker that is itself blocked sending a reply never keeps the reply's
    owner from reading it.  A dead worker shows as ``EOFError`` /
    ``OSError`` on the pipe: every pending reply, and every later
    submission, then fails with :class:`~repro.exceptions.BrokenSlotError`.

    ``held`` is this process's record of the graphs the worker holds, by
    digest: a weak reference to the parent's graph each was shipped for,
    or None for one the worker kept when it was last parked, which stays
    until its next park.  The record travels with the slot through parking.
    ``graph_bytes`` counts the graph pickles sent to the worker.
    """

    def __init__(self) -> None:
        with _FORK_LOCK:
            self._conn, child = multiprocessing.Pipe()
            # each worker forked from now on closes its copy of this end, so
            # this slot's worker reads EOF once this process is gone
            register_after_fork(self._conn, Connection.close)
            self._process = multiprocessing.Process(
                target=_serve_slot, args=(child,), daemon=True
            )
            self._process.start()
            child.close()
        self._pending: deque[list] = deque()  # one list per task sent, filled with its reply
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._lost: str | None = None  # why the slot broke
        self.held: dict[bytes, weakref.ref | None] = {}
        self.graph_bytes = 0
        self._stop = weakref.finalize(
            self, _stop_worker, os.getpid(), self._conn, self._process
        )

    def hold(self, graph: ProbabilisticGraph, installs: dict[bytes, bytes]) -> bytes:
        """The digest ``graph`` goes by in this slot's worker.  Its pickle
        goes into ``installs`` unless the worker holds that digest already;
        the worker then keeps it while ``graph`` lives in this process."""
        digest, payload = _DIGESTS.get(graph), None
        if digest is None:
            payload = pickle.dumps(graph, protocol=_PICKLE_PROTOCOL)
            digest = hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest()
            _DIGESTS[graph] = digest
        if digest not in self.held:
            installs[digest] = payload or pickle.dumps(graph, protocol=_PICKLE_PROTOCOL)
            self.graph_bytes += len(installs[digest])
            self.held[digest] = weakref.ref(graph)
        elif self.held[digest] is not None and self.held[digest]() is None:
            self.held[digest] = weakref.ref(graph)  # an equal graph outlived the first
        return digest

    def stale(self) -> list[bytes]:
        """Forget every graph shipped for an object this process no longer
        holds; the digests are the next frame's drop list."""
        dead = [digest for digest, ref in self.held.items() if ref is not None and ref() is None]
        for digest in dead:
            del self.held[digest]
        return dead

    def submit(self, fn, *args) -> list:
        """Send ``fn(*args)`` to the worker; the returned list receives the
        reply (read it with :meth:`result`)."""
        frame = pickle.dumps((fn, args), protocol=_PICKLE_PROTOCOL)
        reply: list = []
        with self._send_lock:
            if self._lost is not None:
                return [None]
            self._pending.append(reply)
            try:
                self._conn.send_bytes(frame)
            except OSError as exc:  # the worker is gone
                self._lose(exc)
        return reply

    def wait(self, reply: list) -> None:
        """Read replies off the pipe, oldest first, until ``reply`` has one."""
        self._receive(lambda: reply)

    def result(self, reply: list):
        """The value ``reply`` carries, or its exception raised."""
        self.wait(reply)
        (frame,) = reply
        if frame is None:
            raise BrokenSlotError(self._lost)
        try:
            ok, value = pickle.loads(frame)
        except Exception as exc:
            raise ShmError(f"a slot worker's reply does not unpickle: {exc!r}") from exc
        if ok:
            return value
        raise value

    def shutdown(self) -> None:
        """Wait for every pending reply, then stop the worker and join it."""
        self._receive(lambda: not self._pending)
        self._stop()

    def _receive(self, done) -> None:
        with self._recv_lock:
            while not done():
                try:
                    frame = self._conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    self._lose(exc)
                else:
                    self._pending.popleft().append(frame)

    def _lose(self, exc: BaseException) -> None:
        """The worker is gone: fail every pending reply, now and from now on."""
        self._lost = (
            f"slot worker {self._process.pid} is gone "
            f"(exit code {self._process.exitcode}): {exc!r}"
        )
        while self._pending:
            try:
                self._pending.popleft().append(None)
            except IndexError:  # another caller failed it first
                break


def _gather(submitted: list[tuple[_Slot, list]]) -> list:
    """The value of every ``(slot, reply)``, in order, once all of them have
    arrived: a failed slot never leaves a sibling's reply unread on its pipe."""
    for slot, reply in submitted:
        slot.wait(reply)
    return [slot.result(reply) for slot, reply in submitted]


def _stop_worker(owner: int, conn: Connection, process) -> None:
    """Send the stop frame — queued behind every task already sent — then
    close the pipe and join the worker.  A forked copy of a slot stops
    nothing: the worker is not its child."""
    if os.getpid() != owner:
        return
    try:
        conn.send_bytes(b"")
    except OSError:
        pass  # the worker is gone already
    conn.close()
    process.join()


def _serve_slot(conn: Connection) -> None:
    """A slot worker's life: receive a task frame, run it, send the reply
    frame, in order, until the stop frame (empty) or the parent's end closes."""
    while True:
        try:
            frame = conn.recv_bytes()
        except EOFError:
            return
        if not frame:
            return
        try:
            conn.send_bytes(_run_task(frame))
        except OSError:
            return  # the parent is gone


def _run_task(frame: bytes) -> bytes:
    """Run one task frame; the reply frame is ``(True, value)`` or ``(False,
    exception)``.  A value or an exception that does not pickle becomes a
    :class:`~repro.exceptions.ShmError`, so a reply is always a whole frame."""
    try:
        fn, args = pickle.loads(frame)
        outcome = (True, fn(*args))
    except Exception as exc:
        outcome = (False, exc)
    try:
        return pickle.dumps(outcome, protocol=_PICKLE_PROTOCOL)
    except Exception as exc:
        what = "result" if outcome[0] else "exception"
        error = ShmError(f"a {type(outcome[1]).__name__} {what} does not pickle: {exc!r}")
        return pickle.dumps((False, error), protocol=_PICKLE_PROTOCOL)


# ----------------------------------------------------------------------
# parked pools
# ----------------------------------------------------------------------
# (pid, width) -> the released slots of a closed planner, waiting for the
# next one; keyed by pid, so a forked child never
# takes or shuts down its parent's workers
_PARKED: dict[tuple[int, int], list[_Slot]] = {}
_PARKED_LOCK = threading.Lock()


def _park(slots: list[_Slot]) -> None:
    """Release every slot's worker (:func:`_release_worker`) and park the
    list for the next planner of its width; the list parked there before is
    shut down.  A slot that cannot release takes every slot of the list down
    with it: a dead worker is why the list is not parked, and any other
    failure is raised once the workers are gone."""
    if not slots:
        return
    try:
        kept = _gather([(slot, slot.submit(_release_worker)) for slot in slots])
    except BrokenSlotError:
        _shutdown(slots)
        return
    except BaseException:
        _shutdown(slots)
        raise
    for slot, digests in zip(slots, kept):
        slot.held = dict.fromkeys(digests)
    with _PARKED_LOCK:
        replaced = _PARKED.get((os.getpid(), len(slots)), [])
        _PARKED[os.getpid(), len(slots)] = slots
    _shutdown(replaced)


def _take_parked(width: int) -> list[_Slot] | None:
    """The parked slot list of ``width``, now the caller's alone."""
    with _PARKED_LOCK:
        return _PARKED.pop((os.getpid(), width), None)


def _shutdown(slots: list[_Slot]) -> None:
    """Join every slot's worker once it has answered every task already
    sent, so a close racing an in-flight query drains it."""
    for slot in slots:
        slot.shutdown()


@atexit.register
def shutdown_parked_pools() -> None:
    """Shut every parked pool down (also run at interpreter exit).  The next
    planner forks fresh workers: what a test that patches worker-side code,
    or a benchmark that times a cold pool, needs first."""
    with _PARKED_LOCK:
        mine = [key for key in _PARKED if key[0] == os.getpid()]
        parked = [_PARKED.pop(key) for key in mine]
    for slots in parked:
        _shutdown(slots)


def _validated(shards: list[DatabaseShard]) -> list[DatabaseShard]:
    """``shards`` in shard-id order, checked: at least one, distinct ids
    (planner caches, slots and pool tasks are keyed by them) and disjoint live
    ids (the merge invariants need them)."""
    if not shards:
        raise ConfigurationError("a sharded planner needs at least one shard")
    ordered = sorted(shards, key=lambda shard: shard.spec.shard_id)
    all_ids = np.concatenate([shard.live_global_ids() for shard in ordered])
    if len(np.unique(all_ids)) != len(all_ids):
        raise ConfigurationError("catalog shards must cover disjoint live graph ids")
    seen_ids: set[int] = set()
    for shard in ordered:
        if shard.spec.shard_id in seen_ids:
            raise ConfigurationError(f"duplicate shard id {shard.spec.shard_id!r}")
        seen_ids.add(shard.spec.shard_id)
    return ordered


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _resolve_workers(max_workers: int | None, num_tasks: int) -> int:
    """The effective pool width: never more than tasks, ``None`` → the usable
    CPUs (:func:`usable_cores`)."""
    if max_workers is not None and max_workers < 0:
        raise ConfigurationError(f"max_workers must be >= 0, got {max_workers!r}")
    if num_tasks <= 1:
        return 1
    if max_workers is None:
        return min(num_tasks, usable_cores())
    return min(max_workers, num_tasks)
