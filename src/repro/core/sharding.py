"""Verification of threshold survivors in a pool of forked worker slots.

Every candidate graph is filtered, pruned and verified independently of
every other graph, and of the three stages only verification costs enough to
move.  :class:`ShardedPlanner` is the one planner a
:class:`~repro.core.catalog.GraphCatalog` holds.  It wraps the catalog's one
:class:`~repro.core.planner.QueryPlanner` and runs one flow
(:meth:`ShardedPlanner.execute_plans`):

1. **The parent decides.**  The structural filter (Theorem 1) and the PMI
   bounds (Theorems 3 and 4) are cheap array passes over indexes the parent
   already holds, so it runs them for every plan, once.
2. **Verification is the only work that moves.**  A threshold plan's
   survivors are dealt to the pool's slots in blocks: a survivor whose graph
   a slot's worker already holds goes to that slot, and the rest go as one
   block to the slot that holds the fewest graphs, lowest index on ties.  A
   slot dealt nothing gets no frame, unless it has a drop list to deliver.
   At width <= 1 survivors are verified in-process through the same block
   loop (:func:`~repro.core.pipeline.verify_rows`).  The width is never more
   than the CPUs the process may run on: two workers on one CPU only take
   turns, and every block would still pay the round trip and the ship.  A
   top-k plan is ranked in the parent
   (:func:`~repro.core.pipeline.finish_top_k`).

Determinism is the load-bearing property: answers and counters are the same
for every pool width and every way the survivors are dealt.  Every
stochastic sub-task derives its generator from ``(root, stage, global graph
id)`` (:func:`repro.utils.rng.derive_rng`), so the draws a graph consumes
never depend on which process verifies it or on what else its block holds.

**The frame carries the graphs.**  A worker verifies graphs and reads
nothing else, so that is all it is sent, and only the ones it verifies.  A
frame names each survivor by ``(global id, digest)`` — the digest is a
16-byte blake2b of the graph's pickle, computed in the parent the first
time the graph survives to a slot and memoised per graph object — and
carries the pickle of every survivor graph that slot's worker does not hold
yet, plus a drop list.  The worker is one ``digest → graph`` store: it
drops, installs, then verifies by digest; a digest it does not hold is a
:class:`~repro.exceptions.SlotError`, and the slot stays usable.  Each
:class:`_Slot` records the digests its worker holds, each with a weak
reference to the parent's graph it was shipped for; once that graph is gone
from the parent, its digest goes out in the slot's next drop list.  Dealing
by digest keeps each graph in at most one worker, a repeated request ships
no graph bytes, and a graph that survives a mutation, a compaction or a
reopen (an equal pickle) is the same object in its worker, caches included.

The pool is one forked worker per slot, driven over a duplex pipe: the
worker receives a task frame, runs it and sends the reply frame, in order,
and the parent resolves each slot's pending replies oldest first.

Lifecycle: a catalog mutation and a compaction both hand the planner a new
query planner over the catalog's new view (:meth:`ShardedPlanner.swap`),
and the pool stays.  :meth:`ShardedPlanner.close` — taken by the catalog's
``close()`` — *parks* the workers: one release task per slot, queued behind
every task already submitted, makes each worker keep the graphs it verified
since its previous park and drop the rest, and the digests it kept become
the slot's record, held until its next park.  The slot list waits in a
process-wide registry, at most one list per width, and the next planner of
that width takes it instead of forking.  A slot list with a dead worker, or
one that fails to release, is shut down, never parked; parked pools are
shut down at interpreter exit or by :func:`shutdown_parked_pools`.  Answers
stay byte-identical throughout because the graphs workers read unpickle
from the parent's.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import operator
import os
import pickle
import threading
import weakref
from collections import deque
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
from repro.core.results import QueryResult
from repro.core.verification import Verifier
from repro.exceptions import BrokenSlotError, ConfigurationError, QueryError, SlotError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.utils.timer import Timer


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
    work: list[tuple[bytes, np.ndarray, list[bytes]]],
) -> list[tuple[list[float], int, float]]:
    """One slot's part of a fan-out: verify the blocks it was dealt.

    ``drops`` are digests the worker lets go and ``installs`` maps each
    shipped graph's digest to its pickle; both apply before anything is
    verified.  ``work`` holds one block per plan: the pickled ``(plan,
    root)`` — pickled once in the parent for every slot that verifies it —
    and the block's global ids and digests.  Returns ``(estimates, sampled,
    seconds)`` per block, in order.  A digest the worker does not hold
    raises :class:`~repro.exceptions.SlotError` before any verification, and
    the store stays as the frame left it.
    """
    for digest in drops:
        _WORKER_GRAPHS.pop(digest, None)
        _WORKER_USED.discard(digest)
    for digest, payload in installs.items():
        _WORKER_GRAPHS[digest] = pickle.loads(payload)
    named = [digest for _, _, digests in work for digest in digests]
    missing = [digest for digest in named if digest not in _WORKER_GRAPHS]
    if missing:
        raise SlotError(
            f"this worker holds no graph with digest {missing[0].hex()} "
            f"({len(missing)} of {len(named)} unknown)"
        )
    _WORKER_USED.update(named)
    verdicts = []
    for payload, graph_ids, digests in work:
        plan, root = pickle.loads(payload)
        verifier = Verifier(config=plan.config.verification, relaxation=plan.config.relaxation)
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


def _digest(graph: ProbabilisticGraph) -> tuple[bytes, bytes | None]:
    """``graph``'s digest, plus its pickle when this call had to make one."""
    digest = _DIGESTS.get(graph)
    if digest is not None:
        return digest, None
    payload = pickle.dumps(graph, protocol=_PICKLE_PROTOCOL)
    digest = hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest()
    _DIGESTS[graph] = digest
    return digest, payload


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
class ShardedPlanner:
    """Runs finished plans over the catalog's one query planner, and deals
    the verification of threshold survivors to a pool of slots.

    The query surface is :meth:`plan`, :meth:`plan_top_k` and
    :meth:`execute_plans` — the three methods a
    :class:`~repro.core.catalog.GraphCatalog` calls — and results are
    identical for every pool width.  The parent filters every plan once;
    only the verification of threshold survivors goes to the pool.  The
    pool width is ``min(max_workers, num_shards, usable CPUs)``
    (``max_workers=None`` → the usable CPUs); at width <= 1 — one usable
    CPU included — survivors are verified in-process and no worker is
    forked, which is also the zero-dependency fallback path.  The pool is
    one forked worker per *slot*, each driven over a duplex pipe; a frame
    carries each survivor's global id and digest, plus the pickle of every
    survivor graph the slot's worker does not hold yet.

    The determinism contract: answers and counters are byte-identical to
    ``query_planner`` run alone under the same roots.  A catalog mutation
    or compaction reaches the planner as :meth:`swap`: the pool and the
    graphs its workers hold stay.
    """

    def __init__(
        self,
        query_planner: QueryPlanner,
        max_workers: int | None = None,
        num_shards: int = 1,
    ) -> None:
        self.max_workers, self.num_shards = pool_arguments(max_workers, num_shards)
        self.query_planner = query_planner
        self._slots: list[_Slot] = []
        # Guards the query planner and the pool lifecycle against concurrent
        # submission: the query service fans requests in from worker threads
        # while mutations swap the planner, so the swap, slot creation,
        # dealing and sending (a slot's record of what its worker holds must
        # change in the order its frames go out), resize, and close must
        # serialize.  Waiting for the workers' replies happens outside it:
        # each slot orders its own sends and receives.  Reentrant because
        # locked helpers call one another (execute_plans -> _send ->
        # _ensure_slots -> _take_slots).
        self._lock = threading.RLock()

    @property
    def width(self) -> int:
        """The slots a fan-out uses, ``min(max_workers, num_shards, usable
        CPUs)``; 1 means survivors are verified in-process.  Read per
        fan-out, so an affinity change takes effect at the next call; a pool
        forked wider sits idle until :meth:`close` parks it."""
        return _resolve_workers(self.max_workers, self.num_shards)

    def swap(self, query_planner: QueryPlanner) -> None:
        """Replace the query planner, in one step: how a catalog mutation
        and a compaction reach a live planner.  The pool stays, and so does
        every graph its workers hold; a fan-out in flight keeps the planner
        it filtered with."""
        with self._lock:
            self.query_planner = query_planner

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
        """Validate and plan one threshold query
        (:meth:`~repro.core.planner.QueryPlanner.plan`)."""
        with self._lock:
            planner = self.query_planner
        return planner.plan(query, probability_threshold, distance_threshold, config)

    def plan_top_k(
        self, query: LabeledGraph, k: int, distance_threshold: int, config=None
    ) -> QueryPlan:
        """Validate and plan one top-k query."""
        with self._lock:
            planner = self.query_planner
        return planner.plan_top_k(query, k, distance_threshold, config)

    def execute_plans(self, plans: list[QueryPlan], roots: list[int]) -> list[QueryResult]:
        """Run finished plans, one result per plan.

        Plan ``i`` runs under root ``roots[i]``; a ``roots`` list of another
        length is a :class:`~repro.exceptions.QueryError`.  The parent runs
        the structural and PMI passes of every plan
        (:meth:`~repro.core.planner.QueryPlanner.filter_plan`), then places
        verification: a threshold plan's survivors are dealt to slots in
        blocks, or verified in-process at width <= 1, and a top-k plan is
        ranked in the parent (:func:`~repro.core.pipeline.finish_top_k`).
        Because every estimate derives from ``(root, VERIFY_STREAM, global
        graph id)``, answers and counters are byte-identical to the query
        planner's own for any worker count, dealing or OS scheduling.

        Filtering and sending happen under the lifecycle lock, so a fan-out
        filters one view and its frames leave in the order the slots'
        records of their workers' graphs changed.
        """
        if len(roots) != len(plans):
            raise QueryError(f"roots has {len(roots)} entries for {len(plans)} plans")
        if not plans:
            return []
        with self._lock:
            parts = [
                self.query_planner.filter_plan(plan, root) for plan, root in zip(plans, roots)
            ]
            # plan index -> a threshold part with rows to verify
            survivors = {
                i: part
                for i, (plan, part) in enumerate(zip(plans, parts))
                if plan.mode != TOP_K_MODE and len(part.rows)
            }
            sent = self._send(survivors)
        verdicts = self._receive(sent, survivors)
        return [
            finish_top_k(part)
            if plan.mode == TOP_K_MODE
            else finish_threshold(part, *verdicts.get(i, ([], 0, 0.0)))
            for i, (plan, part) in enumerate(zip(plans, parts))
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
        The catalog's ``close()`` comes here; the dead-worker fallback
        (:class:`~repro.exceptions.BrokenSlotError`) shuts the slots down
        instead of parking them.  A mutation or a compaction does not
        (:meth:`swap`).

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
    def _send(self, survivors: dict[int, FilteredPlan]):
        """Deal every threshold plan's survivors to the slots and send each
        slot that was dealt a block one frame; None when nothing goes to a
        pool (width <= 1, or no survivor at all).

        A survivor whose digest a slot holds goes to that slot, and the rest
        of the plan's survivors go as one block to the slot that holds the
        fewest graphs, lowest index on ties.  A slot whose record names a
        graph this process let go of is sent a frame too, for its drop list.
        Called under the lifecycle lock, atomically: the slots are acquired and the frames built and
        sent — so a concurrent ``close()`` either runs before this batch
        (which then takes a parked pool or forks one) or drains it (its
        release tasks queue behind the batch's), and a concurrent swap lands
        wholly before or wholly after it.  Each plan is pickled once, however
        many slots verify it, and each graph a worker does not hold once per
        slot (:meth:`_Slot.hold`).  A frame that fails to go out leaves its
        slot's record ahead of its worker, so it shuts every slot down
        before it raises.
        """
        workers = self.width
        if workers <= 1 or not survivors:
            return None
        with self._lock:
            slots = self._ensure_slots(workers)
            # per plan, every survivor as (graph, digest, pickle or None)
            shipped = {
                i: [
                    (graph, *_digest(graph))
                    for graph in map(part.planner.graphs.__getitem__, part.rows)
                ]
                for i, part in survivors.items()
            }
            surviving = {digest for rows in shipped.values() for _, digest, _ in rows}
            installs: list[dict[bytes, bytes]] = [{} for _ in slots]
            # per slot: plan index -> (positions in the plan's rows, digests)
            dealt: list[dict[int, tuple[list[int], list[bytes]]]] = [{} for _ in slots]
            submitted = []
            try:
                drops = [slot.stale(surviving) for slot in slots]
                for i, rows in shipped.items():
                    fewest = min(range(len(slots)), key=lambda s: len(slots[s].held))
                    for position, (graph, digest, payload) in enumerate(rows):
                        s = next((s for s, slot in enumerate(slots) if digest in slot.held), fewest)
                        slots[s].hold(graph, digest, payload, installs[s])
                        positions, named = dealt[s].setdefault(i, ([], []))
                        positions.append(position)
                        named.append(digest)
                payloads: dict[int, bytes] = {}
                for slot, work, dropped, shipping in zip(slots, dealt, drops, installs):
                    if not work and not dropped:
                        continue
                    frame = []
                    for i, (positions, named) in work.items():
                        part = survivors[i]
                        if i not in payloads:
                            payloads[i] = pickle.dumps(
                                (part.plan, part.root), protocol=_PICKLE_PROTOCOL
                            )
                        ids = part.planner.global_ids[part.rows[positions]]
                        frame.append((payloads[i], ids, named))
                    reply = slot.submit(_verify_slot, dropped, shipping, frame)
                    keys = [(i, positions) for i, (positions, _) in work.items()]
                    submitted.append((slot, reply, keys))
            except BaseException:
                self._close(park=False)
                raise
            return submitted

    def _receive(self, sent, survivors: dict[int, FilteredPlan]) -> dict:
        """Every threshold plan's ``(estimates, sampled, seconds)``, keyed
        like ``survivors``: the slots' blocks put back in row order (seconds:
        the slowest block's), or — without a pool, or after a dead worker —
        :meth:`~repro.core.pipeline.FilteredPlan.verify` in this process.
        Waiting for the replies happens outside the lock so concurrent
        submitters and a draining ``close()`` never deadlock on each other."""
        if sent is None:
            return {i: part.verify() for i, part in survivors.items()}
        try:
            replies = _gather([(slot, reply) for slot, reply, _ in sent])
        except BrokenSlotError:
            # a dead worker poisons its slot; answers are deterministic
            # either way, so finish this call in-process and let the next
            # call fork fresh slots (a broken slot list is never parked)
            self._close(park=False)
            return {i: part.verify() for i, part in survivors.items()}
        verdicts = {i: ([0.0] * len(part.rows), 0, 0.0) for i, part in survivors.items()}
        for (_, _, keys), values in zip(sent, replies):
            for (i, positions), (estimates, sampled, seconds) in zip(keys, values, strict=True):
                probabilities, total, slowest = verdicts[i]
                for position, estimate in zip(positions, estimates, strict=True):
                    probabilities[position] = estimate
                verdicts[i] = (probabilities, total + sampled, max(slowest, seconds))
        return verdicts

    def map_slots(self, fn, *args) -> list:
        """``fn(*args)`` run once in the worker of every slot, in slot order
        (starting the pool if there is none; ``[]`` without one): how tests
        and benchmarks reach a worker to inspect or kill it.  A dead worker
        takes the fan-out's path — every slot shut down, none parked — and
        raises :class:`~repro.exceptions.BrokenSlotError`; the next call
        forks fresh workers."""
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

    def hold(
        self,
        graph: ProbabilisticGraph,
        digest: bytes,
        payload: bytes | None,
        installs: dict[bytes, bytes],
    ) -> None:
        """Record ``graph``, which goes by ``digest``, as held by this slot's
        worker.  Its pickle (``payload``, or a new one) goes into
        ``installs`` unless the worker holds that digest already; the worker
        then keeps it while ``graph`` lives in this process."""
        if digest not in self.held:
            installs[digest] = payload or pickle.dumps(graph, protocol=_PICKLE_PROTOCOL)
            self.graph_bytes += len(installs[digest])
            self.held[digest] = weakref.ref(graph)
        elif self.held[digest] is not None and self.held[digest]() is None:
            self.held[digest] = weakref.ref(graph)  # an equal graph outlived the first

    def stale(self, surviving: set[bytes]) -> list[bytes]:
        """Forget every graph shipped for an object this process no longer
        holds, unless an equal graph is among the ``surviving`` digests
        (:meth:`hold` then re-points the record); the digests are the next
        frame's drop list."""
        dead = [
            digest
            for digest, ref in self.held.items()
            if ref is not None and ref() is None and digest not in surviving
        ]
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
            raise SlotError(f"a slot worker's reply does not unpickle: {exc!r}") from exc
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
    :class:`~repro.exceptions.SlotError`, so a reply is always a whole frame."""
    try:
        fn, args = pickle.loads(frame)
        outcome = (True, fn(*args))
    except Exception as exc:
        outcome = (False, exc)
    try:
        return pickle.dumps(outcome, protocol=_PICKLE_PROTOCOL)
    except Exception as exc:
        what = "result" if outcome[0] else "exception"
        error = SlotError(f"a {type(outcome[1]).__name__} {what} does not pickle: {exc!r}")
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


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_arguments(max_workers, num_shards) -> tuple[int | None, int]:
    """``(max_workers, num_shards)`` checked once, the way the catalog checks
    an id: plain ints (anything ``operator.index`` takes, never a bool),
    ``max_workers`` >= 0 or None and ``num_shards`` >= 1."""
    return (
        None if max_workers is None else _count(max_workers, "max_workers", 0),
        _count(num_shards, "num_shards", 1),
    )


def _count(value, name: str, minimum: int) -> int:
    if isinstance(value, bool):  # operator.index(True) is 1
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return number


def _resolve_workers(max_workers: int | None, num_shards: int) -> int:
    """The effective pool width: ``min(max_workers, num_shards, usable
    CPUs)`` (:func:`usable_cores`; ``max_workers=None`` is no cap of its
    own), so a process that may run on one CPU never forks."""
    if num_shards <= 1:
        return 1
    cap = min(num_shards, usable_cores())
    return cap if max_workers is None else min(max_workers, cap)
