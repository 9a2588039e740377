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
   survivors go, as storage rows, to the pool slot that owns their shard —
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

**The zero-copy graph plane.**  A worker verifies graphs and reads nothing
else, so what the planner *publishes* into ``multiprocessing.shared_memory``
is each shard's graphs and their ids, split by the two lifetimes a catalog
shard has:

* the **base** — the base rows' external ids and graphs, as per-graph pickle
  blobs with a digest each — goes once into one
  :class:`~repro.utils.shm.ShardArena` segment (:func:`publish_base`) and
  stays until the catalog compacts.  A worker receives only the O(1)
  :class:`ShardDescriptor` — segment name, dtypes, shapes, offsets — of each
  shard it serves, once per generation, with its first task; it attaches
  read-only on that task and keeps the mapping.  Base graphs deserialize
  lazily per candidate, so a worker's private memory holds only the graphs
  it verified;
* the **delta** — the delta rows' ids, graphs and digests, the tombstoned
  rows — goes into a small self-describing segment (:func:`publish_delta`)
  that is republished whenever that shard mutates.  A pool task names the
  base and the delta segment it must run against; a worker that has not seen
  that delta copies it out, detaches at once, and rebuilds the shard's
  :class:`ShardGraphs` over the base mapping, the base graph list and the
  delta graphs it already holds (:func:`materialize_shard`) — so
  deserialized graphs and every cache hung on them survive a mutation.

The pool is one forked worker per slot, driven over a duplex pipe: the
worker receives a task frame, runs it and sends the reply frame, in order,
and the parent resolves each slot's pending replies oldest first.  Shard
``i`` is served by slot ``i mod W`` only: each shard is mapped and its graphs
deserialized in exactly one worker.

Lifecycle: the :class:`ShardPlane` (the bases plus each shard's current
delta) is created lazily with the first fan-out and survives pool resizes (a
width change recycles workers but re-ships only descriptors).  A catalog
mutation hands the planner new views of the shards it touched
(:meth:`ShardedPlanner.replace_shards`); the next fan-out republishes those
shards' deltas, and a replaced delta segment is unlinked once no fan-out that
named it is still running.  A compaction hands it views of every shard over
new bases (:meth:`ShardedPlanner.rebase`): under a live pool the new
generation is published at once and the old plane retires through the same
drain barrier.  The pool stays; a worker meeting a new base drops its old
view, detaches the old base and keeps each graph whose digest the new
generation stores again.  :meth:`ShardedPlanner.close` is the full swap of
the plane, taken by the catalog's ``close()`` and a compaction that changes
the shard count, and it *parks* the workers: one release task per slot —
queued behind every task already submitted, so it is also the drain barrier
— makes each worker drop every view and descriptor, unmap every segment and
keep only the graphs it had deserialized, keyed by pickle digest; only then
does the plane unlink.  The slot list waits in a process-wide registry, at
most one list per width, and the next planner of that width takes it instead
of forking (:func:`materialize_shard` adopts the kept graphs, caches
included, wherever their digests reappear).  A worker therefore holds at most
one closed planner's graphs, dropped at its next release.  A slot list with a
dead worker, or one that fails to release, is shut down, never parked; parked
pools are shut down at interpreter exit or by :func:`shutdown_parked_pools`.
Answers stay byte-identical throughout because the graphs workers read are
bit-for-bit the parent's.
"""

from __future__ import annotations

import atexit
import gc
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
from repro.exceptions import BrokenSlotError, ConfigurationError, IndexError_, ShmError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.timer import Timer
from repro.utils.shm import (
    ArenaDescriptor,
    AttachedArena,
    LazyGraphList,
    SegmentedGraphList,
    ShardArena,
    finalize_unlink,
    publish_blob,
    read_blob,
    release_foreign_mappings,
    unlink_segment,
)


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
# the shared-memory shard plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardDescriptor:
    """The O(1) handle a worker needs to attach one shard's published base.

    Pickling this costs bytes proportional to the number of arena *fields*
    (four name/dtype/shape/offset tuples: the base rows' ids, the graph
    pickles, their offset table and their digests), never to the shard's data
    — the regression tests assert exactly that.
    """

    shard_id: int
    arena: ArenaDescriptor


_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_DIGEST_BYTES = 16  # blake2b digest of one graph's pickle


def _base_rows(shard: DatabaseShard) -> int:
    """How many of the shard's storage rows its base holds."""
    from repro.core.catalog import SegmentedPmiView

    if not isinstance(shard.pmi, SegmentedPmiView):
        raise IndexError_("a shard publishes over a segmented (base + delta) PMI view")
    return shard.pmi.base.num_graphs


def _pack_graphs(graphs) -> tuple[np.ndarray, bytes, np.ndarray]:
    """Back-to-back per-graph pickles, their ``n + 1`` offset table and one
    16-byte blake2b digest per pickle — the form a
    :class:`~repro.utils.shm.LazyGraphList` deserializes from.  A worker
    keeps a graph it already holds wherever its digest appears again."""
    payloads = [pickle.dumps(graph, protocol=_PICKLE_PROTOCOL) for graph in graphs]
    offsets = np.zeros(len(payloads) + 1, dtype=np.int64)
    if payloads:
        np.cumsum(
            np.asarray([len(p) for p in payloads], dtype=np.int64), out=offsets[1:]
        )
    digests = np.frombuffer(
        b"".join(hashlib.blake2b(p, digest_size=_DIGEST_BYTES).digest() for p in payloads),
        dtype=np.uint8,
    ).reshape(len(payloads), _DIGEST_BYTES)
    return offsets, b"".join(payloads), digests


def publish_base(shard: DatabaseShard) -> tuple[ShardArena, ShardDescriptor]:
    """Pack a shard's immutable base into a shared-memory arena.

    Everything here stays put until the catalog compacts: the base rows'
    external ids, and the base graphs as back-to-back per-graph pickles with
    an offset table (lazy deserialization on the worker) and a digest per
    pickle (what a worker carries graphs across generations by).  That is all
    a verifier reads: the indexes stay in the parent, which decides.
    """
    base_rows = _base_rows(shard)
    arrays = {"graph_ids": np.asarray(shard.graph_ids[:base_rows], dtype=np.int64)}
    arrays["graph_offsets"], graphs, arrays["graph_digests"] = _pack_graphs(
        shard.graphs[:base_rows]
    )
    arena = ShardArena.pack(arrays, {"graphs": graphs})
    return arena, ShardDescriptor(shard_id=shard.spec.shard_id, arena=arena.descriptor)


def publish_delta(shard: DatabaseShard) -> tuple[str, int]:
    """Publish what mutations change; returns the segment's name and bytes.

    The delta rows' external ids, graphs and graph digests and the tombstoned
    storage rows go into one self-describing blob segment
    (:func:`repro.utils.shm.publish_blob`).  Its size follows the delta and
    the tombstones, never the base: the base id column is in the base arena
    and the tombstone mask travels as the positions of its dead rows.
    """
    base_rows = _base_rows(shard)
    graph_offsets, graphs, digests = _pack_graphs(shard.graphs[base_rows:])
    payload = pickle.dumps(
        {
            "graph_ids": np.asarray(shard.graph_ids[base_rows:], dtype=np.int64),
            "dead_rows": np.flatnonzero(~np.asarray(shard.active_mask, dtype=bool)),
            "graph_offsets": graph_offsets,
            "graphs": graphs,
            "digests": digests,
        },
        protocol=_PICKLE_PROTOCOL,
    )
    return publish_blob(payload), len(payload)


@dataclass
class ShardGraphs:
    """A pool worker's view of one published shard: everything a verifier
    reads.  ``graphs`` holds base then delta rows; ``graph_ids`` is each
    storage row's external id and ``active_mask`` switches tombstoned rows
    off.  ``arena`` keeps the base mapped for the view's lifetime, and
    ``delta_segment`` names the delta it was built against."""

    graphs: SegmentedGraphList
    graph_ids: np.ndarray
    active_mask: np.ndarray
    arena: AttachedArena
    delta_segment: str


def _attach_base(descriptor: ShardDescriptor) -> tuple[AttachedArena, LazyGraphList]:
    """Map a published base: its arena and a lazy list of its graphs.  A
    descriptor the segment does not back raises with nothing left mapped."""
    arena = AttachedArena(descriptor.arena)
    try:
        arena.array("graph_ids")
        graphs = LazyGraphList(
            arena.blob("graphs"),
            arena.array("graph_offsets"),
            owner=arena,
            digests=arena.array("graph_digests"),
        )
    except BaseException:
        arena.detach()
        raise
    return arena, graphs


def materialize_shard(
    descriptor: ShardDescriptor,
    delta_segment: str,
    previous: ShardGraphs | None = None,
    held: dict[bytes, ProbabilisticGraph] | None = None,
) -> ShardGraphs:
    """A worker's :class:`ShardGraphs` over a published base and delta.

    The base ids come back as a read-only zero-copy view into the shared
    mapping and the base graphs as a :class:`~repro.utils.shm.LazyGraphList`
    that deserializes per graph on first access; the returned view keeps the
    base attached for its own lifetime via its ``arena`` field.  The delta is
    small and short-lived, so it is copied out and its segment detached
    before this returns — a process never holds a delta mapping.

    ``previous`` is this process's last view of the same shard.  Over the
    *same base* its mapping and base graph list are kept as they are and only
    the delta is read again; over an older base (the catalog compacted) the
    new base is attached instead, and the caller detaches the old one.
    Either way every graph ``previous`` had deserialized is carried into each
    new row whose graph digest equals its own, so a graph that survives a
    mutation or a compaction is not unpickled again and keeps its caches; an
    updated graph has a new pickle, hence a new digest, and is read afresh.
    ``held`` (digest → graph) offers more graphs the same way: those a parked
    worker kept from the planner it served before.

    The delta is read before anything is attached, so a delta that cannot be
    read raises with no new mapping left behind.
    """
    delta = pickle.loads(read_blob(delta_segment))
    carried = dict(held or {})
    if previous is not None:
        carried.update(previous.graphs.delta.by_digest())
    if previous is not None and previous.arena.descriptor.segment == descriptor.arena.segment:
        arena, base_graphs = previous.arena, previous.graphs.base
    else:
        arena, base_graphs = _attach_base(descriptor)
        if previous is not None:
            carried.update(previous.graphs.base.by_digest())
        base_graphs.adopt(carried)
    delta_graphs = LazyGraphList(
        memoryview(delta["graphs"]), delta["graph_offsets"], digests=delta["digests"]
    )
    delta_graphs.adopt(carried)
    graph_ids = np.concatenate([arena.array("graph_ids"), delta["graph_ids"]])
    active_mask = np.ones(graph_ids.size, dtype=bool)
    active_mask[delta["dead_rows"]] = False
    return ShardGraphs(
        graphs=SegmentedGraphList(base_graphs, delta_graphs),
        graph_ids=graph_ids,
        active_mask=active_mask,
        arena=arena,
        delta_segment=delta_segment,
    )


class ShardPlane:
    """A planner's published shards: one base generation, current deltas.

    Owns, per shard, one base arena — published here, once, and kept until
    the plane closes — and one delta segment, replaced by
    :meth:`republish_delta` whenever that shard mutates.  A fan-out brackets
    its tasks with :meth:`acquire` / :meth:`release`; a replaced delta is
    unlinked at once when no fan-out is running against it and otherwise by
    the ``release`` of the last one that is — the drain barrier: a task never
    finds the segment it was told to read gone.  A compaction retires the
    whole plane through the same barrier (:meth:`retire`).  The plane does no
    locking of its own; its planner calls it under the planner's lock.

    Cleanup is belt and braces: :meth:`close` unlinks explicitly, a
    ``weakref.finalize`` fires on GC or interpreter exit if nobody called it,
    the :mod:`repro.utils.shm` atexit sweep catches anything else, and every
    path is idempotent and pid-guarded (a forked worker can never unlink its
    parent's segments).
    """

    def __init__(self, shards: list[DatabaseShard]) -> None:
        # every segment published and not yet unlinked; the finalizer holds
        # this very list, so it covers a construction that fails halfway too
        self._names: list[str] = []
        self._finalizer = finalize_unlink(self, self._names)
        self._bases: list[ShardArena] = []
        self.descriptors: list[ShardDescriptor] = []
        # shard id -> (segment name, bytes) of the delta tasks are sent to
        self._deltas: dict[int, tuple[str, int]] = {}
        # delta segment name -> fan-outs running against it
        self._in_flight: dict[str, int] = {}
        self._retired = False
        for shard in shards:
            arena, descriptor = publish_base(shard)
            self._names.append(arena.name)
            self._bases.append(arena)
            self.descriptors.append(descriptor)
            self.republish_delta(shard)

    def republish_delta(self, shard: DatabaseShard) -> None:
        """Publish ``shard``'s current delta and retire the one it replaces."""
        shard_id = shard.spec.shard_id
        replaced = self._deltas.get(shard_id)
        name, nbytes = publish_delta(shard)
        self._names.append(name)
        self._deltas[shard_id] = (name, nbytes)
        if replaced is not None and replaced[0] not in self._in_flight:
            self._unlink(replaced[0])

    def acquire(self) -> tuple[str, ...]:
        """The delta segment of every shard, in descriptor order, each marked
        as read by one more fan-out until :meth:`release` gets the tuple back."""
        names = tuple(self._deltas[d.shard_id][0] for d in self.descriptors)
        for name in names:
            self._in_flight[name] = self._in_flight.get(name, 0) + 1
        return names

    def release(self, names: tuple[str, ...]) -> None:
        """The fan-out that acquired ``names`` has drained; unlink every delta
        among them that was replaced meanwhile and has no reader left — and
        the whole plane once it is retired and nothing reads it any more."""
        current = {name for name, _ in self._deltas.values()}
        for name in names:
            self._in_flight[name] -= 1
            if not self._in_flight[name]:
                del self._in_flight[name]
                if name not in current:
                    self._unlink(name)
        if self._retired and not self._in_flight:
            self.close()

    def retire(self) -> None:
        """A newer base generation replaces this plane: close it now if no
        fan-out runs against it, else when the last one releases."""
        self._retired = True
        if not self._in_flight:
            self.close()

    def _unlink(self, name: str) -> None:
        unlink_segment(name)
        if name in self._names:  # not after close(), which drained the list
            self._names.remove(name)

    def payload_bytes(self, width: int = 1) -> int:
        """Descriptor bytes one generation ships to the busiest of ``width``
        slots: shard ``i`` goes to slot ``i mod width``, each descriptor once,
        pickled on its own as the first task carries it (``width`` 1: all)."""
        sizes = [
            len(pickle.dumps(descriptor, protocol=_PICKLE_PROTOCOL))
            for descriptor in self.descriptors
        ]
        return max(sum(sizes[slot::width]) for slot in range(width))

    def segment_names(self) -> list[str]:
        """Every segment this plane still has published: the bases, the
        current deltas, and any replaced delta a running fan-out still reads."""
        return list(self._names)

    def base_segment_names(self) -> list[str]:
        return [arena.name for arena in self._bases]

    def delta_segment_names(self) -> list[str]:
        """The current delta segment of every shard, in descriptor order."""
        return [self._deltas[d.shard_id][0] for d in self.descriptors]

    def shard_bytes(self) -> int:
        """Total bytes published: every base arena plus every current delta."""
        return sum(arena.descriptor.nbytes for arena in self._bases) + self.delta_bytes()

    def delta_bytes(self) -> int:
        """Bytes of the current deltas — what mutations republish."""
        return sum(nbytes for _, nbytes in self._deltas.values())

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink every segment (idempotent; also disarms the finalizer)."""
        self._finalizer()


# ----------------------------------------------------------------------
# query execution (runs in worker processes)
# ----------------------------------------------------------------------
# Each worker is the one process of its slot and serves a fixed set of
# shards.  A task names, per shard it verifies on, the base segment and the
# delta segment it must run against; the first task of a base generation on a
# slot carries the shard's descriptor in place of the name.  The worker keeps,
# per shard, the last descriptor it was sent and the view it built for the
# last delta named, so steady-state tasks ship only (shard_id, base segment
# name, delta segment name) per shard plus the rows to verify and their plans.
# A parked worker holds none of that, only the graphs it kept at its release
# (digest -> graph).
_WORKER_DESCRIPTORS: dict[int, ShardDescriptor] = {}
_WORKER_SHARDS: dict[int, ShardGraphs] = {}
_WORKER_PARKED: dict[bytes, ProbabilisticGraph] = {}


def _verify_slot(
    tasks: list[tuple[int, ShardDescriptor | str, str]],
    work: list[tuple[bytes, list[tuple[int, np.ndarray]]]],
) -> list[tuple[list[float], int, float]]:
    """One slot's part of a fan-out: verify the rows each plan left on the
    shards the slot serves.

    ``tasks`` holds ``(shard_id, base, delta segment)`` per shard ``work``
    names, in shard order; ``base`` is the shard's descriptor on the first
    task of a generation and the base segment's name after that.  ``work``
    holds, per plan, the pickled ``(plan, root)`` — pickled once in the parent
    for every slot that verifies it — and its ``(shard_id, rows)`` pairs.
    Returns ``(estimates, sampled, seconds)`` per pair, in order.  Every
    descriptor carried is recorded before any shard is read, so a shard that
    fails does not cost a sibling the descriptor its next task relies on.
    """
    for shard_id, base, _ in tasks:
        if isinstance(base, ShardDescriptor):
            _WORKER_DESCRIPTORS[shard_id] = base
    shards = {}
    for shard_id, base, delta_segment in tasks:
        segment = base.arena.segment if isinstance(base, ShardDescriptor) else base
        descriptor = _WORKER_DESCRIPTORS.get(shard_id)
        if descriptor is None or descriptor.arena.segment != segment:
            raise ShmError(f"shard {shard_id}: this worker was never sent base {segment!r}")
        shards[shard_id] = _worker_shard(descriptor, delta_segment)
    verdicts = []
    for payload, pairs in work:
        plan, root = pickle.loads(payload)
        verifier = Verifier(config=plan.config.verification, relaxation=plan.config.relaxation)
        for shard_id, rows in pairs:
            shard = shards[shard_id]
            if not shard.active_mask[rows].all():
                raise ShmError(f"shard {shard_id}: asked to verify a row it does not hold live")
            timer = Timer()
            with timer:
                probabilities, sampled = verify_rows(
                    verifier, shard.graphs, shard.graph_ids, plan, rows, root
                )
            verdicts.append((probabilities, sampled, timer.elapsed))
    return verdicts


def _worker_shard(descriptor: ShardDescriptor, delta_segment: str) -> ShardGraphs:
    """The worker's view of one shard at one delta.

    A delta segment this worker has not built the view against means the
    shard mutated, the catalog compacted, or this is the first touch: read
    that delta and keep everything of the shard's previous view that is
    still valid (:func:`materialize_shard`, which also adopts the graphs this
    worker kept when it was parked).  A new base generation unmaps the old
    one here and now, not at process exit.  A task that fails to materialize
    leaves the previous view in place.
    """
    shard_id = descriptor.shard_id
    previous = _WORKER_SHARDS.get(shard_id)
    if previous is not None and previous.delta_segment == delta_segment:
        return previous
    shard = materialize_shard(descriptor, delta_segment, previous=previous, held=_WORKER_PARKED)
    _WORKER_SHARDS[shard_id] = shard
    # every reference to the old view goes before the detach below: a live
    # view into an old base keeps it mapped
    stale = None if previous is None or previous.arena is shard.arena else previous.arena
    del previous
    if stale is not None and not stale.detach():
        gc.collect()  # a reference cycle still holds a view into the old base
        stale.detach()
    return shard


def _release_worker() -> int:
    """The task a closing planner runs in every slot it parks.

    The worker forgets every shard — view and descriptor — and closes
    every mapping it holds, its attaches and those it inherited at fork, so
    a parked worker maps no segment.  It keeps the graphs it had
    deserialized, keyed by pickle digest, for the next planner of its width
    to adopt, and drops the ones it kept at its previous release.  Returns
    how many graphs it keeps.
    """
    kept = {
        digest: graph
        for shard in _WORKER_SHARDS.values()
        for part in (shard.graphs.base, shard.graphs.delta)
        for digest, graph in part.by_digest().items()
    }
    _WORKER_PARKED.clear()
    _WORKER_PARKED.update(kept)
    _WORKER_SHARDS.clear()
    _WORKER_DESCRIPTORS.clear()
    if release_foreign_mappings():
        gc.collect()  # a reference cycle still holds a view into a base
        release_foreign_mappings()
    return len(kept)


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
    shard is attached and its graphs deserialized in exactly one worker.
    Shard graphs are published once per generation into a shared-memory
    :class:`ShardPlane` and each slot is sent the O(1) descriptors of its
    shards once per generation, with its first frame.

    Shards carry explicit stable ids plus a tombstone mask (see
    :class:`DatabaseShard`) and are validated for live-id disjointness.
    The determinism contract: answers and counters are byte-identical to a
    sequential run over the same live graphs under the same roots.

    A catalog mutation reaches the planner as :meth:`replace_shards` — new
    views of the shards it touched.  The pool, the published bases and the
    other shards' in-process planners stay; the touched shards' deltas are
    republished by the next fan-out, once however many mutations came first.
    A compaction reaches it as :meth:`rebase` — every shard over a new base
    generation — and the pool stays too.
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
        # base segments whose descriptor a slot has been sent
        self._shipped: set[str] = set()
        self._local_planners: dict[int, QueryPlanner] = {}
        self._plane: ShardPlane | None = None
        # ids of shards replaced since their delta was last published
        self._stale_deltas: set[int] = set()
        # Guards the shard views and the pool/plane lifecycle against
        # concurrent submission: the query service fans requests in from
        # worker threads while mutations swap shard views, so view
        # replacement, rebase, slot creation, delta republication, task
        # submission, resize, and close must serialize.  Waiting for the
        # workers' replies happens outside it: each slot orders its own
        # sends and receives.
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
        disjoint); that shard's in-process planner is dropped and its
        published delta marked stale.  Everything else is kept: the worker
        pool, the base arenas, the other shards and their planners.  Nothing
        is published here — the next fan-out republishes each stale delta
        once — so a burst of mutations costs one publication per touched
        shard, and a fan-out sees either all of ``shards`` or none of them.
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
            self._stale_deltas.update(by_id)

    def rebase(self, shards: list[DatabaseShard]) -> None:
        """Swap every shard for its view over a new base generation.

        This is how a compaction reaches a live planner: the shard ids must
        be the current ones (a compaction that changes the shard count takes
        the full swap, :meth:`close`).  With a pool running, the new
        generation's plane is published here, under the lock, and the old
        plane retires through the drain barrier — unlinked at once, or by the
        release of the last fan-out still running against it.  The pool
        stays: each slot is sent its shards' new descriptors with its next
        task, and each worker swaps its views over, keeping every graph it
        holds that the new generation still stores.  Without a pool nothing
        is published.
        """
        ordered = _validated(shards)
        with self._lock:
            if [s.spec.shard_id for s in ordered] != [s.spec.shard_id for s in self.shards]:
                raise ConfigurationError("a rebase keeps the planner's shard ids")
            self.shards = ordered
            self._local_planners.clear()
            self._stale_deltas.clear()
            self._shipped.clear()
            retired, self._plane = self._plane, None
            if retired is not None:
                retired.retire()
            if self._slots:
                self._plane = ShardPlane(self.shards)

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

        Filtering and sending happen under the lifecycle lock, so the rows a
        slot is sent are rows of the very views its delta segments publish.
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
        """Park the pool and retire every published segment.

        Order matters: each slot first runs one release task, queued behind
        every task already submitted to it — the barrier after which no
        worker holds a mapping or has a task left to open one — and only
        then does the plane unlink, bases and deltas alike.  The released
        workers keep only the graphs they had deserialized, keyed by pickle
        digest, and the slot list is parked for the next planner of the same
        width, which takes it instead of forking (this one included).  A
        slot that cannot release — its worker died, or the release raised —
        takes every slot down with it and nothing is parked; a release that
        raised still raises here.  A new query publishes a fresh generation
        under new names.  This is the full swap: the catalog's ``close()``
        and a compaction that changes the shard count come here; the
        dead-worker fallback (:class:`~repro.exceptions.BrokenSlotError`)
        takes it too, shutting the slots down instead of parking them.  A
        mutation does not (:meth:`replace_shards`), and neither does a
        compaction that keeps the shard count (:meth:`rebase`).

        Safe under concurrency (the drain-on-close contract): idempotent
        — a second ``close()``, including one racing the first from another
        thread, is a no-op — and a ``close()`` racing an in-flight
        :meth:`execute_plans` drains it rather than tearing it down: the
        release task runs after every submitted task, so the in-flight query
        still returns its (byte-identical) answers and no worker keeps a
        mapping of the segments that unlink.
        """
        self._close(park=True)

    def _close(self, park: bool) -> None:
        with self._lock:
            slots = self._take_slots()
            try:
                if park:
                    _park(slots)
                else:
                    _shutdown(slots)
            finally:
                if self._plane is not None:
                    self._plane.close()
                    self._plane = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _send(self, survivors: dict[tuple[int, int], FilteredPlan]):
        """Send every slot that owns a survivor one frame; None when nothing
        goes to a pool (width <= 1, or no survivor at all).

        Called under the lifecycle lock, atomically: the slots are acquired,
        stale deltas are republished, every shard's delta segment is marked
        in flight and the frames naming them are sent, shard ``j``'s rows to
        slot ``j mod W`` — so a concurrent ``close()`` either runs before this
        batch (which then takes a parked pool or forks one) or drains it (its
        release tasks queue behind the batch's), and a concurrent mutation or
        rebase lands wholly before or wholly after it.  A slot runs its tasks
        in the order they were sent, so the task that carries a descriptor
        precedes every task that names its base.  Each plan is pickled once,
        however many slots verify it.
        """
        workers = self.width
        if workers <= 1 or not survivors:
            return None
        with self._lock:
            slots = self._ensure_slots(workers)
            plane = self._ensure_plane()
            deltas = plane.acquire()
            submitted = []
            try:
                payloads: dict[int, bytes] = {}
                for slot_index, slot in enumerate(slots):
                    keys = [key for key in survivors if key[1] % workers == slot_index]
                    if not keys:
                        continue
                    tasks, work = {}, {}
                    for i, j in keys:
                        descriptor = plane.descriptors[j]
                        if descriptor.shard_id not in tasks:
                            base = descriptor.arena.segment
                            if base not in self._shipped:
                                self._shipped.add(base)
                                base = descriptor
                            tasks[descriptor.shard_id] = (descriptor.shard_id, base, deltas[j])
                        if i not in payloads:
                            part = survivors[i, j]
                            payloads[i] = pickle.dumps(
                                (part.ctx.plan, part.ctx.root), protocol=_PICKLE_PROTOCOL
                            )
                        work.setdefault(i, []).append((descriptor.shard_id, survivors[i, j].rows))
                    frame = [(payloads[i], pairs) for i, pairs in work.items()]
                    tasks = list(tasks.values())
                    submitted.append((slot, slot.submit(_verify_slot, tasks, frame), keys))
            except BaseException:
                self._release(plane, deltas, submitted)
                raise
            return plane, deltas, submitted

    def _receive(self, sent, survivors: dict[tuple[int, int], FilteredPlan]) -> dict:
        """Every survivor's ``(estimates, sampled, seconds)``, keyed like
        ``survivors``: the slots' replies, or — without a pool, or after a
        dead worker — :meth:`~repro.core.pipeline.FilteredPlan.verify` in this
        process.  Waiting for the replies happens outside the lock so
        concurrent submitters and a draining ``close()`` never deadlock on
        each other; once every reply has arrived the segments are released,
        which unlinks a delta that was replaced — or a plane that was retired
        — while this batch ran against it."""
        if sent is None:
            return {key: part.verify() for key, part in survivors.items()}
        plane, deltas, submitted = sent
        try:
            replies = _gather([(slot, reply) for slot, reply, _ in submitted])
        except BrokenSlotError:
            # a dead worker poisons its slot; answers are deterministic
            # either way, so finish this call in-process and let the next
            # call fork fresh slots (a broken slot list is never parked)
            self._close(park=False)
            return {key: part.verify() for key, part in survivors.items()}
        finally:
            self._release(plane, deltas, submitted)
        return {
            key: verdict
            for (_, _, keys), values in zip(submitted, replies)
            for key, verdict in zip(keys, values, strict=True)
        }

    def _release(self, plane: ShardPlane, deltas: tuple[str, ...], submitted) -> None:
        """Wait until every sent frame is answered — a failed shard must not
        release what its siblings still read — then release the deltas."""
        for slot, reply, _ in submitted:
            slot.wait(reply)
        with self._lock:
            plane.release(deltas)

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

    @property
    def shard_plane(self) -> ShardPlane | None:
        """The published plane, or None before the first pool (and after
        :meth:`close`).  Between a mutation and the next fan-out its delta
        of a touched shard is the one from before the mutation; right after
        a :meth:`rebase` under a live pool it is the new generation's."""
        with self._lock:
            return self._plane

    def _ensure_plane(self) -> ShardPlane:
        """The plane with every delta current: published whole if there is
        none, else with the deltas of the shards replaced since republished."""
        with self._lock:
            if self._plane is None:
                self._plane = ShardPlane(self.shards)
            else:
                for shard in self.shards:
                    if shard.spec.shard_id in self._stale_deltas:
                        self._plane.republish_delta(shard)
            self._stale_deltas.clear()
            return self._plane

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
        """Hand every slot over, to be parked or shut down.  Whatever
        worker serves this planner next, released or new, has been sent no
        descriptor, so none counts as shipped."""
        with self._lock:
            slots, self._slots = self._slots, []
            self._shipped.clear()
            return slots

    def _ensure_slots(self, workers: int) -> list[_Slot]:
        """The planner's slots: its own, else the parked list of this width,
        else ``workers`` newly forked ones."""
        with self._lock:
            if self._slots and len(self._slots) != workers:
                # resize: park only the workers — the published plane
                # survives, so the new ones attach via O(1) descriptors
                # instead of paying a fresh copy of every shard
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
        self._stop = weakref.finalize(
            self, _stop_worker, os.getpid(), self._conn, self._process
        )

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
# next one; keyed by pid like the shm registry, so a forked child never
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
        _gather([(slot, slot.submit(_release_worker)) for slot in slots])
    except BrokenSlotError:
        _shutdown(slots)
        return
    except BaseException:
        _shutdown(slots)
        raise
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
