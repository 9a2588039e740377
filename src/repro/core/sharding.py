"""Sharded multiprocess query execution over database partitions.

The T-PS pipeline is embarrassingly partitionable: every candidate graph is
filtered, pruned, and verified independently of every other graph, so a
database of N probabilistic graphs can be split into K disjoint *shards*,
each owning a PMI row slice, a structural-index row slice, and its own
:class:`~repro.core.planner.QueryPlanner`.  :class:`ShardedPlanner` fans a
list of finished plans out over a ``concurrent.futures`` process pool
(:meth:`ShardedPlanner.execute_plans`: one task per shard, each running
every plan) and merges the per-shard parts of each plan deterministically.

Determinism is the load-bearing property.  Two ingredients make a sharded
run reproduce the sequential planner *exactly*, regardless of K, worker
count, or OS scheduling:

1. **Per-graph RNG streams.**  Every stochastic sub-task derives its
   generator from ``(root, stage, global graph id)``
   (:func:`repro.utils.rng.derive_rng`), so the random draws a graph
   consumes never depend on which process handles it or how many other
   candidates ran first.  The per-query roots arrive with the plans — the
   catalog derives them once, in query order — so every shard agrees on
   each query's streams.
2. **Deterministic merge.**  A threshold plan's per-shard answers are
   concatenated and sorted by ``(-probability, graph_id)`` — the sequential
   planner's order (:func:`merge_query_results`); a top-k plan runs
   shard-partial and :func:`~repro.core.pipeline.merge_top_k_partials`
   replays the sequential loop over the union.  Per-shard statistics
   combine via :meth:`QueryStatistics.merge` (counters sum across the
   disjoint slices; wall-clock fields take the critical-path max).

Shards are built and owned by :class:`~repro.core.catalog.GraphCatalog`
(``ProbabilisticGraphDatabase.build_index()`` holds one): every
shard carries the stable external id of each storage row plus a tombstone
mask, and its indexes are the catalog's segmented base+delta views.

**The zero-copy shard plane.**  Shipping every :class:`DatabaseShard` into
the pool initializer would cost O(shard-bytes) per worker — resident memory
scaling with worker count and every pool (re)build paying a full copy of all
PMI and structural matrices.  The planner instead *publishes*
each shard exactly once into ``multiprocessing.shared_memory``
(:func:`publish_shard` packs the dense arrays plus per-graph pickle blobs
into one :class:`~repro.utils.shm.ShardArena` segment), and workers receive
only O(1) :class:`ShardDescriptor`\\ s — segment name, dtypes, shapes,
offsets — attaching read-only on first use (:func:`materialize_shard`).
Graphs deserialize lazily per candidate, so a worker's private memory holds
only the graphs its queries actually verified.  Lifecycle: the
:class:`ShardPlane` (one generation of published segments) is created
lazily with the first pool, survives pool resizes (a width change recycles
workers but re-ships only descriptors), and is retired by
:meth:`ShardedPlanner.close` — the pool shutdown inside it joins every
worker first, so no attachment outlives its segments.  A catalog mutation
or :meth:`~repro.core.catalog.GraphCatalog.compact` closes the cached
planner and the next query publishes a fresh generation: the hot-swap is
one atomic planner replacement, and answers stay byte-identical throughout
because the arrays workers map are bit-for-bit the parent's.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import TOP_K_MODE, TopKPartial, merge_top_k_partials
from repro.core.planner import QueryPlan, QueryPlanner
from repro.core.results import QueryResult, QueryStatistics
from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.shm import (
    ArenaDescriptor,
    AttachedArena,
    LazyGraphList,
    ShardArena,
    finalize_unlink,
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
    # set only on worker-side shards materialized from a shared-memory
    # descriptor: keeps the attached segment mapped for the shard's lifetime
    arena: AttachedArena | None = field(default=None, repr=False, compare=False)

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
    """The O(1) handle a worker needs to attach one published shard.

    Pickling this costs bytes proportional to the number of arena *fields*
    (a dozen name/dtype/shape/offset tuples), never to the shard's data —
    the regression tests assert exactly that.
    """

    shard_id: int
    arena: ArenaDescriptor


_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def publish_shard(shard: DatabaseShard) -> tuple[ShardArena, ShardDescriptor]:
    """Pack one shard into a shared-memory arena; return it with its handle.

    Dense arrays — the five PMI matrices and the structural count matrix
    (base and delta segments separately) and the external-id / tombstone
    columns — are copied bit-for-bit into the segment, so a worker's
    attached view reads the exact cells the parent computed and answers
    cannot drift.  Graphs go in as back-to-back per-graph pickles with an
    offset table (lazy deserialization on the worker); everything non-array
    (spec, features, configs, sparse chosen-set dicts) rides in one pickled
    ``meta`` blob.
    """
    from repro.core.catalog import SegmentedPmiView, SegmentedStructuralView

    pmi = shard.pmi
    structural = shard.structural_index
    if not isinstance(pmi, SegmentedPmiView) or not isinstance(
        structural, SegmentedStructuralView
    ):
        raise IndexError_(
            "a shard publishes segmented (base + delta) PMI and structural views"
        )
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "spec": shard.spec,
        "features": pmi.base.features,
        "feature_config": pmi.base.feature_config,
        "bound_config": pmi.base.bound_config,
        "embedding_limit": structural.base.embedding_limit,
    }
    for prefix, segment_pmi in (("base", pmi.base), ("delta", pmi.delta)):
        for key, array in segment_pmi.arena_arrays().items():
            arrays[f"{prefix}_pmi_{key}"] = array
        meta[f"{prefix}_pmi"] = segment_pmi.arena_meta()
    arrays["base_counts"] = np.asarray(structural.base.counts_matrix())
    arrays["delta_counts"] = np.asarray(structural.delta.counts_matrix())
    arrays["graph_ids"] = np.asarray(shard.graph_ids, dtype=np.int64)
    arrays["active_mask"] = np.asarray(shard.active_mask, dtype=bool)
    payloads = [
        pickle.dumps(graph, protocol=_PICKLE_PROTOCOL) for graph in shard.graphs
    ]
    offsets = np.zeros(len(payloads) + 1, dtype=np.int64)
    if payloads:
        np.cumsum(
            np.asarray([len(p) for p in payloads], dtype=np.int64), out=offsets[1:]
        )
    arrays["graph_offsets"] = offsets
    blobs = {
        "graphs": b"".join(payloads),
        "meta": pickle.dumps(meta, protocol=_PICKLE_PROTOCOL),
    }
    arena = ShardArena.pack(arrays, blobs)
    return arena, ShardDescriptor(shard_id=shard.spec.shard_id, arena=arena.descriptor)


def materialize_shard(
    descriptor: ShardDescriptor, arena: AttachedArena | None = None
) -> DatabaseShard:
    """Rebuild a queryable :class:`DatabaseShard` from a published arena.

    All matrices come back as read-only zero-copy views into the shared
    mapping (no bytes move), and the graph list is a
    :class:`~repro.utils.shm.LazyGraphList` that deserializes per graph on
    first access.  The returned shard keeps the arena attached for its own
    lifetime via its ``arena`` field.
    """
    from repro.core.catalog import SegmentedPmiView, SegmentedStructuralView

    if arena is None:
        arena = AttachedArena(descriptor.arena)
    meta = pickle.loads(arena.blob("meta"))
    graphs = LazyGraphList(
        arena.blob("graphs"), arena.array("graph_offsets"), owner=arena
    )
    features = meta["features"]
    feature_config = meta["feature_config"]
    bound_config = meta["bound_config"]
    embedding_limit = meta["embedding_limit"]

    def pmi_from(prefix: str, segment_meta: dict) -> ProbabilisticMatrixIndex:
        return ProbabilisticMatrixIndex.from_arrays(
            {
                key: arena.array(f"{prefix}{key}")
                for key in ProbabilisticMatrixIndex.ARENA_ARRAY_KEYS
            },
            features,
            feature_config,
            bound_config,
            segment_meta,
        )

    pmi = SegmentedPmiView(
        pmi_from("base_pmi_", meta["base_pmi"]),
        pmi_from("delta_pmi_", meta["delta_pmi"]),
    )
    structural = SegmentedStructuralView(
        StructuralFeatureIndex.from_counts(
            features,
            arena.array("base_counts"),
            embedding_limit=embedding_limit,
            copy=False,
        ),
        StructuralFeatureIndex.from_counts(
            features,
            arena.array("delta_counts"),
            embedding_limit=embedding_limit,
            copy=False,
        ),
    )
    return DatabaseShard(
        spec=meta["spec"],
        graphs=graphs,
        pmi=pmi,
        structural_index=structural,
        graph_ids=arena.array("graph_ids"),
        active_mask=arena.array("active_mask"),
        arena=arena,
    )


class ShardPlane:
    """One published generation of a planner's shards.

    Owns one shared-memory segment per shard.  Cleanup is belt and braces:
    :meth:`close` unlinks explicitly, a ``weakref.finalize`` fires on GC or
    interpreter exit if nobody called it, the :mod:`repro.utils.shm` atexit
    sweep catches anything else, and every path is idempotent and pid-
    guarded (a forked worker can never unlink its parent's segments).
    """

    def __init__(self, shards: list[DatabaseShard]) -> None:
        self._arenas: list[ShardArena] = []
        self.descriptors: list[ShardDescriptor] = []
        for shard in shards:
            arena, descriptor = publish_shard(shard)
            self._arenas.append(arena)
            self.descriptors.append(descriptor)
        self._finalizer = finalize_unlink(self, [a.name for a in self._arenas])

    def payload(self) -> tuple[ShardDescriptor, ...]:
        """What the pool initializer ships: descriptors only, O(1) bytes."""
        return tuple(self.descriptors)

    def payload_bytes(self) -> int:
        """Pickled size of the initializer payload (the bench's metric)."""
        return len(pickle.dumps(self.payload(), protocol=_PICKLE_PROTOCOL))

    def segment_names(self) -> list[str]:
        return [arena.name for arena in self._arenas]

    def shard_bytes(self) -> int:
        """Total bytes published across this generation's segments."""
        return sum(arena.descriptor.nbytes for arena in self._arenas)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink every segment (idempotent; also disarms the finalizer)."""
        self._finalizer()


# ----------------------------------------------------------------------
# query execution (runs in worker processes)
# ----------------------------------------------------------------------
# One pool worker caches the shards it has seen and lazily builds a
# QueryPlanner per shard on first use, so steady-state tasks ship only
# (shard_id, queries, thresholds, roots).  The initializer records
# descriptors and defers the attach itself to the first task that needs the
# shard — a worker that never serves a shard never maps it.
_WORKER_SHARDS: dict[int, DatabaseShard] = {}
_WORKER_PLANNERS: dict[int, QueryPlanner] = {}
_WORKER_DESCRIPTORS: dict[int, ShardDescriptor] = {}


def _init_shm_query_worker(descriptors: tuple[ShardDescriptor, ...]) -> None:
    """Shared-memory initializer: ships O(1) descriptors per shard."""
    _WORKER_SHARDS.clear()
    _WORKER_PLANNERS.clear()
    _WORKER_DESCRIPTORS.clear()
    for descriptor in descriptors:
        _WORKER_DESCRIPTORS[descriptor.shard_id] = descriptor


def _execute_on_shard(
    planner: QueryPlanner, plans: list[QueryPlan], roots: list[int]
) -> list[QueryResult | TopKPartial]:
    """One shard's part of every plan, for the pool worker and the
    in-process path alike.

    The plan's ``mode`` picks the execution: a top-k plan runs shard-partial
    (the shard cannot see the global floor; see ``core.pipeline``), a
    threshold plan runs whole.
    """
    return [
        planner.execute_top_k_partial(plan, rng=root)
        if plan.mode == TOP_K_MODE
        else planner.execute_plan(plan, rng=root)
        for plan, root in zip(plans, roots)
    ]


def _run_shard_workload(
    shard_id: int, plans: list[QueryPlan], roots: list[int]
) -> list[QueryResult | TopKPartial]:
    planner = _WORKER_PLANNERS.get(shard_id)
    if planner is None:
        shard = _WORKER_SHARDS.get(shard_id)
        if shard is None:
            # first touch of this shard in this worker: attach the shared
            # segment read-only (zero-copy; graphs stay lazy)
            shard = materialize_shard(_WORKER_DESCRIPTORS[shard_id])
            _WORKER_SHARDS[shard_id] = shard
        planner = shard.make_planner()
        _WORKER_PLANNERS[shard_id] = planner
    return _execute_on_shard(planner, plans, roots)


# ----------------------------------------------------------------------
# the sharded planner
# ----------------------------------------------------------------------
class ShardedPlanner:
    """Fans finished plans out over K database shards and merges the answers.

    The query surface is :meth:`plan`, :meth:`plan_top_k` and
    :meth:`execute_plans` — the three methods a
    :class:`~repro.core.catalog.GraphCatalog` calls on a
    :class:`QueryPlanner` too — and results are identical to the sequential
    planner's, independent of shard count and worker count.
    ``max_workers`` picks the process-pool width for query fan-out
    (``None`` → ``min(num_shards, cpu_count)``); at width <= 1 shards run
    in-process, which is also the zero-dependency fallback path.  Shards
    are published once into a shared-memory :class:`ShardPlane` and workers
    attach read-only via O(1) descriptors.

    Shards carry explicit stable ids plus a tombstone mask (see
    :class:`DatabaseShard`) and are validated for live-id disjointness.
    The determinism contract: answers and counters are byte-identical to a
    sequential run over the same live graphs under the same roots.
    """

    def __init__(
        self,
        shards: list[DatabaseShard],
        max_workers: int | None = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("a sharded planner needs at least one shard")
        _resolve_workers(max_workers, len(shards))  # rejects a negative width
        # shards own arbitrary stable-id sets: the merge invariants need the
        # live ids disjoint
        ordered = sorted(shards, key=lambda shard: shard.spec.shard_id)
        all_ids = np.concatenate([shard.live_global_ids() for shard in ordered])
        if len(np.unique(all_ids)) != len(all_ids):
            raise ConfigurationError("catalog shards must cover disjoint live graph ids")
        seen_ids: set[int] = set()
        for shard in ordered:
            # planner caches and pool tasks are keyed by shard_id
            if shard.spec.shard_id in seen_ids:
                raise ConfigurationError(f"duplicate shard id {shard.spec.shard_id!r}")
            seen_ids.add(shard.spec.shard_id)
        self.shards = ordered
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None
        self._executor_width = 0
        self._local_planners: dict[int, QueryPlanner] = {}
        self._plane: ShardPlane | None = None
        # Guards the pool/plane lifecycle against concurrent submission: the
        # query service fans requests in from worker threads, so executor
        # creation, task submission, resize, and close must serialize.
        # Reentrant because the BrokenProcessPool fallback inside _fan_out
        # calls close() from a frame that may re-enter locked helpers.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

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
        builds it (Lemma-1 relaxation and the one-join-per-feature
        containment pass) and every shard receives the finished plan instead
        of re-deriving the same one K times.
        """
        return self._planner_for(self.shards[0]).plan(
            query, probability_threshold, distance_threshold, config
        )

    def plan_top_k(
        self, query: LabeledGraph, k: int, distance_threshold: int, config=None
    ) -> QueryPlan:
        """Validate and plan one top-k query, once for every shard."""
        return self._planner_for(self.shards[0]).plan_top_k(query, k, distance_threshold, config)

    def execute_plans(self, plans: list[QueryPlan], roots: list[int]) -> list[QueryResult]:
        """Run finished plans over every shard and merge, one result per plan.

        One pool task per shard, each running the whole plan list with the
        same per-plan roots.  A threshold plan's parts merge by
        :func:`merge_query_results`.  A top-k plan runs *partial* on each
        shard — the floor stays at the shard-local lsim seed and the shard
        ships its examined candidate/bound table plus every verified
        estimate — and :func:`repro.core.pipeline.merge_top_k_partials`
        replays the sequential verification loop over the union.  Because
        every estimate derives from ``(root, VERIFY_STREAM, global graph
        id)``, answers (and, for threshold plans, counters) are
        byte-identical to :meth:`QueryPlanner.execute_plans` over the same
        live graphs with the same roots — for any shard count, worker count
        or OS scheduling.
        """
        if not plans:
            return []
        per_shard = self._fan_out(plans, roots)
        return [
            merge_top_k_partials(list(parts), plan.k)
            if plan.mode == TOP_K_MODE
            else merge_query_results(list(parts))
            for plan, parts in zip(plans, zip(*per_shard))
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and retire the published segments.

        Order matters: the pool shutdown joins every worker first — that is
        the re-attach barrier of the hot-swap protocol, after which no
        process can hold a mapping — and only then does the plane unlink.
        A new query re-creates both, publishing a fresh generation; this is
        exactly how a catalog mutation or ``compact()`` swaps generations
        (``GraphCatalog._invalidate`` closes the cached planner).

        Safe under concurrency (the drain-on-shutdown contract): idempotent
        — a second ``close()``, including one racing the first from another
        thread, is a no-op — and a ``close()`` racing an in-flight
        :meth:`execute_plans` drains it rather than tearing it down: the pool
        shutdown waits for every submitted task, so the in-flight query
        still returns its (byte-identical) answers and no worker ever
        outlives the segments it has attached.
        """
        with self._lock:
            self._shutdown_pool()
            if self._plane is not None:
                self._plane.close()
                self._plane = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fan_out(self, plans: list[QueryPlan], roots: list[int]) -> list[list]:
        """One pool task per shard, each running the whole plan list.

        Returns per-shard result lists, plan-index aligned.  Executor
        acquisition and task submission happen atomically under the
        lifecycle lock, so a concurrent ``close()`` either runs before this
        batch (which then builds a fresh pool) or drains it (pool shutdown
        waits for submitted tasks); waiting on the futures happens outside
        the lock so concurrent submitters and a draining ``close()`` never
        deadlock on each other.
        """
        workers = _resolve_workers(self.max_workers, len(self.shards))
        if workers <= 1:  # also the width of a single shard
            return self._execute_serial(plans, roots)
        try:
            with self._lock:
                pool = self._ensure_executor(workers)
                futures = [
                    pool.submit(_run_shard_workload, shard.spec.shard_id, plans, roots)
                    for shard in self.shards
                ]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            # a killed worker poisons the whole pool; answers are
            # deterministic either way, so finish this call in-process
            # and let the next call build a fresh pool
            self.close()
            return self._execute_serial(plans, roots)

    def _execute_serial(self, plans: list[QueryPlan], roots: list[int]) -> list[list]:
        """All shards in-process: the pool-less (and pool-failure) path."""
        return [
            _execute_on_shard(self._planner_for(shard), plans, roots)
            for shard in self.shards
        ]

    def _planner_for(self, shard: DatabaseShard) -> QueryPlanner:
        with self._lock:
            planner = self._local_planners.get(shard.spec.shard_id)
            if planner is None:
                planner = shard.make_planner()
                self._local_planners[shard.spec.shard_id] = planner
            return planner

    @property
    def shard_plane(self) -> ShardPlane | None:
        """The currently published generation, or None before the first pool
        (and after :meth:`close`)."""
        with self._lock:
            return self._plane

    def _ensure_plane(self) -> ShardPlane:
        with self._lock:
            if self._plane is None:
                self._plane = ShardPlane(self.shards)
            return self._plane

    def _shutdown_pool(self) -> None:
        """Join and drop the executor, leaving the plane published.

        ``shutdown()`` waits for every already-submitted task, so a close
        racing an in-flight query drains it instead of cancelling it.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
                self._executor_width = 0

    def _ensure_executor(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is not None and self._executor_width != workers:
                # resize: recycle only the pool — the published plane
                # survives, so the new workers re-attach via O(1)
                # descriptors instead of paying a fresh copy of every shard
                self._shutdown_pool()
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_shm_query_worker,
                    initargs=(self._ensure_plane().payload(),),
                )
                self._executor_width = workers
            return self._executor


def _resolve_workers(max_workers: int | None, num_tasks: int) -> int:
    """The effective pool width: never more than tasks, ``None`` → cpu count."""
    if max_workers is not None and max_workers < 0:
        raise ConfigurationError(f"max_workers must be >= 0, got {max_workers!r}")
    if num_tasks <= 1:
        return 1
    if max_workers is None:
        return min(num_tasks, os.cpu_count() or 1)
    return min(max_workers, num_tasks)
