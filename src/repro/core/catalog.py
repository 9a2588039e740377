"""The mutable graph-database layer: a catalog over one PMI and one
structural index.

The PMI and structural indexes of the paper are built over a static
database.  :class:`GraphCatalog` turns them into a *mutable* database
without ever recomputing a stored row: a new graph's rows are computed alone
and **appended** to both indexes, deletions become entries in a
**tombstone mask**, and :meth:`compact` periodically drops the dead rows.

Lifecycle of the storage::

    rows:       [ g0 g1 g2 g3 ... | appended by add_graph / update_graph ]
    tombstone:  [ F  F  T  F  ... | F  T ...                             ]
                        ^ remove_graph()  ^ update_graph() tombstones the
                                            old row, re-adds under the
                                            same external id

At query time each planner stage reads the two indexes directly — the
structural deficit test and the signature bound are one vectorized pass each,
the PMI stage reads zero-copy rows — and the tombstone mask is applied before
any stage runs, so dead rows cost nothing beyond their
(reclaimable-by-compaction) storage.

**Determinism contract.**  Every graph carries a *stable external id*,
assigned at :meth:`add_graph` time and preserved across
:meth:`update_graph` and :meth:`compact`.  All per-graph RNG streams (index
build, pruning, verification) and all orderings (answer sort, top-k visit
order, top-k tie-breaks) key on that id — never on a row position.  As a
consequence, threshold and top-k answers over a mutated catalog are
**byte-identical** — probabilities, ranks, and per-stage counters — to a
from-scratch build over the *equivalent database*: the same
``(external id → graph)`` mapping, the catalog's pinned feature set, and
the catalog's 64-bit build root, in **any** row order.  Mutation and
compaction are invisible in query output.

**The query path.**  The catalog is the front door of every query, and one
process runs each query end to end.  Its four query methods validate and
plan the whole batch on the catalog's one
:class:`~repro.core.planner.QueryPlanner` (``plan`` / ``plan_top_k``), then
turn ``rng`` / ``rngs`` into one 64-bit root per query, in query order, and
run each plan under its root (``execute_plan``).  What a plan derives from the
query alone comes from the catalog's one
:class:`~repro.core.planner.PlanCache`, which every planner of the catalog's
life shares: the features are pinned, so no mutation or compaction changes a
query shape (:meth:`open` and :meth:`from_index` start with an empty cache).

**Mutations and the read path.**  ``add_graph`` / ``remove_graph`` /
``update_graph`` and :meth:`compact` replace the cached planner with one
over the new store (both halves of an update in one step).  The swap needs
no lock: a planner is an immutable snapshot (:meth:`_Store.install` replaces
every column rather than growing one), and a query reads the reference
once, so it runs wholly on the state before a mutation or wholly on the
state after it.  :meth:`close` drops the planner; the next query builds one.

The feature set is **pinned** at catalog construction: appended rows are
indexed against the catalog's features, and ``compact()`` deliberately does not
re-mine (that would change pruning behaviour and break the rebuild-parity
contract).  Re-mining is a full :meth:`GraphCatalog.build` — by design an
explicit, offline decision.

**Durability.**  A catalog becomes *durable* by attaching a directory
(:meth:`persist`, or ``directory=`` on :meth:`build` / :meth:`from_index`):
the current state is snapshotted — the graphs (one npz of stacked
columns, :func:`~repro.graphs.io.save_graph_columns`), the
PMI (npz + JSON), and the structural count matrix, all written
atomically (the index's signature postings are derived: re-read off the graphs
by :meth:`open`, never written) — and from then on every ``add_graph`` /
``remove_graph`` / ``update_graph`` appends one checksummed, fsync'd record to the generation's
write-ahead log (:mod:`repro.core.wal`) *before* the in-memory mutation
applies.  :meth:`open` reverses the recipe: load the snapshot named by the
atomically swapped ``CURRENT`` pointer, truncate a torn final WAL record if
a crash left one, and replay the tail through the ordinary mutation paths —
the stable-external-id contract then makes the recovered catalog's answers
byte-identical to a from-scratch build over the surviving database.
``compact()`` rolls the generation: new snapshot, new empty log, one atomic
``CURRENT`` swap as the commit point, old generation retired afterwards
(unlink semantics keep already-open readers unharmed; a crash anywhere
before the swap leaves the previous generation fully authoritative).
"""

from __future__ import annotations

import contextlib
import gc
import json
import operator
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.planner import PlanCache, QueryPlanner
from repro.core.results import QueryResult
from repro.core.wal import WriteAheadLog, wal_filename
from repro.exceptions import CatalogError, ConfigurationError, GraphError, QueryError, WalError
from repro.graphs.io import (
    load_database,
    load_graph_columns,
    probabilistic_graph_from_dict,
    probabilistic_graph_to_dict,
    save_graph_columns,
)
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.pmi.bounds import BoundConfig
from repro.pmi.features import FeatureMiner, FeatureSelectionConfig, feature_fingerprint
from repro.pmi.index import ProbabilisticMatrixIndex
from repro.structural.feature_index import SignaturePostings, StructuralFeatureIndex
from repro.utils.atomic_io import (
    atomic_write_text,
    atomic_writer,
    discard_stale_tmp_files,
    fsync_directory,
)
from repro.utils.rng import RandomLike, rng_root

__all__ = ["GraphCatalog"]

SNAPSHOT_FORMAT_VERSION = 3
# a format-2 snapshot differs only in holding its graphs as one JSON database
_READABLE_SNAPSHOT_VERSIONS = (2, 3)
CURRENT_FILENAME = "CURRENT"
_SNAPSHOT_META_FILENAME = "catalog.json"
_GRAPHS_FILENAME = "graphs.npz"
_JSON_GRAPHS_FILENAME = "graphs.json"
_COUNTS_FILENAME = "structural_counts.npy"


def _generation_dirname(generation: int) -> str:
    return f"gen_{generation:08d}"


@dataclass
class _Durability:
    """A durable catalog's on-disk attachment: directory, generation, log."""

    directory: Path
    generation: int
    wal: WriteAheadLog


def _external_id(value) -> int:
    """The one check on an external id handed to the catalog: a non-negative
    int, or anything ``operator.index`` takes — never a bool, which it would
    read as 0 or 1."""
    if isinstance(value, bool):
        raise CatalogError(f"external_id must be an integer, got {value!r}")
    try:
        external_id = operator.index(value)
    except TypeError:
        raise CatalogError(f"external_id must be an integer, got {value!r}") from None
    if external_id < 0:
        raise CatalogError(f"external_id must be >= 0, got {value!r}")
    return external_id


def _check_pool_arguments(num_shards, max_workers) -> None:
    """Refuse what the retired worker pool refused: ``num_shards`` >= 1 and
    ``max_workers`` >= 0 or None, each a plain int (anything
    ``operator.index`` takes, never a bool).  Nothing else reads them (see
    :meth:`GraphCatalog.build`)."""
    for name, value, minimum in (("num_shards", num_shards, 1), ("max_workers", max_workers, 0)):
        if value is None and name == "max_workers":
            continue
        if isinstance(value, bool):  # operator.index(True) is 1
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        try:
            number = operator.index(value)
        except TypeError:
            raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if number < minimum:
            raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")


def _query_roots(
    rng: RandomLike, rngs: list[RandomLike] | None, num_queries: int
) -> list[int]:
    """The 64-bit root of every query of a batch, in query order — the one
    place ``rng`` / ``rngs`` become roots (semantics: :meth:`GraphCatalog.query_many`).
    It runs after planning, so a batch that fails validation never draws
    from a shared generator.
    """
    if rngs is None:
        return [rng_root(rng) for _ in range(num_queries)]
    if rng is not None:
        raise QueryError("pass either rng or rngs, not both")
    rngs = list(rngs)
    if len(rngs) != num_queries:
        raise QueryError(f"rngs has {len(rngs)} entries for {num_queries} queries")
    return [rng_root(query_rng) for query_rng in rngs]


def _signatures_of(graphs) -> SignaturePostings:
    """The structural index's derived segment for ``graphs`` as its rows: read
    off the graphs wherever a store takes rows in (open, compact), because it
    is never written to a snapshot or a WAL record."""
    return SignaturePostings.build(graph.skeleton for graph in graphs)


# ----------------------------------------------------------------------
# the storage
# ----------------------------------------------------------------------
class _Store:
    """Every storage row, live or tombstoned, in storage order: the graphs,
    their external ids, one PMI, one structural index and the tombstone mask."""

    def __init__(
        self,
        graphs: list[ProbabilisticGraph],
        external_ids,
        pmi: ProbabilisticMatrixIndex,
        structural: StructuralFeatureIndex,
    ) -> None:
        self.graphs = list(graphs)
        self.external_ids = np.asarray(external_ids, dtype=np.int64)
        self.tombstone = np.zeros(len(self.graphs), dtype=bool)
        self.pmi = pmi
        self.structural = structural

    def live_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.tombstone)

    def install(
        self,
        graph: ProbabilisticGraph,
        external_id: int,
        pmi_row: ProbabilisticMatrixIndex,
        structural_row: StructuralFeatureIndex,
    ) -> int:
        """Append one graph's already computed one-row indexes; returns its
        storage row.  Pure row movement over the catalog's own features:
        nothing here can refuse the graph, so it is safe to run after the
        mutation has been logged."""
        # every column is replaced, never grown in place: a QueryPlanner
        # handed out by make_planner() stays the snapshot it was
        self.pmi = ProbabilisticMatrixIndex.concat_rows([self.pmi, pmi_row])
        self.structural = StructuralFeatureIndex.concat_rows([self.structural, structural_row])
        self.graphs = [*self.graphs, graph]
        self.external_ids = np.append(self.external_ids, np.int64(external_id))
        self.tombstone = np.append(self.tombstone, False)
        return len(self.graphs) - 1

    def make_planner(self, plan_cache: PlanCache) -> QueryPlanner:
        """A :class:`QueryPlanner` over this store's rows, tombstoned ones
        masked out, whose answers and RNG salts use external ids, planning
        through the catalog's ``plan_cache``."""
        return QueryPlanner(
            self.graphs,
            self.pmi,
            self.structural,
            graph_ids=self.external_ids,
            active_mask=~self.tombstone,
            plan_cache=plan_cache,
        )


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------
class GraphCatalog:
    """A mutable, queryable probabilistic graph database.

    Construct with :meth:`build` (index from scratch), :meth:`from_index`
    (adopt an already-built or loaded whole-database index) or :meth:`open`
    (recover a durable one).  ``query`` / ``query_many`` / ``query_top_k`` /
    ``query_top_k_many`` are the query path; see the module docstring for it
    and for the mutation/compaction lifecycle.
    """

    def __init__(
        self,
        store: _Store,
        feature_config: FeatureSelectionConfig,
        bound_config: BoundConfig,
        root: int,
    ) -> None:
        self._store = store
        self._feature_config = feature_config
        self._bound_config = bound_config
        self._root = root
        self._durability: _Durability | None = None
        self._wal_suppressed = False
        self._planner_cache: QueryPlanner | None = None
        # query shapes depend on the query and the pinned features only, so
        # every planner of this catalog's life plans through this one cache
        self._plan_cache = PlanCache()
        self._mutation_generation = 0
        # external id -> storage row; covers live rows only
        self._live: dict[int, int] = {}
        for position in store.live_positions():
            external_id = int(store.external_ids[position])
            if external_id in self._live:
                raise CatalogError(f"external id {external_id} is live in two rows")
            self._live[external_id] = int(position)
        self._next_external_id = max(self._live, default=-1) + 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graphs: list[ProbabilisticGraph],
        feature_config: FeatureSelectionConfig | None = None,
        bound_config: BoundConfig | None = None,
        rng: RandomLike = None,
        num_shards: int = 1,
        max_workers: int | None = None,
        directory: str | Path | None = None,
    ) -> "GraphCatalog":
        """Mine features once, build the indexes, seed external ids 0..N-1.

        With the same ``rng`` (an int seed, for reproducibility) this
        build is cell-for-cell identical to a dense
        ``ProbabilisticMatrixIndex.build(graphs, rng=...)`` plus a
        ``StructuralFeatureIndex`` counted over its features — the catalog
        only *adds* the mutation layer on top.  Passing a ``directory``
        makes the catalog durable from birth (see :meth:`persist`).

        ``num_shards`` and ``max_workers`` sized a worker pool that no longer
        exists: every query runs in this process.  They are still checked
        (plain ints, ``num_shards`` >= 1, ``max_workers`` >= 0 or None, else
        :class:`~repro.exceptions.ConfigurationError`) and otherwise ignored,
        because the end-to-end benchmark still passes them.
        """
        if not graphs:
            raise CatalogError("the catalog needs at least one probabilistic graph")
        _check_pool_arguments(num_shards, max_workers)  # before the costly part
        feature_cfg = feature_config or FeatureSelectionConfig()
        bound_cfg = bound_config or BoundConfig()
        root = rng_root(rng)
        features = FeatureMiner(feature_cfg).mine(graphs)
        external_ids = np.arange(len(graphs), dtype=np.int64)
        pmi = ProbabilisticMatrixIndex(
            feature_config=feature_cfg, bound_config=bound_cfg
        ).build(graphs, features=features, rng=root, graph_ids=external_ids)
        structural = StructuralFeatureIndex(
            embedding_limit=feature_cfg.embedding_limit
        ).build([graph.skeleton for graph in graphs], features)
        store = _Store(graphs, external_ids, pmi, structural)
        catalog = cls(store, feature_cfg, bound_cfg, root)
        if directory is not None:
            catalog.persist(directory)
        return catalog

    @classmethod
    def from_index(
        cls,
        graphs: list[ProbabilisticGraph],
        pmi: ProbabilisticMatrixIndex,
        structural_index: StructuralFeatureIndex,
        num_shards: int = 1,
        max_workers: int | None = None,
        directory: str | Path | None = None,
    ) -> "GraphCatalog":
        """Adopt an already-built (or loaded) whole-database index pair.

        External ids are the index's row positions ``0..N-1`` — exactly the
        stable ids the static build salted its RNG streams with, so an adopted
        index answers identically to :meth:`build` under the same root.  The
        PMI must carry its ``build_root`` (recorded by every build since the
        catalog layer; older persisted payloads lack it) because appended
        rows must derive their streams from the same root.  Both indexes must
        cover exactly ``graphs`` and the structural index must count the
        PMI's features under the PMI's ``feature_config.embedding_limit``: a
        mutation's rows are built against them and appended to both after the
        mutation is logged, when nothing may refuse them, and ``compact()``
        recounts with that limit.
        ``num_shards`` and ``max_workers`` are checked and ignored, as by
        :meth:`build`.
        """
        _check_pool_arguments(num_shards, max_workers)
        if pmi.num_graphs != len(graphs):
            raise CatalogError(f"the PMI covers {pmi.num_graphs} graphs, got {len(graphs)}")
        if structural_index.num_graphs != len(graphs):
            raise CatalogError(
                f"the structural index covers {structural_index.num_graphs} graphs, "
                f"got {len(graphs)}"
            )
        if feature_fingerprint(structural_index.features) != feature_fingerprint(pmi.features):
            raise CatalogError(
                "the structural index counts other features than the PMI indexes"
            )
        if structural_index.embedding_limit != pmi.feature_config.embedding_limit:
            raise CatalogError(
                f"the structural index counts up to {structural_index.embedding_limit} "
                "embeddings per feature, the PMI's feature config "
                f"{pmi.feature_config.embedding_limit}"
            )
        if pmi.build_root is None:
            raise CatalogError(
                "the PMI has no recorded build root (written by builds "
                "since the catalog layer); rebuild it or use GraphCatalog.build()"
            )
        rows = range(len(graphs))
        store = _Store(graphs, rows, pmi.subset(rows), structural_index.subset(rows))
        catalog = cls(store, pmi.feature_config, pmi.bound_config, pmi.build_root)
        if directory is not None:
            catalog.persist(directory)
        return catalog

    # ------------------------------------------------------------------
    # durability (snapshot generations + write-ahead log)
    # ------------------------------------------------------------------
    def persist(self, directory: str | Path) -> "GraphCatalog":
        """Attach ``directory`` and make every future mutation durable.

        Compacts first (snapshots store compacted indexes: tombstones
        reclaimed, rows in external-id order — by the stable-id contract this
        moves no answer), writes snapshot generation 0, starts ``wal_00000000.log``,
        and commits by atomically writing the ``CURRENT`` pointer.  From then
        on each mutation is WAL-logged and fsync'd *before* it applies in
        memory, so :meth:`open` can always recover the exact mutation history
        that completed.  Refuses a directory that already holds a durable
        catalog (use :meth:`open`) and a catalog that is already attached.
        """
        if self._durability is not None:
            raise CatalogError(
                "this catalog is already durable at "
                f"{str(self._durability.directory)!r}"
            )
        directory = Path(directory)
        if (directory / CURRENT_FILENAME).exists():
            raise CatalogError(
                f"{str(directory)!r} already holds a durable catalog; "
                "recover it with GraphCatalog.open()"
            )
        self.compact()
        directory.mkdir(parents=True, exist_ok=True)
        self._write_snapshot(directory, 0)
        wal = WriteAheadLog.create(directory / wal_filename(0), 0)
        self._write_current(directory, 0)
        self._durability = _Durability(directory=directory, generation=0, wal=wal)
        return self

    @classmethod
    def open(
        cls, directory: str | Path, max_workers: int | None = None
    ) -> "GraphCatalog":
        """Recover a durable catalog: snapshot + WAL-tail replay.

        Loads the generation named by ``CURRENT``, opens its write-ahead log
        (truncating a torn final record — the only damage a crash mid-append
        can cause), and replays the surviving mutation records through the
        ordinary ``add_graph``/``remove_graph``/``update_graph`` paths.
        Because every RNG stream and ordering keys on stable external ids,
        the recovered catalog's threshold, exact, and top-k answers are
        byte-identical to a from-scratch build over the surviving
        ``(id → graph)`` database — the crash-recovery invariant the test
        suite kills processes to check.  Debris of uncommitted generations
        and interrupted atomic writes is swept out afterwards.  A replayed
        record goes through the same id check as a live call: the catalog
        logs plain ints only, so a record whose ``external_id`` is ``true``
        (or any non-integer) was not written by it, and ``open`` refuses it
        with :class:`CatalogError` rather than read it as id 1.
        ``max_workers`` is checked and ignored, as by :meth:`build`.
        """
        _check_pool_arguments(1, max_workers)
        directory = Path(directory)
        current_path = directory / CURRENT_FILENAME
        if not current_path.exists():
            raise CatalogError(
                f"no durable catalog at {str(directory)!r} (missing CURRENT); "
                "create one with persist() / build(directory=...)"
            )
        try:
            current = json.loads(current_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            raise CatalogError(
                f"corrupt CURRENT pointer at {str(current_path)!r}: {error}"
            ) from error
        generation = current.get("generation") if isinstance(current, dict) else None
        # a plain int: never a bool, which would read as generation 0 or 1
        if (
            type(generation) is not int
            or generation < 0
            or current.get("type") != "graph_catalog_current"
        ):
            raise CatalogError(
                f"malformed CURRENT pointer at {str(current_path)!r}: {current!r}"
            )
        # everything the bulk load allocates stays live: the cyclic collector
        # would rescan it a few hundred times for nothing (~75 of a ~250 ms open)
        collecting = gc.isenabled()
        gc.disable()
        try:
            catalog = cls._load_snapshot(directory, generation)
            wal, records = WriteAheadLog.open(
                directory / wal_filename(generation), generation=generation
            )
            catalog._durability = _Durability(
                directory=directory, generation=generation, wal=wal
            )
            with catalog._wal_suppression():
                for record in records:
                    catalog._apply_record(record)
        finally:
            if collecting:
                gc.enable()
        catalog._discard_retired(directory, generation)
        return catalog

    @property
    def generation(self) -> int | None:
        """The committed snapshot generation (bumped by :meth:`compact`);
        None for a catalog with no directory attached."""
        return None if self._durability is None else self._durability.generation

    @property
    def wal_records(self) -> int:
        """Mutation records in the active log (0 right after a compact)."""
        if self._durability is None:
            return 0
        return max(self._durability.wal.next_lsn - 1, 0)

    # -- snapshot writing ----------------------------------------------
    def _write_snapshot(self, directory: Path, generation: int) -> None:
        """Write this (compacted) catalog as snapshot ``generation``.

        Every file goes through the atomic tmp+fsync+rename helpers; the
        generation directory itself only becomes authoritative when the
        ``CURRENT`` pointer names it, so debris of a crash mid-snapshot is
        invisible to :meth:`open` (and removed by the next attempt: a
        generation is only ever written before its commit).
        """
        gen_dir = directory / _generation_dirname(generation)
        if gen_dir.exists():
            shutil.rmtree(gen_dir)
        gen_dir.mkdir(parents=True, exist_ok=True)
        store = self._store
        save_graph_columns(store.graphs, gen_dir / _GRAPHS_FILENAME)
        store.pmi.save(gen_dir)
        with atomic_writer(gen_dir / _COUNTS_FILENAME) as handle:
            np.save(handle, np.asarray(store.structural.counts_matrix(), dtype=np.int32))
        meta = {
            "type": "graph_catalog_snapshot",
            "version": SNAPSHOT_FORMAT_VERSION,
            "build_root": int(self._root),
            "next_external_id": int(self._next_external_id),
            "external_ids": [int(eid) for eid in store.external_ids],
        }
        atomic_write_text(gen_dir / _SNAPSHOT_META_FILENAME, json.dumps(meta))
        fsync_directory(gen_dir)
        fsync_directory(directory)

    @staticmethod
    def _write_current(directory: Path, generation: int) -> None:
        """Atomically point ``CURRENT`` at ``generation`` — the commit."""
        atomic_write_text(
            directory / CURRENT_FILENAME,
            json.dumps(
                {
                    "type": "graph_catalog_current",
                    "version": SNAPSHOT_FORMAT_VERSION,
                    "generation": int(generation),
                }
            ),
        )

    @classmethod
    def _load_snapshot(cls, directory: Path, generation: int) -> "GraphCatalog":
        """Reconstruct the catalog a snapshot generation stores."""
        gen_dir = directory / _generation_dirname(generation)
        meta_path = gen_dir / _SNAPSHOT_META_FILENAME
        if not meta_path.exists():
            raise CatalogError(
                f"snapshot generation {generation} at {str(gen_dir)!r} is "
                "missing its catalog.json; the durable directory is damaged"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            raise CatalogError(
                f"corrupt snapshot metadata at {str(meta_path)!r}: {error}"
            ) from error
        if not isinstance(meta, dict) or meta.get("type") != "graph_catalog_snapshot":
            kind = meta.get("type") if isinstance(meta, dict) else type(meta).__name__
            raise CatalogError(f"not a catalog snapshot payload: {kind!r}")
        version = meta.get("version")
        if type(version) is not int or version not in _READABLE_SNAPSHOT_VERSIONS:
            raise CatalogError(
                f"unsupported catalog snapshot version {version!r}; "
                f"this build reads versions {_READABLE_SNAPSHOT_VERSIONS}"
            )
        try:
            # ids get the live calls' check, as WAL replay's do
            external_ids = [_external_id(eid) for eid in meta["external_ids"]]
            next_external_id = _external_id(meta["next_external_id"])
            build_root = int(meta["build_root"])
        except (KeyError, TypeError, ValueError) as error:
            raise CatalogError(
                f"malformed snapshot metadata at {str(meta_path)!r}: {error!r}"
            ) from error
        if version == 2:
            graphs = load_database(gen_dir / _JSON_GRAPHS_FILENAME)
        else:
            graphs = load_graph_columns(gen_dir / _GRAPHS_FILENAME)
        pmi = ProbabilisticMatrixIndex.load(gen_dir)
        try:
            counts = np.load(gen_dir / _COUNTS_FILENAME)
        except (OSError, ValueError, EOFError) as error:
            raise CatalogError(
                f"corrupt structural counts at {str(gen_dir / _COUNTS_FILENAME)!r}: {error}"
            ) from error
        if (
            len(graphs) != len(external_ids)
            or pmi.num_graphs != len(graphs)
            or counts.shape[0] != len(graphs)
        ):
            raise CatalogError(
                f"snapshot at {str(gen_dir)!r} is inconsistent: graphs, external "
                "ids, PMI rows and count rows disagree"
            )
        structural = StructuralFeatureIndex.from_counts(
            pmi.features,
            counts,
            _signatures_of(graphs),
            embedding_limit=pmi.feature_config.embedding_limit,
        )
        catalog = cls(
            _Store(graphs, external_ids, pmi, structural),
            pmi.feature_config,
            pmi.bound_config,
            build_root,
        )
        catalog._next_external_id = max(catalog._next_external_id, next_external_id)
        return catalog

    # -- logging and replay --------------------------------------------
    def _wal_active(self) -> bool:
        return self._durability is not None and not self._wal_suppressed

    @contextlib.contextmanager
    def _wal_suppression(self):
        """Context that applies mutations without logging them (replay)."""
        previous = self._wal_suppressed
        self._wal_suppressed = True
        try:
            yield
        finally:
            self._wal_suppressed = previous

    def _apply_record(self, record: dict) -> None:
        """Re-apply one WAL mutation record through the normal paths.

        A checksummed record the catalog cannot have written — an unknown
        ``op``, a missing field — raises :class:`WalError` naming its lsn;
        a malformed graph payload raises :class:`GraphError`."""
        op = record.get("op")
        if op not in ("add", "remove", "update"):
            raise WalError(f"unknown WAL operation {op!r} (lsn {record.get('lsn')})")
        for name in ("external_id",) if op == "remove" else ("external_id", "graph"):
            if name not in record:
                raise WalError(
                    f"WAL {op!r} record (lsn {record.get('lsn')}) has no {name!r} field"
                )
        if op == "remove":
            self.remove_graph(record["external_id"])
            return
        try:
            graph = probabilistic_graph_from_dict(record["graph"])
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise GraphError(
                f"malformed graph in WAL {op!r} record (lsn {record.get('lsn')}): {error!r}"
            ) from error
        if op == "add":
            self.add_graph(graph, external_id=record["external_id"])
        else:
            self.update_graph(record["external_id"], graph)

    def _roll_generation(self) -> None:
        """Snapshot the compacted state as a new generation and retire the old.

        Commit order is the whole story: (1) write snapshot ``g+1`` (atomic
        files, uncommitted), (2) create ``wal_{g+1}`` with its header,
        (3) atomically swap ``CURRENT`` — the single commit point — and only
        then (4) delete the old snapshot and log.  A crash anywhere before
        (3) leaves generation ``g`` with its full WAL authoritative (replay
        reproduces the pre-compact state, which answers identically); a crash
        after (3) leaves retired files for :meth:`open` to sweep.  Readers
        holding the old generation open keep working through (4) — POSIX
        unlink removes names, not open files — so compaction never blocks
        reads.
        """
        durability = self._durability
        new_generation = durability.generation + 1
        self._write_snapshot(durability.directory, new_generation)
        new_wal = WriteAheadLog.create(
            durability.directory / wal_filename(new_generation), new_generation
        )
        self._write_current(durability.directory, new_generation)
        old_generation = durability.generation
        durability.wal.close()
        durability.wal = new_wal
        durability.generation = new_generation
        self._discard_retired(durability.directory, new_generation)
        assert old_generation != new_generation

    @staticmethod
    def _discard_retired(directory: Path, keep_generation: int) -> None:
        """Best-effort sweep of retired/uncommitted generations, logs of other
        generations, and ``*.tmp`` debris of interrupted atomic writes."""
        discard_stale_tmp_files(directory)
        keep_dir = _generation_dirname(keep_generation)
        keep_wal = wal_filename(keep_generation)
        for path in sorted(directory.iterdir()):
            name = path.name
            if path.is_dir() and name.startswith("gen_") and name != keep_dir:
                shutil.rmtree(path, ignore_errors=True)
            elif (
                path.is_file()
                and name.startswith("wal_")
                and name.endswith(".log")
                and name != keep_wal
            ):
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def features(self):
        """The pinned feature set every row is indexed against."""
        return self._store.pmi.features

    @property
    def build_root(self) -> int:
        """The 64-bit root every row's RNG streams derive from."""
        return self._root

    @property
    def num_live(self) -> int:
        return len(self._live)

    @property
    def mutation_generation(self) -> int:
        """A monotonic token naming the current live ``(id → graph)`` state.

        Bumped by every ``add_graph`` / ``remove_graph`` / ``update_graph``
        and by ``compact()``, never by queries or :meth:`close`.  Answers
        are pure functions of ``(mutation_generation, query, params, rng
        root)``, which is exactly what makes them cacheable: the query
        service keys its answer cache on this token, so a stale-generation
        answer can never be served after a mutation or a compaction.
        Compaction bumps it too even though answers are unchanged — a
        deliberately conservative choice (a spare cache miss is free; a
        stale hit would be a contract violation).
        """
        return self._mutation_generation

    @property
    def tombstone_count(self) -> int:
        """Dead rows awaiting reclamation by :meth:`compact`."""
        return int(np.count_nonzero(self._store.tombstone))

    def active_shm_segments(self) -> list[str]:
        """Always ``[]``: the catalog publishes no shared-memory segment.
        Kept because the end-to-end benchmark's pool probe
        (``benchmarks/e2e/layers.py``) still sums the sizes of what it lists."""
        return []

    def live_items(self) -> list[tuple[int, ProbabilisticGraph]]:
        """``(external_id, graph)`` pairs, ascending by id.

        This *is* the equivalent database of the parity contract: a
        from-scratch build over these pairs (same features, same root, ids
        as ``graph_ids``) answers every query byte-identically to the
        catalog.
        """
        graphs = self._store.graphs
        return [(external_id, graphs[row]) for external_id, row in sorted(self._live.items())]

    def __len__(self) -> int:
        return self.num_live

    def __repr__(self) -> str:
        return (
            f"GraphCatalog(live={self.num_live}, rows={len(self._store.graphs)}, "
            f"tombstones={self.tombstone_count})"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_graph(
        self, graph: ProbabilisticGraph, external_id: int | None = None
    ) -> int:
        """Index one new graph without touching a stored row; returns its id.

        The graph's PMI row is computed with
        ``derive_rng(build_root, BUILD_STREAM, external_id)`` — the stream a
        from-scratch build would use for that id — and appended, with its
        structural row, as storage row ``len(graphs)``.  ``external_id``
        defaults to the next unused id; passing an id that is currently live
        raises :class:`CatalogError` (use :meth:`update_graph`), while
        re-using the id of a *removed* graph is allowed and gives the new
        graph that identity.  The rows are computed before the mutation is
        logged and installed after, so a graph the index refuses (a typed
        :class:`ConfigurationError`) leaves neither a WAL record nor any
        in-memory change behind.
        """
        if external_id is None:
            external_id = self._next_external_id
        else:
            external_id = _external_id(external_id)
        if external_id in self._live:
            raise CatalogError(
                f"external id {external_id} is live; remove it first or use "
                "update_graph()"
            )
        rows = self._index_rows(graph, external_id)
        self._log_graph_record("add", external_id, graph)
        self._install(graph, external_id, rows)
        self._refresh_planner()
        return external_id

    def _index_rows(
        self, graph: ProbabilisticGraph, external_id: int
    ) -> tuple[ProbabilisticMatrixIndex, StructuralFeatureIndex]:
        """The graph's PMI and structural rows as one-row indexes.

        Everything that can refuse a graph happens here, *before* its record
        reaches the write-ahead log: a record the index cannot apply would
        otherwise fail every later :meth:`open` at the same place.  The rows
        depend only on (build root, external id, graph), not on the storage
        row they will take.
        """
        pmi_row = ProbabilisticMatrixIndex(
            feature_config=self._feature_config, bound_config=self._bound_config
        ).build([graph], features=self.features, rng=self._root, graph_ids=[external_id])
        structural_row = StructuralFeatureIndex(
            embedding_limit=self._feature_config.embedding_limit
        ).build([graph.skeleton], self.features)
        return pmi_row, structural_row

    def _log_graph_record(
        self, op: str, external_id: int, graph: ProbabilisticGraph
    ) -> None:
        if self._wal_active():
            self._durability.wal.append(
                {
                    "op": op,
                    "external_id": external_id,
                    "graph": probabilistic_graph_to_dict(graph),
                }
            )

    def _install(self, graph: ProbabilisticGraph, external_id: int, rows) -> None:
        """Append computed rows to the store."""
        self._live[external_id] = self._store.install(graph, external_id, *rows)
        self._next_external_id = max(self._next_external_id, external_id + 1)
        self._mutation_generation += 1

    def remove_graph(self, external_id: int) -> None:
        """Tombstone the live row of ``external_id`` (storage reclaimed by
        :meth:`compact`); raises :class:`CatalogError` if the id is not live."""
        external_id = _external_id(external_id)
        self._locate(external_id)  # raises if not live
        if self._wal_active():
            self._durability.wal.append(
                {"op": "remove", "external_id": external_id}
            )
        self._tombstone(external_id)
        self._refresh_planner()

    def _tombstone(self, external_id: int) -> None:
        """Switch the live row of ``external_id`` off."""
        self._store.tombstone[self._live.pop(external_id)] = True
        self._mutation_generation += 1

    def update_graph(self, external_id: int, graph: ProbabilisticGraph) -> None:
        """Replace the graph stored under a live ``external_id``.

        Implemented as tombstone + re-add under the same id: the old row
        dies, the new row is appended, and every
        RNG stream keyed by the id re-derives over the new content — so the
        update answers exactly as if the graph had always been this version.
        The planner sees both halves at once: no query runs over a state in
        which the id is missing.
        """
        external_id = _external_id(external_id)
        self._locate(external_id)  # raises if not live
        rows = self._index_rows(graph, external_id)
        # one atomic record: a torn tail can drop the whole update but never
        # leave the remove applied without the add
        self._log_graph_record("update", external_id, graph)
        self._tombstone(external_id)
        self._install(graph, external_id, rows)
        self._refresh_planner()

    def compact(self) -> "GraphCatalog":
        """Reclaim tombstoned rows: the store keeps only its live rows.

        Live rows, ordered by external id, become the new indexes, with a
        clear tombstone mask.  No SIP bound or embedding count is
        recomputed: compaction is pure row movement (the signature postings
        are re-read off the graphs, as at :meth:`open`), so by the
        stable-id contract query answers are unchanged.  With every graph
        removed, the catalog compacts to an empty store and keeps answering
        (with zero answers) until graphs are added again.
        """
        store = self._store
        live = store.live_positions()
        positions = live[np.argsort(store.external_ids[live], kind="stable")]
        graphs = [store.graphs[position] for position in positions]
        ids = store.external_ids[positions]
        self._store = _Store(
            graphs,
            ids,
            store.pmi.subset(positions.tolist()),
            StructuralFeatureIndex.from_counts(
                self.features,
                store.structural.counts_matrix()[positions],
                _signatures_of(graphs),
                embedding_limit=self._feature_config.embedding_limit,
            ),
        )
        self._mutation_generation += 1
        self._live = {int(external_id): row for row, external_id in enumerate(ids)}
        self._refresh_planner()
        if self._durability is not None:
            self._roll_generation()
        return self

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def planner(self) -> QueryPlanner:
        """The current planner, built lazily: a mutation or a compaction
        replaces it (:meth:`_refresh_planner`), and :meth:`close` drops it.
        Its ``pmi`` / ``structural_index`` are the store's."""
        planner = self._planner_cache
        if planner is None:
            planner = self._planner_cache = self._store.make_planner(self._plan_cache)
        return planner

    def plan_cache_stats(self) -> dict[str, int]:
        """The plan cache's ``hits``, ``misses``, ``entries`` and
        ``evictions`` over this catalog's life (:class:`~repro.core.planner.PlanCache`)."""
        return self._plan_cache.stats()

    def query(
        self,
        query_graph: LabeledGraph,
        probability_threshold: float,
        distance_threshold: int,
        config=None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """One T-PS query over the live graphs; answers carry external ids."""
        return self.query_many(
            [query_graph], probability_threshold, distance_threshold, config, rng=rng
        )[0]

    def query_many(
        self,
        query_graphs: list[LabeledGraph],
        probability_threshold: float,
        distance_threshold: int,
        config=None,
        rng: RandomLike = None,
        rngs: list[RandomLike] | None = None,
    ) -> list[QueryResult]:
        """A T-PS workload; identical answers to sequential :meth:`query` calls.

        Every query is validated and planned before any executes, so a
        malformed query anywhere in the batch raises :class:`QueryError` with
        no work done and no ``rng`` consumed.  ``rng`` semantics match
        repeated :meth:`query` calls: an int seed (or ``None``) is
        re-normalized per query, so ``query_many(qs, ..., rng=7)`` returns
        exactly ``[query(q, ..., rng=7) for q in qs]``; a shared
        ``random.Random`` is consumed once per query, in query order.

        ``rngs`` (mutually exclusive with ``rng``) supplies one RNG per query
        instead — the micro-batching contract: ``query_many(qs, ...,
        rngs=[s0, s1, ...])`` is byte-identical to ``[query(q, ..., rng=s)
        for q, s in zip(...)]``, so the query service can coalesce requests
        that each carry their own seed without the batch composition leaking
        into any answer.
        """
        planner = self.planner()
        plans = [
            planner.plan(query_graph, probability_threshold, distance_threshold, config)
            for query_graph in query_graphs
        ]
        roots = _query_roots(rng, rngs, len(plans))
        return [planner.execute_plan(plan, root) for plan, root in zip(plans, roots)]

    def query_top_k(
        self,
        query_graph: LabeledGraph,
        k: int,
        distance_threshold: int,
        config=None,
        rng: RandomLike = None,
    ) -> QueryResult:
        """The k most probable live graphs, best first (ties → smaller id)."""
        return self.query_top_k_many([query_graph], k, distance_threshold, config, rng=rng)[0]

    def query_top_k_many(
        self,
        query_graphs: list[LabeledGraph],
        k: int,
        distance_threshold: int,
        config=None,
        rng: RandomLike = None,
        rngs: list[RandomLike] | None = None,
    ) -> list[QueryResult]:
        """A top-k workload; one result per query, in input order.

        Validation, ``rng`` and ``rngs`` follow :meth:`query_many`.
        """
        planner = self.planner()
        plans = [
            planner.plan_top_k(query_graph, k, distance_threshold, config)
            for query_graph in query_graphs
        ]
        roots = _query_roots(rng, rngs, len(plans))
        return [planner.execute_plan(plan, root) for plan, root in zip(plans, roots)]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the cached planner and close the WAL append handle.

        Idempotent, and the catalog stays usable and durable: the next query
        builds a planner again.  A query already running keeps the planner
        it read, so a ``close()`` racing it leaves its answers unchanged."""
        self._planner_cache = None
        if self._durability is not None:
            self._durability.wal.close()

    def __enter__(self) -> "GraphCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _locate(self, external_id: int) -> int:
        location = self._live.get(external_id)
        if location is None:
            raise CatalogError(f"external id {external_id!r} is not live")
        return location

    def _refresh_planner(self) -> None:
        """Replace a cached planner with one over the current store."""
        if self._planner_cache is not None:
            self._planner_cache = self._store.make_planner(self._plan_cache)
