"""The Probabilistic Matrix Index (PMI) itself (Section 3.1, Figure 4).

Rows are indexed features, columns are probabilistic graphs; each cell holds
``(LowerB(f), UpperB(f))`` — the SIP bounds of the feature against that
graph — or the empty entry when the feature does not occur in the graph's
skeleton at all.

The matrix is stored *columnar*: dense ``float64`` arrays
``lower[graph, feature]`` / ``upper[graph, feature]`` plus a boolean presence
mask, with per-cell embedding/cut counts in parallel ``int32`` arrays and the
(rare, variable-length) chosen embedding/cut index tuples in a sparse side
table.  The dict-of-dicts view of Section 3.1 is still available through
:meth:`bounds_for_graph`, but the query hot path reads zero-copy row views
(:class:`PMIRow`) so probabilistic pruning never materializes per-graph
dictionaries.  Feature lookup by id is a dict hit, and the whole index can be
persisted with :meth:`save` (``.npz`` arrays + JSON feature metadata) and
rebuilt with :meth:`load` so one expensive build can serve many processes.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs.io import labeled_graph_from_dict, labeled_graph_to_dict
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.embeddings import find_embeddings_block
from repro.isomorphism.generic_join import GraphBlock
from repro.pmi.bounds import BoundConfig, SipBounds, compute_sip_bounds, draw_worlds
from repro.pmi.features import Feature, FeatureMiner, FeatureSelectionConfig
from repro.utils.atomic_io import atomic_write_text, atomic_writer
from repro.utils.rng import BUILD_STREAM, RandomLike, derive_rng, rng_root
from repro.utils.rows import resolve_row_selector
from repro.utils.timer import Timer

# BUILD_STREAM (re-exported from repro.utils.rng): each graph's SIP-bound
# sampling draws from derive_rng(root, BUILD_STREAM, stable graph id), so
# building a row slice in a worker process — or appending a delta row to a
# mutable catalog years later — yields cells identical to the same rows of a
# sequential full build under the same root.

PERSIST_FORMAT_VERSION = 1
# graphs whose embeddings are enumerated (and held) at once during a build;
# bounds the enumeration's memory on large databases, changes no cell
_BUILD_BLOCK_GRAPHS = 256
ARRAYS_FILENAME = "pmi_arrays.npz"
META_FILENAME = "pmi_meta.json"


@dataclass(frozen=True)
class PMIEntry:
    """One PMI cell: feature id, graph id, and the SIP bounds."""

    feature_id: int
    graph_id: int
    bounds: SipBounds


@dataclass(frozen=True)
class PMIRow:
    """Zero-copy view of one graph's PMI row.

    ``lower``/``upper``/``present`` are views into the index's column-major
    storage (never copies); ``feature_ids`` is the shared feature-id vector,
    index-aligned with the three value arrays.
    """

    graph_id: int
    feature_ids: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    present: np.ndarray

    def interval(self, column: int) -> tuple[float, float]:
        return (float(self.lower[column]), float(self.upper[column]))


class ProbabilisticMatrixIndex:
    """Feature-by-graph matrix of SIP bounds.

    Typical usage::

        index = ProbabilisticMatrixIndex()
        index.build(database)                      # mines features, fills cells
        entries = index.bounds_for_graph(graph_id) # {feature_id: SipBounds}
        row = index.row(graph_id)                  # zero-copy columnar view
    """

    def __init__(
        self,
        feature_config: FeatureSelectionConfig | None = None,
        bound_config: BoundConfig | None = None,
    ) -> None:
        self.feature_config = feature_config or FeatureSelectionConfig()
        self.bound_config = bound_config or BoundConfig()
        self.features: list[Feature] = []
        self._feature_ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._feature_pos: dict[int, int] = {}
        self._features_by_id: dict[int, Feature] = {}
        self._lower: np.ndarray = np.empty((0, 0))
        self._upper: np.ndarray = np.empty((0, 0))
        self._present: np.ndarray = np.empty((0, 0), dtype=bool)
        self._num_embeddings: np.ndarray = np.empty((0, 0), dtype=np.int32)
        self._num_cuts: np.ndarray = np.empty((0, 0), dtype=np.int32)
        # (graph_id, feature_id) -> (chosen embedding indices, chosen cut indices)
        self._chosen: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._built = False
        self.build_seconds = 0.0
        self.database_size = 0
        # 64-bit root of the build streams; delta appends (GraphCatalog) must
        # reuse it so appended rows equal a from-scratch build's rows
        self.build_root: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(
        self,
        database: list[ProbabilisticGraph],
        features: list[Feature] | None = None,
        rng: RandomLike = None,
        graph_ids=None,
    ) -> "ProbabilisticMatrixIndex":
        """Mine features (unless provided) and fill every PMI cell.

        Monte-Carlo SIP-bound sampling derives one RNG stream per graph from
        ``(rng, BUILD_STREAM, stable graph id)``, where the stable id of row
        ``k`` is ``graph_ids[k]`` when given and ``k`` otherwise.  A build
        over ``database[start:stop]`` with ``graph_ids=range(start,
        stop)`` (and the globally mined ``features``) therefore produces
        exactly the rows a sequential full build would, and more generally a
        build with explicit ``graph_ids`` produces exactly the rows a
        :class:`~repro.core.catalog.GraphCatalog` assembles for the same
        (id → graph) mapping under the same root.
        """
        root = rng_root(rng)
        timer = Timer()
        with timer:
            if features is None:
                miner = FeatureMiner(self.feature_config)
                self.features = miner.mine(database)
            else:
                self.features = list(features)
            self._index_features()
            num_graphs = len(database)
            if graph_ids is None:
                stable_ids = list(range(num_graphs))
            else:
                stable_ids = [int(gid) for gid in graph_ids]
                if len(stable_ids) != num_graphs:
                    raise IndexError_(
                        f"graph_ids has {len(stable_ids)} entries for "
                        f"{num_graphs} graphs"
                    )
            num_features = len(self.features)
            self._allocate(num_graphs, num_features)
            for start in range(0, num_graphs, _BUILD_BLOCK_GRAPHS):
                self._fill_rows(
                    start, database[start : start + _BUILD_BLOCK_GRAPHS], root, stable_ids
                )
        self.build_seconds = timer.elapsed
        self.database_size = len(database)
        self._built = True
        self.build_root = root
        return self

    def _fill_rows(
        self, start: int, graphs: list[ProbabilisticGraph], root: int, stable_ids: list[int]
    ) -> None:
        """Fill the rows ``start..`` of one block of graphs.

        Embeddings are enumerated feature-major — the block's skeletons are
        stacked once and every feature is one join over all of them — and
        each row is then handed its slice.  A row's cells are computed over
        one world batch, drawn from the graph's private BUILD_STREAM
        generator and shared by every feature — so a cell depends on (root,
        stable id, graph, feature) and on nothing else: not on which other
        features the row holds, nor on which other graphs share the block.
        """
        block = GraphBlock(graph.skeleton for graph in graphs)
        embeddings = [
            find_embeddings_block(
                feature.graph, block, limit=self.bound_config.embedding_limit
            )
            for feature in self.features
        ]
        for offset, graph in enumerate(graphs):
            row = start + offset
            try:
                worlds = draw_worlds(
                    graph, self.bound_config, derive_rng(root, BUILD_STREAM, stable_ids[row])
                )
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"graph {stable_ids[row]} cannot be indexed: {error}"
                ) from error
            for column, feature in enumerate(self.features):
                bounds = compute_sip_bounds(
                    feature.graph,
                    graph,
                    config=self.bound_config,
                    embeddings=embeddings[column][offset],
                    worlds=worlds,
                )
                if not bounds.is_empty():
                    self._store_cell(row, column, feature.feature_id, bounds)

    @classmethod
    def empty(
        cls,
        features: list[Feature],
        feature_config: FeatureSelectionConfig | None = None,
        bound_config: BoundConfig | None = None,
    ) -> "ProbabilisticMatrixIndex":
        """A built, zero-row index over a pinned feature set.

        This is the seed of a catalog delta segment: each mutation builds its
        graph's row against the same feature columns (:meth:`build` with the
        graph's stable id) and stacks it on with :meth:`concat_rows`.
        """
        index = cls(feature_config=feature_config, bound_config=bound_config)
        index.features = list(features)
        index._index_features()
        index._allocate(0, len(index.features))
        index._built = True
        return index

    @classmethod
    def concat_rows(
        cls, parts: list["ProbabilisticMatrixIndex"]
    ) -> "ProbabilisticMatrixIndex":
        """Row-stack built indexes sharing one feature set into a fresh index.

        This is how a catalog delta grows (one built row per mutation) and
        :meth:`~repro.core.catalog.GraphCatalog.compact`'s merge step: base
        and delta segments (already :meth:`subset` down to their live rows)
        become one new dense base matrix.  All parts must carry identical
        feature lists and build configurations.
        """
        if not parts:
            raise IndexError_("concat_rows() needs at least one part")
        first = parts[0]
        first._require_built()
        fingerprint = [(f.feature_id, f.canonical) for f in first.features]
        for part in parts[1:]:
            part._require_built()
            if (
                [(f.feature_id, f.canonical) for f in part.features] != fingerprint
                or part.feature_config != first.feature_config
                or part.bound_config != first.bound_config
            ):
                raise IndexError_(
                    "concat_rows() requires identical features and configs in every part"
                )
        merged = cls(
            feature_config=first.feature_config, bound_config=first.bound_config
        )
        merged.features = list(first.features)
        merged._index_features()
        merged._lower = np.vstack([part._lower for part in parts])
        merged._upper = np.vstack([part._upper for part in parts])
        merged._present = np.vstack([part._present for part in parts])
        merged._num_embeddings = np.vstack([part._num_embeddings for part in parts])
        merged._num_cuts = np.vstack([part._num_cuts for part in parts])
        merged._chosen = {}
        row_offset = 0
        for part in parts:
            for (row, feature_id), chosen in part._chosen.items():
                merged._chosen[(row + row_offset, feature_id)] = chosen
            row_offset += part._present.shape[0]
        merged.database_size = merged._present.shape[0]
        merged.build_root = first.build_root
        merged._built = True
        return merged

    def _index_features(self) -> None:
        self._feature_ids = np.array(
            [feature.feature_id for feature in self.features], dtype=np.int64
        )
        self._feature_pos = {
            feature.feature_id: column for column, feature in enumerate(self.features)
        }
        self._features_by_id = {feature.feature_id: feature for feature in self.features}

    def _allocate(self, num_graphs: int, num_features: int) -> None:
        self._lower = np.zeros((num_graphs, num_features))
        self._upper = np.zeros((num_graphs, num_features))
        self._present = np.zeros((num_graphs, num_features), dtype=bool)
        self._num_embeddings = np.zeros((num_graphs, num_features), dtype=np.int32)
        self._num_cuts = np.zeros((num_graphs, num_features), dtype=np.int32)
        self._chosen = {}

    def _store_cell(
        self, graph_id: int, column: int, feature_id: int, bounds: SipBounds
    ) -> None:
        self._lower[graph_id, column] = bounds.lower
        self._upper[graph_id, column] = bounds.upper
        self._present[graph_id, column] = True
        self._num_embeddings[graph_id, column] = bounds.num_embeddings
        self._num_cuts[graph_id, column] = bounds.num_cuts
        if bounds.chosen_embeddings or bounds.chosen_cuts:
            self._chosen[(graph_id, feature_id)] = (
                tuple(bounds.chosen_embeddings),
                tuple(bounds.chosen_cuts),
            )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_("the PMI has not been built yet; call build() first")

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def num_graphs(self) -> int:
        return self._present.shape[0]

    def feature_by_id(self, feature_id: int) -> Feature:
        self._require_built()
        feature = self._features_by_id.get(feature_id)
        if feature is None:
            raise IndexError_(f"unknown feature id {feature_id!r}")
        return feature

    def row(self, graph_id: int) -> PMIRow:
        """Zero-copy columnar view of one graph's row (the pruning hot path)."""
        self._require_built()
        if not 0 <= graph_id < self._present.shape[0]:
            raise IndexError_(f"graph id {graph_id!r} is not indexed")
        return PMIRow(
            graph_id=graph_id,
            feature_ids=self._feature_ids,
            lower=self._lower[graph_id],
            upper=self._upper[graph_id],
            present=self._present[graph_id],
        )

    def rows(self, graph_ids) -> list[PMIRow]:
        """Zero-copy row views for a whole candidate batch, in input order.

        Convenience over looping :meth:`row` — same per-row work, but it
        accepts numpy id arrays directly (the cascade's candidate rows),
        handling the ``int()`` coercion in one place.
        """
        return [self.row(int(graph_id)) for graph_id in graph_ids]

    def _cell(self, graph_id: int, column: int, feature_id: int) -> SipBounds:
        chosen_embeddings, chosen_cuts = self._chosen.get((graph_id, feature_id), ((), ()))
        return SipBounds(
            lower=float(self._lower[graph_id, column]),
            upper=float(self._upper[graph_id, column]),
            num_embeddings=int(self._num_embeddings[graph_id, column]),
            num_cuts=int(self._num_cuts[graph_id, column]),
            chosen_embeddings=chosen_embeddings,
            chosen_cuts=chosen_cuts,
        )

    def bounds_for_graph(self, graph_id: int) -> dict[int, SipBounds]:
        """The ``Dg`` of Section 3.1: {feature_id: bounds} for one graph.

        Reconstructs :class:`SipBounds` cells from the columnar storage; use
        :meth:`row` on hot paths instead.
        """
        row = self.row(graph_id)
        return {
            int(self._feature_ids[column]): self._cell(
                graph_id, column, int(self._feature_ids[column])
            )
            for column in np.flatnonzero(row.present)
        }

    def bounds(self, graph_id: int, feature_id: int) -> SipBounds | None:
        """Bounds for one cell, or None when the feature is absent from the graph."""
        self._require_built()
        column = self._feature_pos.get(feature_id)
        if column is None or not 0 <= graph_id < self._present.shape[0]:
            return None
        if not self._present[graph_id, column]:
            return None
        return self._cell(graph_id, column, feature_id)

    def entries(self) -> list[PMIEntry]:
        """Every non-empty cell as a flat list (useful for inspection/tests)."""
        self._require_built()
        result = []
        for graph_id, column in zip(*np.nonzero(self._present)):
            feature_id = int(self._feature_ids[column])
            result.append(
                PMIEntry(
                    feature_id=feature_id,
                    graph_id=int(graph_id),
                    bounds=self._cell(int(graph_id), int(column), feature_id),
                )
            )
        return result

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def subset(self, graph_ids) -> "ProbabilisticMatrixIndex":
        """A new index over the given rows; features and configs are shared.

        ``graph_ids`` is any sequence (or range) of indexed graph ids; row
        ``k`` of the subset is the old row ``graph_ids[k]``.  This is how a
        catalog adopts a prebuilt or loaded PMI and compacts its rows without
        recomputing any SIP bounds.  Contiguous ascending ranges slice the
        columnar arrays zero-copy; arbitrary id lists fall back to a fancy-
        indexed copy.
        """
        self._require_built()
        try:
            ids, selector = resolve_row_selector(graph_ids, self._present.shape[0])
        except ValueError as error:
            raise IndexError_(str(error)) from None
        sub = ProbabilisticMatrixIndex(
            feature_config=self.feature_config, bound_config=self.bound_config
        )
        sub.features = list(self.features)
        sub._index_features()
        sub._lower = self._lower[selector]
        sub._upper = self._upper[selector]
        sub._present = self._present[selector]
        sub._num_embeddings = self._num_embeddings[selector]
        sub._num_cuts = self._num_cuts[selector]
        chosen_by_graph: dict[int, list[tuple[int, tuple]]] = {}
        for (graph_id, feature_id), chosen in self._chosen.items():
            chosen_by_graph.setdefault(graph_id, []).append((feature_id, chosen))
        # keyed per output row, so duplicated ids keep their entries too
        sub._chosen = {
            (new_id, feature_id): chosen
            for new_id, old_id in enumerate(ids)
            for feature_id, chosen in chosen_by_graph.get(old_id, [])
        }
        sub.database_size = len(ids)
        sub.build_seconds = 0.0
        sub.build_root = self.build_root
        sub._built = True
        return sub

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the built index to ``path`` (a directory).

        Numeric columns go to ``pmi_arrays.npz``; features, configs and the
        sparse chosen-set table go to ``pmi_meta.json``.  Both files are
        written atomically (tmp + fsync + rename), so a crash mid-save leaves
        the previous payload intact rather than a torn one.
        """
        self._require_built()
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        with atomic_writer(directory / ARRAYS_FILENAME) as handle:
            np.savez_compressed(
                handle,
                lower=self._lower,
                upper=self._upper,
                present=self._present,
                num_embeddings=self._num_embeddings,
                num_cuts=self._num_cuts,
                feature_ids=self._feature_ids,
            )
        meta = {
            "type": "probabilistic_matrix_index",
            "version": PERSIST_FORMAT_VERSION,
            "database_size": self.database_size,
            "build_seconds": self.build_seconds,
            "build_root": self.build_root,
            "feature_config": asdict(self.feature_config),
            "bound_config": asdict(self.bound_config),
            "features": [
                {
                    "feature_id": feature.feature_id,
                    "graph": labeled_graph_to_dict(feature.graph),
                    "support": sorted(feature.support),
                    "canonical": feature.canonical,
                }
                for feature in self.features
            ],
            "chosen": {
                f"{graph_id}:{feature_id}": [list(embeddings), list(cuts)]
                for (graph_id, feature_id), (embeddings, cuts) in self._chosen.items()
            },
        }
        atomic_write_text(directory / META_FILENAME, json.dumps(meta))

    @classmethod
    def load(cls, path: str | Path) -> "ProbabilisticMatrixIndex":
        """Rebuild an index persisted by :meth:`save`."""
        directory = Path(path)
        meta_path = directory / META_FILENAME
        arrays_path = directory / ARRAYS_FILENAME
        if not meta_path.exists() or not arrays_path.exists():
            raise IndexError_(f"no persisted PMI at {str(directory)!r}")
        try:
            meta = json.loads(meta_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
            raise IndexError_(
                f"corrupt PMI metadata at {str(meta_path)!r}: {error}; the "
                "payload was probably torn by a crash mid-write — restore the "
                "directory from a catalog snapshot or rebuild the index"
            ) from error
        if meta.get("type") != "probabilistic_matrix_index":
            raise IndexError_(f"not a PMI payload: {meta.get('type')!r}")
        if meta.get("version") != PERSIST_FORMAT_VERSION:
            raise IndexError_(
                f"unsupported PMI format version {meta.get('version')!r}; "
                f"this build reads version {PERSIST_FORMAT_VERSION}"
            )
        index = cls(
            feature_config=FeatureSelectionConfig(**meta["feature_config"]),
            bound_config=BoundConfig(**meta["bound_config"]),
        )
        index.features = [
            Feature(
                feature_id=entry["feature_id"],
                graph=labeled_graph_from_dict(entry["graph"]),
                support=frozenset(entry["support"]),
                canonical=entry["canonical"],
            )
            for entry in meta["features"]
        ]
        index._index_features()
        try:
            with np.load(arrays_path) as arrays:
                saved_feature_ids = arrays["feature_ids"]
                expected_shape = (meta["database_size"], len(index.features))
                if arrays["lower"].shape != expected_shape or not np.array_equal(
                    saved_feature_ids, index._feature_ids
                ):
                    raise IndexError_(
                        f"inconsistent PMI payload at {str(directory)!r}: array shapes "
                        "or feature ids disagree with the JSON metadata"
                    )
                index._lower = arrays["lower"]
                index._upper = arrays["upper"]
                index._present = arrays["present"]
                index._num_embeddings = arrays["num_embeddings"]
                index._num_cuts = arrays["num_cuts"]
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError, OSError) as error:
            # np.load surfaces truncation as any of these depending on where
            # the bytes stop; a bare propagated error used to leave no hint of
            # *which* file died or what to do about it
            raise IndexError_(
                f"corrupt PMI arrays at {str(arrays_path)!r}: {error}; the npz "
                "payload is truncated or damaged — restore the directory from "
                "a catalog snapshot or rebuild the index"
            ) from error
        index._chosen = {}
        for key, (embeddings, cuts) in meta["chosen"].items():
            graph_id, feature_id = key.split(":")
            index._chosen[(int(graph_id), int(feature_id))] = (
                tuple(embeddings),
                tuple(cuts),
            )
        index.database_size = meta["database_size"]
        index.build_seconds = meta["build_seconds"]
        # absent in payloads written before the mutable-catalog layer
        index.build_root = meta.get("build_root")
        index._built = True
        return index

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def size_in_bytes(self) -> int:
        """In-memory footprint of the columnar matrix (Figure 12(d) metric)."""
        self._require_built()
        total = (
            self._lower.nbytes
            + self._upper.nbytes
            + self._present.nbytes
            + self._num_embeddings.nbytes
            + self._num_cuts.nbytes
            + self._feature_ids.nbytes
        )
        total += 64 * len(self._chosen)
        for feature in self.features:
            total += 48 * (feature.num_vertices + feature.num_edges)
        return total

    def summary(self) -> dict:
        """Human-readable build summary used by examples and benchmarks."""
        self._require_built()
        return {
            "database_size": self.database_size,
            "num_features": self.num_features,
            "non_empty_cells": int(self._present.sum()),
            "build_seconds": round(self.build_seconds, 4),
            "index_bytes": self.size_in_bytes(),
        }

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return (
            f"ProbabilisticMatrixIndex({state}, features={len(self.features)}, "
            f"graphs={self.database_size})"
        )
