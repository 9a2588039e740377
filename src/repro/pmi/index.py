"""The Probabilistic Matrix Index (PMI) itself (Section 3.1, Figure 4).

Rows are indexed features, columns are probabilistic graphs; each cell holds
``(LowerB(f), UpperB(f))`` — the SIP bounds of the feature against that
graph — or the empty entry when the feature does not occur in the graph's
skeleton at all.

The matrix is stored *columnar*: dense ``float64`` arrays
``lower[graph, feature]`` / ``upper[graph, feature]`` plus a boolean presence
mask — the interval of Figure 4 and nothing else, since Pruning 1 and 2 read
nothing else (the embedding and cut diagnostics of a :class:`SipBounds` are
dropped when its cell is stored).  Every reader goes through zero-copy row
views (:meth:`row` / :meth:`rows`, :class:`PMIRow`), and the whole index can
be persisted with :meth:`save` (``.npz`` arrays + JSON feature metadata) and
rebuilt with :meth:`load` so one expensive build can serve many processes.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, GraphError, IndexError_
from repro.graphs.io import labeled_graph_from_dict, labeled_graph_to_dict
from repro.graphs.probabilistic_graph import ProbabilisticGraph
from repro.isomorphism.embeddings import find_embeddings_block
from repro.isomorphism.generic_join import GraphBlock
from repro.pmi.bounds import BoundConfig, compute_sip_bounds, draw_worlds
from repro.pmi.features import Feature, FeatureMiner, FeatureSelectionConfig, feature_fingerprint
from repro.utils.atomic_io import atomic_write_text, atomic_writer
from repro.utils.rng import BUILD_STREAM, RandomLike, derive_rng, rng_root
from repro.utils.rows import resolve_row_selector
from repro.utils.timer import Timer

# BUILD_STREAM (re-exported from repro.utils.rng): each graph's SIP-bound
# sampling draws from derive_rng(root, BUILD_STREAM, stable graph id), so
# building a row slice on its own — or appending a row to a mutable catalog
# years later — yields cells identical to the same rows of a
# sequential full build under the same root.

# version 2 stores the three cell arrays and the feature ids; version 1 also
# stored embedding/cut counts and chosen sets, which load() skips
PERSIST_FORMAT_VERSION = 2
_READABLE_FORMAT_VERSIONS = (1, 2)
# graphs whose embeddings are enumerated (and held) at once during a build;
# bounds the enumeration's memory on large databases, changes no cell
_BUILD_BLOCK_GRAPHS = 256
ARRAYS_FILENAME = "pmi_arrays.npz"
META_FILENAME = "pmi_meta.json"


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
        index.build(database)      # mines features, fills cells
        row = index.row(graph_id)  # zero-copy columnar view
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
        self._lower: np.ndarray = np.empty((0, 0))
        self._upper: np.ndarray = np.empty((0, 0))
        self._present: np.ndarray = np.empty((0, 0), dtype=bool)
        self._built = False
        self.build_seconds = 0.0
        # 64-bit root of the build streams; a catalog's appended rows must
        # reuse it to equal a from-scratch build's rows
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
                    self._lower[row, column] = bounds.lower
                    self._upper[row, column] = bounds.upper
                    self._present[row, column] = True

    @classmethod
    def concat_rows(
        cls, parts: list["ProbabilisticMatrixIndex"]
    ) -> "ProbabilisticMatrixIndex":
        """Row-stack built indexes sharing one feature set into a fresh index.

        This is how a catalog appends a mutation's row: the graph's one-row
        index, built against the catalog's pinned features under its stable
        id, is stacked under every row the catalog already stores.  All parts
        must carry identical feature lists and build configurations.
        """
        if not parts:
            raise IndexError_("concat_rows() needs at least one part")
        first = parts[0]
        first._require_built()
        fingerprint = feature_fingerprint(first.features)
        for part in parts[1:]:
            part._require_built()
            if (
                feature_fingerprint(part.features) != fingerprint
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
        merged.build_root = first.build_root
        merged._built = True
        return merged

    def _index_features(self) -> None:
        self._feature_ids = np.array(
            [feature.feature_id for feature in self.features], dtype=np.int64
        )

    def _allocate(self, num_graphs: int, num_features: int) -> None:
        self._lower = np.zeros((num_graphs, num_features))
        self._upper = np.zeros((num_graphs, num_features))
        self._present = np.zeros((num_graphs, num_features), dtype=bool)

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
            _, selector = resolve_row_selector(graph_ids, self._present.shape[0])
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
        sub.build_seconds = 0.0
        sub.build_root = self.build_root
        sub._built = True
        return sub

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the built index to ``path`` (a directory).

        The cell arrays and feature ids go to ``pmi_arrays.npz``; features
        and configs go to ``pmi_meta.json``.  Both files are written
        atomically (tmp + fsync + rename), so a crash mid-save leaves the
        previous payload intact rather than a torn one.
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
                feature_ids=self._feature_ids,
            )
        meta = {
            "type": "probabilistic_matrix_index",
            "version": PERSIST_FORMAT_VERSION,
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
        }
        atomic_write_text(directory / META_FILENAME, json.dumps(meta))

    @classmethod
    def load(cls, path: str | Path) -> "ProbabilisticMatrixIndex":
        """Rebuild an index persisted by :meth:`save` (format version 1 or 2).

        Only the cell arrays and the feature ids are read: the embedding/cut
        diagnostics a version-1 payload also holds are skipped.  Any payload
        that does not parse as one :meth:`save` writes raises
        :class:`IndexError_` naming the file.
        """
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
        if not isinstance(meta, dict) or meta.get("type") != "probabilistic_matrix_index":
            kind = meta.get("type") if isinstance(meta, dict) else type(meta).__name__
            raise IndexError_(f"not a PMI payload: {kind!r}")
        if meta.get("version") not in _READABLE_FORMAT_VERSIONS:
            raise IndexError_(
                f"unsupported PMI format version {meta.get('version')!r}; "
                f"this build reads versions {_READABLE_FORMAT_VERSIONS}"
            )
        try:
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
            index.build_seconds = float(meta["build_seconds"])
            # absent in payloads written before the mutable-catalog layer
            build_root = meta.get("build_root")
            index.build_root = None if build_root is None else int(build_root)
        except (KeyError, TypeError, ValueError, AttributeError, GraphError) as error:
            raise IndexError_(
                f"malformed PMI metadata at {str(meta_path)!r}: {error!r}"
            ) from error
        index._index_features()
        try:
            with np.load(arrays_path) as arrays:
                index._lower = arrays["lower"]
                index._upper = arrays["upper"]
                index._present = arrays["present"]
                saved_feature_ids = arrays["feature_ids"]
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError, OSError) as error:
            # np.load surfaces truncation as any of these depending on where
            # the bytes stop; a bare propagated error used to leave no hint of
            # *which* file died or what to do about it
            raise IndexError_(
                f"corrupt PMI arrays at {str(arrays_path)!r}: {error}; the npz "
                "payload is truncated or damaged — restore the directory from "
                "a catalog snapshot or rebuild the index"
            ) from error
        shape = index._present.shape
        if (
            len(shape) != 2
            or shape[1] != len(index.features)
            or index._lower.shape != shape
            or index._upper.shape != shape
            or not np.array_equal(saved_feature_ids, index._feature_ids)
        ):
            raise IndexError_(
                f"inconsistent PMI payload at {str(directory)!r}: array shapes "
                "or feature ids disagree with the JSON metadata"
            )
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
            + self._feature_ids.nbytes
        )
        for feature in self.features:
            total += 48 * (feature.num_vertices + feature.num_edges)
        return total

    def summary(self) -> dict:
        """Human-readable build summary used by examples and benchmarks."""
        self._require_built()
        return {
            "database_size": self.num_graphs,
            "num_features": self.num_features,
            "non_empty_cells": int(self._present.sum()),
            "build_seconds": round(self.build_seconds, 4),
            "index_bytes": self.size_in_bytes(),
        }

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return (
            f"ProbabilisticMatrixIndex({state}, features={len(self.features)}, "
            f"graphs={self.num_graphs})"
        )
