"""Durable-catalog behavior: persist/open round trips, the recovery
invariant (recovered answers == from-scratch build over the surviving
database), generation rolling, and tolerance of crash debris.

Process-kill crash injection lives in ``test_crash_recovery.py``; this file
covers the same recovery paths with surgically constructed on-disk states.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core import GraphCatalog
from repro.core.catalog import CURRENT_FILENAME
from repro.core.wal import WriteAheadLog, wal_filename
from repro.datasets import extract_query
from repro.exceptions import CatalogError, ConfigurationError, GraphError, IndexError_, WalError
from repro.graphs.io import probabilistic_graph_to_dict
from repro.pmi import ProbabilisticMatrixIndex
from repro.reference import WorldSampler
from repro.structural.feature_index import StructuralFeatureIndex
from tests.conftest import (
    assert_signature_segment_matches_live_graphs,
    build_index,
    live_ids,
    write_as_format_2,
)
from tests.test_catalog_parity import (
    BOUND_CONFIG,
    DISTANCE_THRESHOLD,
    FEATURE_CONFIG,
    PROBABILITY_THRESHOLD,
    SEARCH_CONFIG,
    answer_tuples,
    apply_random_mutations,
    assert_result_parity,
    random_database,
    rebuild_from_scratch,
)
from tests.test_pmi_index import wide_factor_graph

SEED = 20120901


def durable_catalog(tmp_path, seed=SEED, num_graphs=7, num_shards=1):
    database = random_database(seed, num_graphs=num_graphs)
    return (
        GraphCatalog.build(
            database.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=seed,
            num_shards=num_shards,
            directory=tmp_path / "catalog",
        ),
        database.graphs,
    )


class TestPersistAndOpen:
    def test_build_with_directory_creates_the_layout(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        root = tmp_path / "catalog"
        assert catalog.generation == 0
        assert catalog.wal_records == 0
        assert (root / CURRENT_FILENAME).exists()
        assert (root / "gen_00000000" / "catalog.json").exists()
        assert (root / wal_filename(0)).exists()
        # one store: graphs, PMI and counts sit in the generation directory
        assert sorted(path.name for path in (root / "gen_00000000").iterdir()) == [
            "catalog.json",
            "graphs.npz",
            "pmi_arrays.npz",
            "pmi_meta.json",
            "structural_counts.npy",
        ]
        catalog.close()

    def test_in_memory_catalog_is_not_durable(self):
        catalog = GraphCatalog.build(
            random_database(SEED, num_graphs=5).graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=SEED,
        )
        assert catalog.generation is None  # nothing is logged
        assert catalog.wal_records == 0

    def test_persist_refuses_an_already_durable_catalog(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        with pytest.raises(CatalogError, match="already durable"):
            catalog.persist(tmp_path / "elsewhere")
        catalog.close()

    def test_persist_refuses_an_occupied_directory(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        catalog.close()
        other = GraphCatalog.build(
            random_database(SEED + 1, num_graphs=5).graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=SEED,
        )
        with pytest.raises(CatalogError, match="already holds"):
            other.persist(tmp_path / "catalog")

    def test_open_requires_a_durable_directory(self, tmp_path):
        with pytest.raises(CatalogError, match="missing CURRENT"):
            GraphCatalog.open(tmp_path)

    def test_open_rejects_corrupt_current(self, tmp_path):
        (tmp_path / CURRENT_FILENAME).write_text("not json {{{")
        with pytest.raises(CatalogError, match="corrupt CURRENT"):
            GraphCatalog.open(tmp_path)

    def test_open_rejects_malformed_current(self, tmp_path):
        (tmp_path / CURRENT_FILENAME).write_text(json.dumps({"type": "other"}))
        with pytest.raises(CatalogError, match="malformed CURRENT"):
            GraphCatalog.open(tmp_path)

    def test_open_rejects_unknown_snapshot_version(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        catalog.close()
        meta_path = tmp_path / "catalog" / "gen_00000000" / "catalog.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CatalogError, match="unsupported catalog snapshot"):
            GraphCatalog.open(tmp_path / "catalog")

    def test_open_refuses_a_version_one_snapshot(self, tmp_path):
        """Version 1 kept one ``shard_NNN/`` directory per shard and listed
        their ids under ``shards``: ``open`` refuses it with the typed error
        for an unsupported version before it reads a file."""
        catalog, _ = durable_catalog(tmp_path)
        catalog.close()
        generation = tmp_path / "catalog" / "gen_00000000"
        meta = json.loads((generation / "catalog.json").read_text())
        shard = generation / "shard_000"
        shard.mkdir()
        for path in sorted(generation.iterdir()):
            if path.is_file() and path.name != "catalog.json":
                path.rename(shard / path.name)
        meta["version"] = 1
        meta["shards"] = [{"external_ids": meta.pop("external_ids")}]
        (generation / "catalog.json").write_text(json.dumps(meta))
        with pytest.raises(CatalogError, match="unsupported catalog snapshot version 1"):
            GraphCatalog.open(tmp_path / "catalog")

    def test_to_catalog_with_directory(self, tmp_path):
        """An index adopted into a catalog (``GraphCatalog.from_index``) with a
        directory is durable from birth."""
        graphs = random_database(SEED, num_graphs=6).graphs
        built = build_index(
            graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=SEED
        )
        catalog = GraphCatalog.from_index(
            graphs, built.pmi, built.structural_index, directory=tmp_path / "adopted"
        )
        assert catalog.generation is not None
        catalog.add_graph(random_database(SEED + 1, num_graphs=1).graphs[0])
        catalog.close()
        reopened = GraphCatalog.open(tmp_path / "adopted")
        assert reopened.num_live == len(graphs) + 1
        reopened.close()


    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_open_loads_the_snapshot_without_rebuilding(
        self, tmp_path, monkeypatch, num_shards
    ):
        """A warm restart is build(directory=...) then open(): reopening a
        clean snapshot computes no SIP bound and enumerates no embedding, and
        hands back the exact base arrays the build wrote.  Format 3 writes no
        ``num_shards``, whatever the build was given: nothing reads it."""
        built, _ = durable_catalog(tmp_path, num_shards=num_shards)
        built.close()

        # spies: bit-equal arrays alone could also come from a silent rebuild
        rebuilds = []
        for index_class in (ProbabilisticMatrixIndex, StructuralFeatureIndex):
            original = index_class.build

            def counting_build(self, *args, _original=original, **kwargs):
                rebuilds.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(index_class, "build", counting_build)
        reopened = GraphCatalog.open(tmp_path / "catalog")
        monkeypatch.undo()
        reopened.close()
        assert not rebuilds, f"open() rebuilt {rebuilds} instead of loading"
        meta = json.loads((tmp_path / "catalog" / "gen_00000000" / "catalog.json").read_text())
        assert meta["version"] == 3 and "num_shards" not in meta

        built_store, reopened_store = built._store, reopened._store
        for name in ("_lower", "_upper", "_present"):
            assert np.array_equal(
                getattr(built_store.pmi, name), getattr(reopened_store.pmi, name)
            ), name
        assert np.array_equal(
            built_store.structural.counts_matrix(),
            reopened_store.structural.counts_matrix(),
        )


def _rewrite_json(path, change) -> None:
    """Replace the JSON document at ``path`` with ``change(document)``."""
    path.write_text(json.dumps(change(json.loads(path.read_text()))))


def _without(key):
    return lambda document: {k: v for k, v in document.items() if k != key}


def _second_id(value):
    """Swap the id of row 1 (which is 1) for ``value``: an id ``true`` read as
    1 would then open the very catalog that was written."""

    def change(document):
        first, second, *rest = document["external_ids"]
        assert second == 1
        return {**document, "external_ids": [first, value, *rest]}

    return change


# where a graph payload names an element twice: (the list that repeats its
# first entry, what the refusal says)
_REPEATS = {
    "vertex": (("skeleton", "vertices"), "names one vertex twice"),
    "edge": (("skeleton", "edges"), "names one edge twice"),
    "assignment": (("factors", 0, "table"), "repeated assignment"),
}


def repeat_first(graph_payload: dict, element: str) -> dict:
    """``graph_payload`` (a probabilistic graph's dict form) with the first
    entry of its ``element`` list named a second time, in place."""
    entries = graph_payload
    for key in _REPEATS[element][0]:
        entries = entries[key]
    entries.append(entries[0])
    return graph_payload


def _repeat_in_first_graph(element):
    def change(document):
        repeat_first(document["graphs"][0], element)
        return document

    return change


def _rewrite_npz(path, change) -> None:
    """Replace the arrays of the ``.npz`` at ``path`` with ``change(arrays)``."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    np.savez(path, **change(arrays))


def _set(name, index, value):
    """Copy of the columns with ``arrays[name][index] = value``."""

    def change(arrays):
        column = arrays[name].copy()
        column[index] = value
        return {**arrays, name: column}

    return change


def _symbol_count(arrays, key) -> int:
    return len(json.loads(arrays["symbols"].tobytes())[key])


def _out_of_range(name, key):
    """The first code of ``name`` set one past the ``key`` symbol list."""
    return lambda arrays: _set(name, 0, _symbol_count(arrays, key))(arrays)


def _widen_last(name):
    """``name``'s last offset one past the end of what it indexes."""
    return lambda arrays: _set(name, -1, arrays[name][-1] + 1)(arrays)


def _uncovered_edge(arrays):
    """One more skeleton edge in the last graph, which no factor names."""
    vertex_offsets, edge_offsets = arrays["vertex_offsets"], arrays["edge_offsets"]
    taken = {tuple(sorted(ends)) for ends in arrays["edge_ends"][edge_offsets[-2] :].tolist()}
    size = int(vertex_offsets[-1] - vertex_offsets[-2])
    pair = next(
        (a, b) for a in range(size) for b in range(a + 1, size) if (a, b) not in taken
    )
    return {
        **arrays,
        "edge_ends": np.vstack([arrays["edge_ends"], np.array([pair], dtype=np.int32)]),
        "edge_labels": np.append(arrays["edge_labels"], arrays["edge_labels"][-1]),
        "edge_offsets": np.append(edge_offsets[:-1], edge_offsets[-1] + 1),
    }


def _first_factor(arrays, offsets: str) -> int:
    """Index of the first factor spanning at least two entries of ``offsets``
    (``variable_offsets``: two edges; ``entry_offsets``: two table rows)."""
    return int(np.flatnonzero(np.diff(arrays[offsets]) >= 2)[0])


def _repeated_variable(arrays):
    start = arrays["variable_offsets"][_first_factor(arrays, "variable_offsets")]
    return _set("factor_edges", start + 1, arrays["factor_edges"][start])(arrays)


def _repeated_assignment(arrays):
    factor = _first_factor(arrays, "entry_offsets")
    widths = np.diff(arrays["variable_offsets"])
    sizes = np.diff(arrays["entry_offsets"])
    start = int((widths[:factor] * sizes[:factor]).sum())
    width = int(widths[factor])
    bits = arrays["bits"].copy()
    bits[start + width : start + 2 * width] = bits[start : start + width]
    return {**arrays, "bits": bits}


_GENERATION = "gen_00000000"
# (file under the catalog directory, how it is damaged, the typed error, what
# the error says or None); ``graphs.json`` is damaged in a format-2 copy, every
# other file in a format-3 one
_EMPTY_SKELETON = {"type": "labeled_graph", "vertices": [], "edges": []}

_MALFORMED_FILES = {
    "pmi_meta without features": ("pmi_meta.json", _without("features"), IndexError_, None),
    "pmi_meta with an unknown feature_config key": (
        "pmi_meta.json",
        lambda meta: {**meta, "feature_config": {**meta["feature_config"], "bogus": 1}},
        IndexError_,
        None,
    ),
    "pmi_meta that is a list": ("pmi_meta.json", lambda meta: [meta], IndexError_, None),
    "catalog without external_ids": ("catalog.json", _without("external_ids"), CatalogError, None),
    "catalog without build_root": ("catalog.json", _without("build_root"), CatalogError, None),
    "catalog with an id a": ("catalog.json", _second_id("a"), CatalogError, None),
    "catalog with a negative id": ("catalog.json", _second_id(-1), CatalogError, None),
    "catalog with an id true": ("catalog.json", _second_id(True), CatalogError, None),
    "catalog that is a list": ("catalog.json", lambda meta: [meta], CatalogError, None),
    "catalog with version 3.0": (
        "catalog.json",
        lambda meta: {**meta, "version": 3.0},
        CatalogError,
        "unsupported catalog snapshot version 3.0",
    ),
    "CURRENT that is a list": (CURRENT_FILENAME, lambda current: [current], CatalogError, None),
    "truncated graphs": ("graphs.json", None, GraphError, "corrupt database"),
    **{
        f"graphs.json naming one {element} twice": (
            "graphs.json", _repeat_in_first_graph(element), GraphError, _REPEATS[element][1]
        )
        for element in _REPEATS
    },
    "truncated graphs.npz": ("graphs.npz", None, GraphError, "corrupt graph columns"),
    "graphs.npz without values": (
        "graphs.npz",
        lambda arrays: {k: v for k, v in arrays.items() if k != "values"},
        GraphError,
        "corrupt graph columns",
    ),
    "vertex offsets past the vertex ids": (
        "graphs.npz", _widen_last("vertex_offsets"), GraphError, "vertex_offsets do not grow"
    ),
    "entry offsets past the values": (
        "graphs.npz", _widen_last("entry_offsets"), GraphError, "entry_offsets do not grow"
    ),
    "edge offsets that shrink": (
        "graphs.npz", _set("edge_offsets", 1, -1), GraphError, "edge_offsets do not grow"
    ),
    "vertex id code out of range": (
        "graphs.npz", _out_of_range("vertex_ids", "vertex_ids"), GraphError, "vertex_ids holds"
    ),
    "negative vertex id code": (
        "graphs.npz", _set("vertex_ids", 0, -1), GraphError, "vertex_ids holds"
    ),
    "edge label code out of range": (
        "graphs.npz", _out_of_range("edge_labels", "labels"), GraphError, "edge_labels holds"
    ),
    "negative edge end": ("graphs.npz", _set("edge_ends", (0, 0), -1), GraphError, "edge_ends"),
    "factor edge out of range": (
        "graphs.npz", _set("factor_edges", 0, 10**6), GraphError, "factor_edges holds"
    ),
    "negative factor edge": (
        "graphs.npz", _set("factor_edges", 0, -1), GraphError, "factor_edges holds"
    ),
    "self loop": (
        "graphs.npz",
        lambda arrays: _set("edge_ends", (0, 1), arrays["edge_ends"][0, 0])(arrays),
        GraphError,
        "self loop",
    ),
    "assignment bit 2": ("graphs.npz", _set("bits", 0, 2), GraphError, "not 0 or 1"),
    "table value 0": ("graphs.npz", _set("values", 0, 0.0), GraphError, "finite number > 0"),
    "table value -1": ("graphs.npz", _set("values", 0, -1.0), GraphError, "finite number > 0"),
    "table value nan": ("graphs.npz", _set("values", 0, np.nan), GraphError, "finite number"),
    "factor with a repeated edge": (
        "graphs.npz", _repeated_variable, GraphError, "names one edge twice"
    ),
    "uncovered skeleton edge": (
        "graphs.npz", _uncovered_edge, GraphError, "has no probability factor"
    ),
    "duplicate vertex": (
        "graphs.npz",
        lambda arrays: _set("vertex_ids", 1, arrays["vertex_ids"][0])(arrays),
        GraphError,
        "one vertex twice",
    ),
    "repeated assignment": (
        "graphs.npz", _repeated_assignment, GraphError, "repeated assignment"
    ),
    "symbol table that is not JSON": (
        "graphs.npz",
        lambda arrays: {**arrays, "symbols": np.frombuffer(b"{not json", dtype=np.uint8)},
        GraphError,
        "not JSON",
    ),
}


@pytest.fixture(scope="module")
def snapshot_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("snapshot") / "catalog"
    catalog, _ = durable_catalog(directory.parent)
    catalog.close()
    return directory


@pytest.fixture(scope="module")
def format_2_snapshot_directory(snapshot_directory, tmp_path_factory):
    directory = tmp_path_factory.mktemp("format_2") / "catalog"
    shutil.copytree(snapshot_directory, directory)
    write_as_format_2(directory)
    return directory


class TestMalformedSnapshotFiles:
    """Every file ``open`` reads refuses damage with the error type of its
    layer — never a raw ``KeyError`` / ``TypeError`` / ``ValueError`` /
    ``IndexError`` / ``AttributeError`` / ``JSONDecodeError`` — and snapshot
    ids get the same check as live calls and WAL replay."""

    @pytest.mark.parametrize("case", list(_MALFORMED_FILES))
    def test_open_raises_the_typed_error(
        self, snapshot_directory, format_2_snapshot_directory, tmp_path, case
    ):
        name, change, error, match = _MALFORMED_FILES[case]
        directory = tmp_path / "catalog"
        source = format_2_snapshot_directory if name == "graphs.json" else snapshot_directory
        shutil.copytree(source, directory)
        path = directory / (name if name == CURRENT_FILENAME else f"{_GENERATION}/{name}")
        if change is None:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif path.suffix == ".npz":
            _rewrite_npz(path, change)
        else:
            _rewrite_json(path, change)
        with pytest.raises(error, match=match):
            GraphCatalog.open(directory)

    def test_the_undamaged_copy_opens(self, snapshot_directory, tmp_path):
        shutil.copytree(snapshot_directory, tmp_path / "catalog")
        GraphCatalog.open(tmp_path / "catalog").close()

    def test_the_undamaged_format_2_copy_opens(self, format_2_snapshot_directory, tmp_path):
        shutil.copytree(format_2_snapshot_directory, tmp_path / "catalog")
        GraphCatalog.open(tmp_path / "catalog").close()

    @pytest.mark.parametrize(
        "record, error, match",
        [
            ({"op": "add", "external_id": 50}, WalError, r"'add' record \(lsn 1\) has no 'graph'"),
            ({"op": "update", "external_id": 1}, WalError, r"'update' .* has no 'graph'"),
            ({"op": "add", "external_id": 50, "graph": "x"}, GraphError, "payload: 'str'"),
            ({"op": "remove"}, WalError, r"'remove' .* has no 'external_id'"),
            *(
                (
                    {"op": "add", "external_id": 50, "graph": graph},
                    GraphError,
                    rf"malformed graph in WAL 'add' record \(lsn 1\): KeyError\('{field}'\)",
                )
                for graph, field in (
                    ({"type": "probabilistic_graph"}, "skeleton"),
                    ({"type": "probabilistic_graph", "skeleton": _EMPTY_SKELETON}, "factors"),
                    (
                        {
                            "type": "probabilistic_graph",
                            "skeleton": _EMPTY_SKELETON,
                            "factors": [{"edges": []}],
                        },
                        "table",
                    ),
                )
            ),
        ],
    )
    def test_replay_raises_the_typed_error(
        self, snapshot_directory, tmp_path, record, error, match
    ):
        """A checksummed WAL record with a missing or mistyped field is
        refused with a typed error, not a raw ``KeyError`` / ``AttributeError``."""
        directory = tmp_path / "catalog"
        shutil.copytree(snapshot_directory, directory)
        wal, _ = WriteAheadLog.open(directory / wal_filename(0), generation=0)
        wal.append(dict(record))
        wal.close()
        with pytest.raises(error, match=match):
            GraphCatalog.open(directory)

    @pytest.mark.parametrize("element", list(_REPEATS))
    def test_replay_refuses_a_graph_naming_an_element_twice(
        self, snapshot_directory, tmp_path, element
    ):
        """A repeated vertex, edge or table row is refused, not read as its
        last occurrence, as in a graphs.npz."""
        directory = tmp_path / "catalog"
        shutil.copytree(snapshot_directory, directory)
        graph = random_database(SEED + 1, num_graphs=1).graphs[0]
        payload = repeat_first(probabilistic_graph_to_dict(graph), element)
        wal, _ = WriteAheadLog.open(directory / wal_filename(0), generation=0)
        wal.append({"op": "add", "external_id": 50, "graph": payload})
        wal.close()
        with pytest.raises(GraphError, match=_REPEATS[element][1]):
            GraphCatalog.open(directory)


class TestRecoveryInvariant:
    """The tentpole contract: ``open()`` answers byte-identically to a
    from-scratch build over the surviving ``(id -> graph)`` database."""

    def test_reopen_after_mutations_matches_rebuild(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path, num_graphs=7)
        pool = random_database(SEED + 1000, num_graphs=8).graphs
        ops = apply_random_mutations(catalog, pool, SEED, num_ops=10)
        query = extract_query(catalog.live_items()[0][1].skeleton, 3, rng=SEED)
        catalog.close()

        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert recovered.generation is not None
        assert_signature_segment_matches_live_graphs(recovered)
        reference = rebuild_from_scratch(recovered)
        context = f"ops={ops}"
        assert_result_parity(
            recovered.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=SEED,
            ),
            reference.execute(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                SEARCH_CONFIG,
                rng=SEED,
            ),
            context,
        )
        assert_result_parity(
            recovered.query_top_k(
                query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED
            ),
            reference.execute_top_k(
                query, 3, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
            ),
            context,
        )
        recovered.close()

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_replay_reproduces_every_storage_row(self, tmp_path, num_shards):
        """``open`` replays the log through the live mutation paths, so every
        live id lands on the storage row it had; answers match a rebuild,
        before and after a compaction — whatever ``num_shards`` the build
        was given."""
        catalog, _ = durable_catalog(tmp_path, num_graphs=8, num_shards=num_shards)
        pool = random_database(SEED + 1000, num_graphs=8).graphs
        ops = apply_random_mutations(catalog, pool, SEED, num_ops=10)
        placement = {eid: catalog._live[eid] for eid in live_ids(catalog)}
        query = extract_query(catalog.live_items()[0][1].skeleton, 3, rng=SEED)
        catalog.close()

        recovered = GraphCatalog.open(tmp_path / "catalog")
        # replay reproduces every storage row
        recovered_placement = {
            eid: recovered._live[eid] for eid in live_ids(recovered)
        }
        assert recovered_placement == placement, f"ops={ops}"
        assert_signature_segment_matches_live_graphs(recovered)
        reference = rebuild_from_scratch(recovered)
        assert_result_parity(
            recovered.query(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                config=SEARCH_CONFIG,
                rng=SEED,
            ),
            reference.execute(
                query,
                PROBABILITY_THRESHOLD,
                DISTANCE_THRESHOLD,
                SEARCH_CONFIG,
                rng=SEED,
            ),
            f"ops={ops}",
        )
        assert_result_parity(
            recovered.query_top_k(
                query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED
            ),
            reference.execute_top_k(query, 3, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED),
            f"ops={ops}",
        )
        recovered.compact()
        assert_signature_segment_matches_live_graphs(recovered, fresh=True)
        recovered.close()

    def test_update_survives_as_one_atomic_record(self, tmp_path):
        catalog, graphs = durable_catalog(tmp_path, num_graphs=6)
        replacement = random_database(SEED + 1, num_graphs=1).graphs[0]
        catalog.update_graph(2, replacement)
        assert catalog.wal_records == 1  # not a remove + an add
        catalog.close()
        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert recovered.num_live == len(graphs)
        assert sorted(live_ids(recovered)) == list(range(len(graphs)))
        recovered.close()

    def test_external_id_counter_survives_recovery(self, tmp_path):
        catalog, graphs = durable_catalog(tmp_path, num_graphs=6)
        added = catalog.add_graph(random_database(SEED + 1, num_graphs=1).graphs[0])
        catalog.remove_graph(added)  # the highest id is no longer live
        catalog.close()
        recovered = GraphCatalog.open(tmp_path / "catalog")
        fresh = recovered.add_graph(random_database(SEED + 2, num_graphs=1).graphs[0])
        assert fresh == added + 1  # ids are never silently reused
        recovered.close()


class TestGenerations:
    def test_compact_rolls_the_generation(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        pool = random_database(SEED + 1000, num_graphs=2).graphs
        catalog.add_graph(pool[0])
        assert catalog.wal_records == 1
        catalog.compact()
        assert catalog.generation == 1
        assert catalog.wal_records == 0  # fresh log for the new generation
        root = tmp_path / "catalog"
        names = sorted(p.name for p in root.iterdir())
        assert names == [CURRENT_FILENAME, "gen_00000001", wal_filename(1)]
        catalog.close()

    def test_mutations_keep_working_after_a_roll(self, tmp_path):
        catalog, graphs = durable_catalog(tmp_path)
        pool = random_database(SEED + 1000, num_graphs=3).graphs
        catalog.add_graph(pool[0])
        catalog.compact()
        catalog.add_graph(pool[1])
        catalog.remove_graph(0)
        catalog.close()
        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert recovered.generation == 1
        assert recovered.wal_records == 2
        assert recovered.num_live == len(graphs) + 1
        recovered.close()

    def test_uncommitted_generation_is_ignored_and_swept(self, tmp_path):
        """A crash after writing snapshot g+1 but before the CURRENT swap
        leaves generation g fully authoritative."""
        catalog, _ = durable_catalog(tmp_path)
        pool = random_database(SEED + 1000, num_graphs=1).graphs
        catalog.add_graph(pool[0])
        catalog.close()
        root = tmp_path / "catalog"
        # fake the crashed compaction: snapshot + wal exist, CURRENT still 0
        catalog._write_snapshot(root, 1)
        WriteAheadLog.create(root / wal_filename(1), 1).close()
        recovered = GraphCatalog.open(root)
        assert recovered.generation == 0
        assert recovered.wal_records == 1  # the add survived in the old log
        names = sorted(p.name for p in root.iterdir())
        assert names == [CURRENT_FILENAME, "gen_00000000", wal_filename(0)]
        recovered.close()

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        catalog, _ = durable_catalog(tmp_path)
        catalog.close()
        root = tmp_path / "catalog"
        debris = root / "gen_00000000" / "catalog.json.abc123.tmp"
        debris.write_text("half-written")
        recovered = GraphCatalog.open(root)
        assert not debris.exists()
        recovered.close()

    def test_torn_wal_tail_is_recovered_through(self, tmp_path):
        catalog, graphs = durable_catalog(tmp_path)
        pool = random_database(SEED + 1000, num_graphs=1).graphs
        catalog.add_graph(pool[0])
        catalog.close()
        wal_path = tmp_path / "catalog" / wal_filename(0)
        with open(wal_path, "ab") as handle:
            handle.write(b'deadbeef {"op":"remove","external_')
        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert recovered.num_live == len(graphs) + 1  # the torn remove is gone
        recovered.close()


class TestRefusedMutations:
    """A graph the index refuses must fail *before* its record is logged:
    a logged record that cannot be applied would fail every later open()."""

    def snapshot_of(self, catalog):
        return (
            live_ids(catalog),
            catalog.mutation_generation,
            catalog.num_live + catalog.tombstone_count,
            catalog.tombstone_count,
            catalog.wal_records,
        )

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_refused_add_and_update_leave_no_trace(self, tmp_path, num_shards):
        catalog, graphs = durable_catalog(tmp_path, num_shards=num_shards)
        catalog.add_graph(random_database(SEED + 1, num_graphs=1).graphs[0])
        query = extract_query(graphs[0].skeleton, 3, rng=SEED)
        wal_path = tmp_path / "catalog" / wal_filename(0)

        def answers(target):
            return answer_tuples(
                target.query(
                    query,
                    PROBABILITY_THRESHOLD,
                    DISTANCE_THRESHOLD,
                    config=SEARCH_CONFIG,
                    rng=SEED,
                )
            )

        before = self.snapshot_of(catalog), wal_path.stat().st_size, answers(catalog)
        with pytest.raises(ConfigurationError, match=r"graph 50 .*33 edges"):
            catalog.add_graph(wide_factor_graph(33), external_id=50)
        with pytest.raises(ConfigurationError, match=r"graph 2 .*33 edges"):
            catalog.update_graph(2, wide_factor_graph(33))
        assert (self.snapshot_of(catalog), wal_path.stat().st_size, answers(catalog)) == before
        assert dict(catalog.live_items())[2] is graphs[2]  # the update removed nothing
        catalog.close()

        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert live_ids(recovered) == before[0][0]
        assert recovered.wal_records == before[0][4]
        assert answers(recovered) == before[2]
        # the refused id was never burnt, and the log still takes records
        assert recovered.add_graph(graphs[0]) == len(graphs) + 1
        recovered.close()

    def test_mutation_and_replay_never_construct_a_world_sampler(
        self, tmp_path, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the scalar WorldSampler was constructed by the catalog")

        monkeypatch.setattr(WorldSampler, "__init__", refuse)
        catalog, graphs = durable_catalog(tmp_path)
        pool = random_database(SEED + 1000, num_graphs=2).graphs
        added = catalog.add_graph(pool[0])
        catalog.update_graph(1, pool[1])
        catalog.close()
        recovered = GraphCatalog.open(tmp_path / "catalog")  # replays both records
        assert recovered.num_live + recovered.tombstone_count == len(graphs) + 2
        assert sorted(live_ids(recovered)) == [*range(len(graphs)), added]
        recovered.close()

    def test_a_closed_catalog_stays_durable(self, tmp_path):
        """``close()`` drops the planner and the log's handle, not the
        catalog: a mutation after it is logged, a second close is a no-op,
        and a reopen replays the mutation and answers as a rebuild."""
        catalog, graphs = durable_catalog(tmp_path)
        catalog.close()
        records = catalog.wal_records
        added = catalog.add_graph(random_database(SEED + 2, num_graphs=1).graphs[0])
        catalog.remove_graph(0)
        assert catalog.wal_records == records + 2
        catalog.close()
        catalog.close()
        recovered = GraphCatalog.open(tmp_path / "catalog")
        assert live_ids(recovered) == live_ids(catalog)
        assert added in live_ids(recovered) and 0 not in live_ids(recovered)
        query = extract_query(graphs[1].skeleton, 3, rng=SEED)
        assert_result_parity(
            recovered.query(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED
            ),
            rebuild_from_scratch(recovered).execute(
                query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
            ),
            "after close, mutate, reopen",
        )
        recovered.close()
