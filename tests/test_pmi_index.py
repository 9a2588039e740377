"""Tests for the Probabilistic Matrix Index."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, IndexError_
from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph
from repro.isomorphism import is_subgraph_isomorphic
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.probability import JointProbabilityTable
from repro.reference import WorldSampler
from repro.utils.atomic_io import atomic_write_text, atomic_writer

from tests.conftest import assert_same_cells


@pytest.fixture(scope="module")
def built_index(small_ppi_database):
    index = ProbabilisticMatrixIndex(
        feature_config=FeatureSelectionConfig(
            alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
        ),
        bound_config=BoundConfig(num_samples=80),
    )
    index.build(small_ppi_database.graphs, rng=5)
    return index, small_ppi_database


class TestBuild:
    def test_requires_build_before_lookup(self):
        index = ProbabilisticMatrixIndex()
        with pytest.raises(IndexError_):
            index.row(0)
        with pytest.raises(IndexError_):
            index.rows([0])

    def test_build_fills_rows_for_every_graph(self, built_index):
        index, database = built_index
        rows = index.rows(range(len(database.graphs)))
        assert [row.graph_id for row in rows] == list(range(len(database.graphs)))
        for row in rows:
            assert row.present.shape == row.lower.shape == (index.num_features,)
            assert row.feature_ids.tolist() == [f.feature_id for f in index.features]

    def test_non_empty_cells_only_for_contained_features(self, built_index):
        index, database = built_index
        cells = list(zip(*np.nonzero(index._present)))
        assert cells
        for graph_id, column in cells[:30]:
            skeleton = database.graphs[graph_id].skeleton
            assert is_subgraph_isomorphic(index.features[column].graph, skeleton)

    def test_bounds_are_valid_probability_intervals(self, built_index):
        index, database = built_index
        for row in index.rows(range(len(database.graphs))):
            for column in np.flatnonzero(row.present):
                lower, upper = row.interval(column)
                assert 0.0 <= lower <= upper <= 1.0
            # an empty cell holds no interval
            assert not row.lower[~row.present].any() and not row.upper[~row.present].any()

    def test_unknown_graph_or_feature(self, built_index):
        index, _ = built_index
        with pytest.raises(IndexError_):
            index.row(9999)
        with pytest.raises(IndexError_):
            index.rows([0, 9999])
        assert 9999 not in index.row(0).feature_ids

    def test_summary_and_size(self, built_index):
        index, database = built_index
        summary = index.summary()
        assert summary["database_size"] == len(database.graphs)
        assert summary["num_features"] == index.num_features
        assert summary["index_bytes"] > 0
        assert summary["build_seconds"] >= 0.0

    def test_build_with_precomputed_features(self, built_index, small_ppi_database):
        index, _ = built_index
        other = ProbabilisticMatrixIndex(bound_config=BoundConfig(num_samples=40))
        other.build(small_ppi_database.graphs, features=index.features, rng=1)
        assert other.num_features == index.num_features

    def test_repr(self, built_index):
        index, _ = built_index
        assert "built" in repr(index)


def wide_factor_graph(width: int = 33) -> ProbabilisticGraph:
    """A star whose one sparse JPT spans ``width`` edges — more slots than a
    batch-sampler conditioning pattern can code."""
    skeleton = LabeledGraph(name="wide")
    skeleton.add_vertex(0, "hub")
    for leaf in range(1, width + 1):
        skeleton.add_vertex(leaf, "leaf")
        skeleton.add_edge(0, leaf, "e")
    edges = tuple((0, leaf) for leaf in range(1, width + 1))
    table = {(0,) * width: 0.4, (1,) * width: 0.6}
    factor = NeighborEdgeFactor(edges, JointProbabilityTable(edges, table))
    return ProbabilisticGraph(skeleton, [factor], name="wide")


class TestCellPurity:
    """One world batch per row makes a cell a function of (root, stable id,
    graph, feature) alone."""

    def cells(self, index, num_graphs):
        return {
            (row.graph_id, feature.canonical): row.interval(column) if row.present[column] else None
            for row in index.rows(range(num_graphs))
            for column, feature in enumerate(index.features)
        }

    @pytest.mark.parametrize(
        "reorder",
        [lambda f: f[::-1], lambda f: f[::2], lambda f: f[3:4], lambda f: f[5:] + f[:5]],
        ids=["reversed", "every-other", "single", "rotated"],
    )
    def test_cells_ignore_which_features_share_the_row(self, built_index, reorder):
        index, database = built_index
        expected = self.cells(index, len(database.graphs))
        features = reorder(index.features)
        other = ProbabilisticMatrixIndex(bound_config=index.bound_config).build(
            database.graphs, features=features, rng=5
        )
        assert other.num_features == len(features) > 0
        for key, bounds in self.cells(other, len(database.graphs)).items():
            assert bounds == expected[key], key  # bit-equal intervals, or both empty

    def test_cells_follow_the_stable_id_not_the_row(self, built_index):
        index, database = built_index
        moved = ProbabilisticMatrixIndex(bound_config=index.bound_config).build(
            database.graphs[::-1],
            features=index.features,
            rng=5,
            graph_ids=range(len(database.graphs) - 1, -1, -1),
        )
        assert_same_cells(moved.subset(range(len(database.graphs) - 1, -1, -1)), index)


class TestScalarSamplerIsOutOfTheBuild:
    def test_build_and_append_never_construct_a_world_sampler(
        self, small_ppi_database, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the scalar WorldSampler was constructed by an index build")

        monkeypatch.setattr(WorldSampler, "__init__", refuse)
        graphs = small_ppi_database.graphs
        base = ProbabilisticMatrixIndex(
            feature_config=FeatureSelectionConfig(max_vertices=3, max_features=8),
            bound_config=BoundConfig(num_samples=30),
        ).build(graphs[:6], rng=5, graph_ids=range(6))
        # a grown index: the new rows built against the base's features, stacked on
        tail = ProbabilisticMatrixIndex(base.feature_config, base.bound_config).build(
            graphs[6:], features=base.features, rng=5, graph_ids=range(6, len(graphs))
        )
        index = ProbabilisticMatrixIndex.concat_rows([base, tail])
        assert index.num_graphs == len(graphs)
        assert index._present.any()


class TestRefusedGraphs:
    """A factor wider than the batch sampler's pattern code is a typed error
    naming the graph and the width."""

    def test_build_names_graph_id_and_factor_width(self, built_index):
        index, database = built_index
        graphs = [*database.graphs[:2], wide_factor_graph(33)]
        with pytest.raises(ConfigurationError, match=r"graph 41 .*33 edges"):
            ProbabilisticMatrixIndex(bound_config=BoundConfig(num_samples=10)).build(
                graphs, features=index.features, rng=5, graph_ids=[40, 7, 41]
            )


class TestRowViews:
    def test_row_rejects_unknown_graph(self, built_index):
        index, _ = built_index
        with pytest.raises(IndexError_):
            index.row(9999)


def assert_rows_moved(sub, index, old_ids) -> None:
    """Row ``k`` of ``sub`` holds the cells of ``index``'s row ``old_ids[k]``."""
    assert sub.num_graphs == len(old_ids)
    assert np.array_equal(sub._feature_ids, index._feature_ids)
    for name in ("_lower", "_upper", "_present"):
        assert np.array_equal(getattr(sub, name), getattr(index, name)[list(old_ids)]), name


class TestSubset:
    def test_subset_rows_match_source(self, built_index):
        index, _ = built_index
        sub = index.subset(range(2, 6))
        assert sub.num_features == index.num_features
        assert_rows_moved(sub, index, range(2, 6))

    def test_subset_accepts_arbitrary_id_lists(self, built_index):
        index, _ = built_index
        assert_rows_moved(index.subset([5, 1, 3]), index, [5, 1, 3])

    def test_subset_rejects_unknown_ids(self, built_index):
        index, _ = built_index
        with pytest.raises(IndexError_):
            index.subset([0, 9999])

    def test_subset_requires_built(self):
        with pytest.raises(IndexError_):
            ProbabilisticMatrixIndex().subset([0])

    def test_slice_save_load_roundtrip_equals_slicing_loaded_full(
        self, built_index, tmp_path
    ):
        """save(subset) → load == load(save(full)) → subset: the shard slice
        persistence path and the slice-a-loaded-index path must agree."""
        index, _ = built_index
        ids = range(1, 5)

        index.subset(ids).save(tmp_path / "slice")
        loaded_slice = ProbabilisticMatrixIndex.load(tmp_path / "slice")

        index.save(tmp_path / "full")
        sliced_loaded = ProbabilisticMatrixIndex.load(tmp_path / "full").subset(ids)

        assert_same_cells(loaded_slice, sliced_loaded)
        assert loaded_slice.num_graphs == sliced_loaded.num_graphs == 4
        assert [f.canonical for f in loaded_slice.features] == [
            f.canonical for f in sliced_loaded.features
        ]


class TestPersistence:
    def test_round_trip_preserves_everything(self, built_index, tmp_path):
        index, _ = built_index
        index.save(tmp_path / "pmi")
        loaded = type(index).load(tmp_path / "pmi")
        assert_same_cells(loaded, index)
        assert loaded.summary() == index.summary()
        assert loaded.feature_config == index.feature_config
        assert loaded.bound_config == index.bound_config
        assert loaded.build_root == index.build_root
        for restored, feature in zip(loaded.features, index.features, strict=True):
            assert restored.feature_id == feature.feature_id
            assert restored.canonical == feature.canonical
            assert restored.support == feature.support

    def test_version_1_payload_loads_with_the_cells_of_a_fresh_build(
        self, built_index, tmp_path
    ):
        """A version-1 directory also holds per-cell embedding and cut counts
        and a chosen-set table; ``load`` skips them and keeps the cells."""
        index, database = built_index
        directory = tmp_path / "pmi"
        index.save(directory)
        shape = index._present.shape
        with atomic_writer(directory / "pmi_arrays.npz") as handle:
            np.savez_compressed(
                handle,
                lower=index._lower,
                upper=index._upper,
                present=index._present,
                num_embeddings=np.ones(shape, dtype=np.int32),
                num_cuts=np.ones(shape, dtype=np.int32),
                feature_ids=index._feature_ids,
            )
        meta = json.loads((directory / "pmi_meta.json").read_text())
        meta.update(version=1, database_size=shape[0], chosen={"0:0": [[0, 2], [1]]})
        atomic_write_text(directory / "pmi_meta.json", json.dumps(meta))

        loaded = ProbabilisticMatrixIndex.load(directory)
        fresh = ProbabilisticMatrixIndex(
            feature_config=index.feature_config, bound_config=index.bound_config
        ).build(database.graphs, rng=5)
        assert_same_cells(loaded, fresh)
        assert loaded.build_root == fresh.build_root

    def test_saves_format_version_2_without_the_diagnostics(self, built_index, tmp_path):
        index, _ = built_index
        index.save(tmp_path / "pmi")
        meta = json.loads((tmp_path / "pmi" / "pmi_meta.json").read_text())
        assert meta["version"] == 2
        assert "chosen" not in meta and "database_size" not in meta
        with np.load(tmp_path / "pmi" / "pmi_arrays.npz") as arrays:
            assert sorted(arrays.files) == ["feature_ids", "lower", "present", "upper"]

    def test_save_requires_built(self, tmp_path):
        from repro.pmi import ProbabilisticMatrixIndex

        with pytest.raises(IndexError_):
            ProbabilisticMatrixIndex().save(tmp_path / "pmi")


class TestCorruptPayloadDiagnostics:
    """Torn or damaged PMI files must raise an error that names the file and
    points at recovery, not a bare decoder traceback."""

    def saved(self, built_index, tmp_path):
        index, _ = built_index
        index.save(tmp_path / "pmi")
        return tmp_path / "pmi", type(index)

    def test_missing_directory(self, built_index, tmp_path):
        _, cls = self.saved(built_index, tmp_path)
        with pytest.raises(IndexError_, match="no persisted PMI"):
            cls.load(tmp_path / "absent")

    def test_corrupt_metadata_names_the_file(self, built_index, tmp_path):
        directory, cls = self.saved(built_index, tmp_path)
        (directory / "pmi_meta.json").write_bytes(b'{"type": "probabilistic_mat')
        with pytest.raises(IndexError_, match="corrupt PMI metadata") as exc:
            cls.load(directory)
        assert "pmi_meta.json" in str(exc.value)
        assert "snapshot" in str(exc.value)

    def test_truncated_arrays_name_the_file(self, built_index, tmp_path):
        directory, cls = self.saved(built_index, tmp_path)
        arrays = directory / "pmi_arrays.npz"
        arrays.write_bytes(arrays.read_bytes()[: arrays.stat().st_size // 2])
        with pytest.raises(IndexError_, match="corrupt PMI arrays") as exc:
            cls.load(directory)
        assert "pmi_arrays.npz" in str(exc.value)
        assert "snapshot" in str(exc.value)

    def test_garbage_arrays_name_the_file(self, built_index, tmp_path):
        directory, cls = self.saved(built_index, tmp_path)
        (directory / "pmi_arrays.npz").write_bytes(b"this is not a zip archive")
        with pytest.raises(IndexError_, match="corrupt PMI arrays"):
            cls.load(directory)

    def test_unsupported_version(self, built_index, tmp_path):
        import json

        directory, cls = self.saved(built_index, tmp_path)
        meta_path = directory / "pmi_meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = meta["version"] + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexError_, match="unsupported PMI format version"):
            cls.load(directory)
