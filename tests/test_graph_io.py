"""Tests for graph serialization."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import GraphError
from repro.graphs import LabeledGraph, io
from repro.reference import enumerate_possible_worlds


class TestLabeledGraphIO:
    def test_round_trip(self, tmp_path):
        graph = LabeledGraph.from_edges(
            {1: "a", 2: "b", 3: "c"}, [(1, 2, "x"), (2, 3, "y")], name="toy"
        )
        payload = io.labeled_graph_to_dict(graph)
        rebuilt = io.labeled_graph_from_dict(payload)
        assert rebuilt == graph
        assert rebuilt.name == "toy"

    def test_wrong_payload_type(self):
        with pytest.raises(GraphError):
            io.labeled_graph_from_dict({"type": "something-else"})

    @pytest.mark.parametrize("key, entry", [("vertices", [1, "z"]), ("edges", [2, 1, "z"])])
    def test_an_element_named_twice_is_refused(self, key, entry):
        """Not read as its last occurrence: (2, 1) is the edge (1, 2) again."""
        graph = LabeledGraph.from_edges({1: "a", 2: "b"}, [(1, 2, "x")])
        payload = io.labeled_graph_to_dict(graph)
        payload[key].append(entry)
        with pytest.raises(GraphError, match="twice"):
            io.labeled_graph_from_dict(payload)


class TestProbabilisticGraphIO:
    def test_round_trip_preserves_distribution(self, triangle_graph_001, tmp_path):
        payload = io.probabilistic_graph_to_dict(triangle_graph_001)
        rebuilt = io.probabilistic_graph_from_dict(payload)
        assert rebuilt.skeleton == triangle_graph_001.skeleton
        original_worlds = {
            w.present_edges(): w.probability for w in enumerate_possible_worlds(triangle_graph_001)
        }
        rebuilt_worlds = {
            w.present_edges(): w.probability for w in enumerate_possible_worlds(rebuilt)
        }
        assert set(original_worlds) == set(rebuilt_worlds)
        for key, value in original_worlds.items():
            assert rebuilt_worlds[key] == pytest.approx(value)

    def test_database_round_trip(self, triangle_graph_001, overlap_graph_002, tmp_path):
        path = tmp_path / "db.json"
        io.save_database([triangle_graph_001, overlap_graph_002], path)
        loaded = io.load_database(path)
        assert len(loaded) == 2
        assert loaded[0].skeleton == triangle_graph_001.skeleton
        assert loaded[1].skeleton == overlap_graph_002.skeleton

    def test_wrong_database_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "nope"}')
        with pytest.raises(GraphError):
            io.load_database(path)

    def test_save_load_is_the_identity(self, triangle_graph_001, tmp_path):
        """Reserializing a loaded graph must reproduce the stored bytes.

        Regression test: load used to renormalize every factor table by its
        float total (1.0 ± ulp), so each save/load cycle drifted the
        distribution by 1 ulp and repeated snapshot/recovery cycles never
        converged on a fixed point.
        """
        first = io.probabilistic_graph_to_dict(triangle_graph_001)
        second = io.probabilistic_graph_to_dict(io.probabilistic_graph_from_dict(first))
        assert first == second

    def test_denormalized_table_is_rescaled_on_load(self, triangle_graph_001):
        payload = io.probabilistic_graph_to_dict(triangle_graph_001)
        for row in payload["factors"][0]["table"]:
            row[1] *= 3.0
        rebuilt = io.probabilistic_graph_from_dict(payload)
        assert rebuilt.factors[0].jpt.total() == pytest.approx(1.0)


class TestFormatVersioning:
    """Unknown ``version`` stamps must fail loudly, not deserialize garbage."""

    def test_load_database_rejects_unknown_version(self, triangle_graph_001, tmp_path):
        path = tmp_path / "db.json"
        io.save_database([triangle_graph_001], path)
        payload = json.loads(path.read_text())
        payload["version"] = io.FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphError, match="unsupported .* format version"):
            io.load_database(path)

    def test_load_database_rejects_missing_version(self, triangle_graph_001, tmp_path):
        path = tmp_path / "db.json"
        io.save_database([triangle_graph_001], path)
        payload = json.loads(path.read_text())
        del payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphError, match="unsupported .* format version"):
            io.load_database(path)

    def test_nested_graph_dict_rejects_inconsistent_version(self, triangle_graph_001):
        payload = io.probabilistic_graph_to_dict(triangle_graph_001)
        payload["version"] = io.FORMAT_VERSION + 1
        with pytest.raises(GraphError, match="unsupported .* format version"):
            io.probabilistic_graph_from_dict(payload)

    def test_nested_graph_dict_tolerates_absent_version(self, triangle_graph_001):
        # hand-built dicts without a stamp must keep loading (compatibility)
        payload = io.probabilistic_graph_to_dict(triangle_graph_001)
        del payload["version"]
        rebuilt = io.probabilistic_graph_from_dict(payload)
        assert rebuilt.skeleton == triangle_graph_001.skeleton
