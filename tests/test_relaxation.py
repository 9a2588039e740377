"""Tests for relaxed query set generation (Lemma 1's U set)."""

from __future__ import annotations

import pytest

from repro.core import RelaxationConfig, relax_query
from repro.exceptions import QueryError
from repro.graphs import LabeledGraph
from repro.graphs.canonical import canonical_form


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


@pytest.fixture
def square_query():
    return build(
        {0: "a", 1: "b", 2: "a", 3: "b"},
        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 3, "x")],
    )


class TestBasicRelaxation:
    def test_zero_distance_returns_original(self, square_query):
        [only] = relax_query(square_query, 0)
        assert only == square_query

    def test_single_deletion_count(self, square_query):
        relaxed = relax_query(square_query, 1)
        # the square is vertex-label alternating, so the four 3-edge paths
        # collapse into fewer isomorphism classes but at least one remains
        assert 1 <= len(relaxed) <= 4
        assert all(r.num_edges == 3 for r in relaxed)

    def test_deleted_edges_exactly_delta(self, square_query):
        for delta in (1, 2, 3):
            relaxed = relax_query(square_query, delta)
            assert all(r.num_edges == square_query.num_edges - delta for r in relaxed)

    def test_results_are_deduplicated(self, square_query):
        relaxed = relax_query(square_query, 2)
        forms = [canonical_form(r) for r in relaxed]
        assert len(forms) == len(set(forms))

    def test_variants_are_ordered_by_canonical_form(self, square_query):
        """The output order is the sorted canonical strings (relax_query
        sorts the keys it already holds instead of recomputing them)."""
        pentagon_tail = build(
            {0: "a", 1: "b", 2: "a", 3: "c", 4: "b"},
            [(0, 1, "x"), (1, 2, "y"), (2, 3, "x"), (3, 4, "x"), (0, 4, "y"), (1, 3, "x")],
        )
        for query, delta in ((square_query, 2), (pentagon_tail, 1), (pentagon_tail, 2)):
            forms = [canonical_form(r) for r in relax_query(query, delta)]
            assert forms == sorted(forms)

    def test_isolated_vertices_dropped_by_default(self):
        star = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (0, 2, "x")])
        relaxed = relax_query(star, 1)
        for variant in relaxed:
            assert all(variant.degree(v) > 0 for v in variant.vertices())

    def test_isolated_vertices_kept_when_requested(self):
        star = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (0, 2, "x")])
        config = RelaxationConfig(drop_isolated_vertices=False)
        relaxed = relax_query(star, 1, config)
        assert any(variant.num_vertices == 3 for variant in relaxed)

    def test_connectivity_requirement(self):
        path = build(
            {0: "a", 1: "b", 2: "c", 3: "d"},
            [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
        )
        all_variants = relax_query(path, 1)
        connected_only = relax_query(path, 1, RelaxationConfig(require_connected=True))
        assert len(connected_only) <= len(all_variants)
        assert all(v.is_connected() for v in connected_only)

    def test_max_variants_cap(self, square_query):
        relaxed = relax_query(square_query, 2, RelaxationConfig(max_variants=2))
        assert len(relaxed) <= 2


class TestRelabelings:
    def test_relabel_variants_added(self):
        edge = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "x")])
        config = RelaxationConfig(include_relabelings=True)
        relaxed = relax_query(edge, 1, config, edge_label_alphabet=["x", "y"])
        # deletion variants have 1 edge; relabeled variants keep 2 edges
        assert any(v.num_edges == 2 for v in relaxed)
        assert any(v.num_edges == 1 for v in relaxed)


class TestValidation:
    def test_negative_distance_rejected(self, square_query):
        with pytest.raises(QueryError):
            relax_query(square_query, -1)

    def test_distance_as_large_as_query_rejected(self, square_query):
        with pytest.raises(QueryError):
            relax_query(square_query, square_query.num_edges)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            relax_query(LabeledGraph.from_edges({0: "a"}, []), 0)
