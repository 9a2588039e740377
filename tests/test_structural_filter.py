"""Tests for the structural (deterministic) pruning stage (Theorem 1)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.catalog import GraphCatalog
from repro.datasets import extract_query
from repro.exceptions import ConfigurationError, StateError
from repro.graphs.labeled_graph import LabeledGraph
from repro.pmi import BoundConfig, FeatureMiner, FeatureSelectionConfig
from repro.reference import is_subgraph_similar, signature_distance_lower_bound
from repro.structural import StructuralFeatureIndex, StructuralFilter
from repro.structural.feature_index import SignaturePostings

from tests.conftest import assert_signature_segment_matches_live_graphs


@pytest.fixture(scope="module")
def structural_setup(small_ppi_database):
    skeletons = [graph.skeleton for graph in small_ppi_database.graphs]
    features = FeatureMiner(
        FeatureSelectionConfig(alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12)
    ).mine(small_ppi_database.graphs)
    index = StructuralFeatureIndex().build(skeletons, features)
    return index, skeletons, small_ppi_database


class TestFeatureIndex:
    def test_counts_are_nonnegative(self, structural_setup):
        index, skeletons, _ = structural_setup
        counts = index.counts_matrix()
        assert counts.shape == (len(skeletons), len(index.features))
        assert (counts >= 0).all() and counts.any()

    def test_query_profile_shape(self, structural_setup):
        index, skeletons, _ = structural_setup
        query = extract_query(skeletons[0], 4, rng=3)
        profile = index.query_profile(query)
        for stats in profile.values():
            assert stats["count"] >= 1
            assert stats["max_hits_per_edge"] >= 1

    def test_unbuilt_filter_rejected(self):
        with pytest.raises(StateError):
            StructuralFilter(StructuralFeatureIndex())

    def test_subset_counts_match_source_rows(self, structural_setup):
        index, _, _ = structural_setup
        sub = index.subset(range(2, 5))
        assert sub.num_graphs == 3
        assert [f.feature_id for f in sub.features] == [f.feature_id for f in index.features]
        assert np.array_equal(sub.counts_matrix(), index.counts_matrix()[2:5])

    def test_subset_rejects_unknown_or_unbuilt(self, structural_setup):
        index, _, _ = structural_setup
        with pytest.raises(ValueError):
            index.subset([0, 9999])
        with pytest.raises(StateError):
            StructuralFeatureIndex().subset([0])


class TestFilterSoundness:
    def test_source_graph_survives(self, structural_setup):
        """A query extracted from graph i must keep graph i as a candidate."""
        index, skeletons, _ = structural_setup
        structural_filter = StructuralFilter(index)
        for source in range(3):
            query = extract_query(skeletons[source], 4, rng=source + 10)
            result = structural_filter.filter(query, distance_threshold=1)
            assert source in result.candidate_ids

    def test_no_false_dismissals(self, structural_setup):
        """Any graph that is truly subgraph-similar must never be pruned."""
        index, skeletons, _ = structural_setup
        structural_filter = StructuralFilter(index)
        query = extract_query(skeletons[1], 4, rng=21)
        result = structural_filter.filter(query, distance_threshold=2)
        pruned = set(result.pruned_ids)
        for graph_id, skeleton in enumerate(skeletons):
            if graph_id in pruned:
                assert not is_subgraph_similar(query, skeleton, 2)

    def test_candidates_and_pruned_partition_database(self, structural_setup):
        index, skeletons, _ = structural_setup
        structural_filter = StructuralFilter(index)
        query = extract_query(skeletons[2], 5, rng=4)
        result = structural_filter.filter(query, distance_threshold=1)
        assert sorted(result.candidate_ids + result.pruned_ids) == list(range(len(skeletons)))
        assert not set(result.candidate_ids) & set(result.pruned_ids)
        assert result.seconds >= 0.0

    def test_larger_threshold_prunes_no_more(self, structural_setup):
        index, skeletons, _ = structural_setup
        structural_filter = StructuralFilter(index)
        query = extract_query(skeletons[0], 5, rng=17)
        tight = structural_filter.filter(query, distance_threshold=1)
        loose = structural_filter.filter(query, distance_threshold=3)
        assert set(tight.candidate_ids) <= set(loose.candidate_ids)



# ----------------------------------------------------------------------
# the signature segment against the scalar oracle
# ----------------------------------------------------------------------
# few labels, of types that neither order nor compare with one another: equal
# signatures repeat inside a graph (multiplicity > 1) and only ``repr`` sorts them
VERTEX_LABELS = ["a", "b", 1, (1, "a"), None, 1.5]
EDGE_LABELS = ["x", 0, None]


@st.composite
def labeled_graphs(draw, min_edges=0, vertex_labels=VERTEX_LABELS):
    vertices = draw(st.integers(min_value=2 if min_edges else 0, max_value=6))
    graph = LabeledGraph()
    for vertex in range(vertices):
        graph.add_vertex(vertex, draw(st.sampled_from(vertex_labels)))
    pairs = list(combinations(range(vertices), 2))
    edges = st.lists(st.sampled_from(pairs), min_size=min_edges, unique=True)
    for u, v in draw(edges) if pairs else []:
        graph.add_edge(u, v, draw(st.sampled_from(EDGE_LABELS)))
    return graph


def oracle_missing(query, skeletons) -> list[int]:
    return [signature_distance_lower_bound(query, skeleton) for skeleton in skeletons]


def loop_filter_mask(index, skeletons, query, delta, active) -> np.ndarray:
    """``filter_mask`` as it ran before the signature segment: the deficit
    mask, then the scalar bound per survivor."""
    keep = ~index.deficit_prunable_mask(index.query_profile(query), delta) & active
    for graph_id in np.flatnonzero(keep):
        if signature_distance_lower_bound(query, skeletons[graph_id]) > delta:
            keep[graph_id] = False
    return keep


class TestSignatureSegment:
    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_signature_missing_equals_the_scalar_bound(self, data):
        """Over a whole index, a ``subset`` of it and ``concat_rows`` of two
        halves; the query may carry a signature no graph has (label
        ``"only in q"``)."""
        skeletons = data.draw(st.lists(labeled_graphs(), min_size=0, max_size=7))
        query = data.draw(labeled_graphs(min_edges=1, vertex_labels=[*VERTEX_LABELS, "only in q"]))
        index = StructuralFeatureIndex().build(skeletons, [])
        assert index.signature_missing(query).tolist() == oracle_missing(query, skeletons)

        some_rows = st.lists(st.sampled_from(range(len(skeletons))), max_size=8)
        rows = data.draw(some_rows) if skeletons else []
        picked = [skeletons[row] for row in rows]
        assert index.subset(rows).signature_missing(query).tolist() == oracle_missing(query, picked)

        split = data.draw(st.integers(min_value=0, max_value=len(skeletons)))
        stacked = StructuralFeatureIndex.concat_rows(
            [
                StructuralFeatureIndex().build(skeletons[:split], []),
                StructuralFeatureIndex().build(skeletons[split:], []),
            ]
        )
        assert stacked.signature_missing(query).tolist() == oracle_missing(query, skeletons)

        # tombstoned rows stay indexed; ``active`` masks them out of the answer
        flags = st.lists(st.booleans(), min_size=len(skeletons), max_size=len(skeletons))
        active = np.array(data.draw(flags), dtype=bool)
        for delta in (0, 1, 2):
            got = StructuralFilter(stacked).filter_mask(query, delta, active=active)
            want = loop_filter_mask(stacked, skeletons, query, delta, active)
            assert got.tolist() == want.tolist(), delta

    def test_filter_mask_equals_the_loop_over_mined_features(self, structural_setup):
        index, skeletons, _ = structural_setup
        everyone = np.ones(len(skeletons), dtype=bool)
        for source in range(4):
            query = extract_query(skeletons[source], 5, rng=source)
            for delta in (0, 1, 2):
                got = StructuralFilter(index).filter_mask(query, delta)
                want = loop_filter_mask(index, skeletons, query, delta, everyone)
                assert got.tolist() == want.tolist(), (source, delta)

    def test_catalog_rows_stay_indexed_through_mutations(self, small_ppi_database):
        """Appended rows join the segment, tombstoned rows stay in it, and
        after every mutation and ``compact()`` it equals a fresh build over
        every storage row."""
        graphs = small_ppi_database.graphs
        catalog = GraphCatalog.build(
            graphs[:6],
            feature_config=FeatureSelectionConfig(max_vertices=3, max_features=8),
            bound_config=BoundConfig(num_samples=20),
            rng=5,
        )
        for mutate in (
            lambda: catalog.add_graph(graphs[6]),
            lambda: catalog.update_graph(2, graphs[7]),
            lambda: catalog.remove_graph(5),
        ):
            mutate()
            assert_signature_segment_matches_live_graphs(catalog)
        queries = [extract_query(graphs[source].skeleton, 4, rng=source) for source in (2, 6, 7)]
        for compacted in (False, True):
            view = catalog.planner()
            assert compacted or not view.active_mask.all()
            assert view.structural_index is catalog._store.structural
            assert view.structural_index.num_graphs == len(view.graphs) == 8 - 2 * compacted
            skeletons = [graph.skeleton for graph in view.graphs]
            for query in queries:
                assert view.structural_index.signature_missing(
                    query
                ).tolist() == oracle_missing(query, skeletons)
            catalog.compact()
        catalog.close()

    def test_from_counts_refuses_signatures_over_other_rows(self, structural_setup):
        index, skeletons, _ = structural_setup
        counts = index.counts_matrix()
        for rows in (skeletons[:-1], [*skeletons, skeletons[0]], []):
            with pytest.raises(ConfigurationError, match="signature postings cover"):
                StructuralFeatureIndex.from_counts(
                    index.features, counts, SignaturePostings.build(rows)
                )
        restored = StructuralFeatureIndex.from_counts(
            index.features, counts, SignaturePostings.build(skeletons)
        )
        for query in skeletons[:3]:
            assert np.array_equal(restored.signature_missing(query), index.signature_missing(query))
