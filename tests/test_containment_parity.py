"""The plan's one pass over the features' embeddings in the query equals the
paths it replaced: ``f ⊆iso rq`` read off those embeddings is the join over
the stacked relaxed queries (``ProbabilisticPruner._containment_for`` without
a query), and the plan's count profile is ``query_profile(query)``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QueryPlanner, RelaxationConfig, SearchConfig, pruning, relax_query
from repro.core.pruning import ProbabilisticPruner
from repro.exceptions import QueryError
from repro.graphs import LabeledGraph
from repro.pmi import ProbabilisticMatrixIndex
from repro.pmi.features import Feature
from repro.structural.feature_index import SignaturePostings, StructuralFeatureIndex

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

def _graph(vertex_labels: str, edges) -> LabeledGraph:
    return LabeledGraph.from_edges(dict(enumerate(vertex_labels)), edges)


# single edges, multi-edge and automorphic patterns (equal-label 2-path,
# triangle), a 4-vertex path, and the two shapes the subset test must hand to
# the join: a feature without an edge and one with a vertex off every edge
FEATURES = [
    Feature(feature_id, graph)
    for feature_id, graph in enumerate(
        [
            _graph("aa", [(0, 1, "x")]),
            _graph("ab", [(0, 1, "x")]),
            _graph("bb", [(0, 1, "y")]),
            _graph("aaa", [(0, 1, "x"), (1, 2, "x")]),
            _graph("aba", [(0, 1, "x"), (1, 2, "y")]),
            _graph("aaa", [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")]),
            _graph("abab", [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")]),
            _graph("a", []),
            _graph("abb", [(0, 1, "x")]),
        ]
    )
]

RELAXATIONS = [RelaxationConfig(), RelaxationConfig(max_variants=2)]


def _index(embedding_limit: int) -> StructuralFeatureIndex:
    """A structural index over no graphs: the query-side methods only read
    the features and the limit."""
    return StructuralFeatureIndex.from_counts(
        FEATURES,
        np.zeros((0, len(FEATURES)), dtype=np.int32),
        SignaturePostings.build(()),
        embedding_limit=embedding_limit,
    )


@st.composite
def queries(draw):
    """Connected queries over two vertex and two edge labels: few labels, so
    features embed many times and automorphic images collide."""
    n = draw(st.integers(min_value=3, max_value=6))
    graph = LabeledGraph()
    for vertex in range(n):
        graph.add_vertex(vertex, draw(st.sampled_from("ab")))
    for vertex in range(1, n):
        graph.add_edge(
            draw(st.integers(min_value=0, max_value=vertex - 1)),
            vertex,
            draw(st.sampled_from("xy")),
        )
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and draw(st.integers(0, 3)) == 0:
                graph.add_edge(u, v, draw(st.sampled_from("xy")))
    return graph


class TestContainmentParity:
    @SETTINGS
    @given(
        query=queries(),
        delta=st.integers(min_value=0, max_value=2),
        relaxation=st.sampled_from(RELAXATIONS),
        embedding_limit=st.sampled_from([1, 2, 64]),
    )
    def test_embedding_path_equals_join_path(self, query, delta, relaxation, embedding_limit):
        delta = min(delta, query.num_edges - 1)
        relaxed = relax_query(query, delta, relaxation)
        pruner = ProbabilisticPruner(FEATURES)
        embeddings = _index(embedding_limit).query_embeddings(query)
        joined = pruner._containment_for(relaxed)
        assert pruner._containment_for(relaxed, query, embeddings) == joined
        assert pruner.prepare(relaxed, query, embeddings) == pruner.prepare(relaxed)

    @SETTINGS
    @given(
        query=queries(),
        delta=st.integers(min_value=0, max_value=2),
        relaxation=st.sampled_from(RELAXATIONS),
        embedding_limit=st.sampled_from([2, 64]),
    )
    def test_plan_equals_its_parts(self, query, delta, relaxation, embedding_limit):
        """``plan()`` carries the profile
        ``query_profile(query)`` returns and the relations the one-argument
        ``prepare`` derives from the relaxed set alone."""
        index = _index(embedding_limit)
        planner = QueryPlanner([], ProbabilisticMatrixIndex().build([], features=FEATURES), index)
        delta = min(delta, query.num_edges - 1)
        plan = planner.plan(query, 0.5, delta, SearchConfig(relaxation=relaxation))
        assert plan.profile == index.query_profile(query)
        assert plan.containment == planner.pruner.prepare(plan.relaxed_queries)
        top_k = planner.plan_top_k(query, 2, delta, SearchConfig(relaxation=relaxation))
        assert (top_k.profile, top_k.containment) == (plan.profile, plan.containment)


class TestFallbacks:
    """Each reason to leave the subset test is exercised, not just permitted."""

    QUERY = _graph("aaaa", [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 2, "x")])

    def _joins(self, monkeypatch, relaxed, query, embeddings) -> list[int]:
        """Feature ids that went through ``match_block`` against the relaxed set."""
        patterns = []
        original = pruning.match_block

        def spy(pattern, graphs, *args, **kwargs):
            patterns.append(pattern)
            return original(pattern, graphs, *args, **kwargs)

        pruner = ProbabilisticPruner(FEATURES)
        with monkeypatch.context() as patch:
            patch.setattr(pruning, "match_block", spy)
            got = pruner._containment_for(relaxed, query, embeddings)
        assert got == pruner._containment_for(relaxed)
        return [f.feature_id for f in FEATURES if any(f.graph is p for p in patterns)]

    def test_only_uncovered_features_join_a_deletion_set(self, monkeypatch):
        relaxed = relax_query(self.QUERY, 1)
        embeddings = _index(64).query_embeddings(self.QUERY)
        assert not any(found.truncated for found in embeddings.values())
        # the edgeless feature and the one with an isolated vertex
        assert self._joins(monkeypatch, relaxed, self.QUERY, embeddings) == [7, 8]

    def test_truncated_features_join(self, monkeypatch):
        relaxed = relax_query(self.QUERY, 1)
        embeddings = _index(1).query_embeddings(self.QUERY)
        truncated = [fid for fid, found in embeddings.items() if found.truncated]
        assert truncated == [0, 3]  # 4 x-edges between a's, several 2-paths over them
        assert self._joins(monkeypatch, relaxed, self.QUERY, embeddings) == [0, 3, 7, 8]

    def test_a_relabeled_variant_is_refused(self):
        """A relaxed set is ``q`` minus edges; a relabeling is no member of it."""
        relabeled = self.QUERY.copy()
        relabeled.remove_edge(0, 2)
        relabeled.add_edge(0, 2, "y")
        embeddings = _index(64).query_embeddings(self.QUERY)
        with pytest.raises(QueryError, match="minus some edges"):
            ProbabilisticPruner(FEATURES)._containment_for([relabeled], self.QUERY, embeddings)

    def test_missing_embeddings_join(self, monkeypatch):
        relaxed = relax_query(self.QUERY, 1)
        assert self._joins(monkeypatch, relaxed, self.QUERY, {}) == list(range(9))


class TestSuperOfGuard:
    def test_a_variant_with_too_many_vertices_is_not_joined(self, monkeypatch):
        """A 3-edge path has 4 vertices: no 3-vertex feature can contain it,
        whatever its edge count allows."""
        features = [f for f in FEATURES if f.num_vertices <= 3]
        pruner = ProbabilisticPruner(features)
        assert (pruner._max_feature_edges, pruner._max_feature_vertices) == (3, 3)
        path = _graph("aaaa", [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")])
        triangle = _graph("aaa", [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])

        def refuse(*args, **kwargs):
            raise AssertionError("joined a variant no feature can hold")

        with monkeypatch.context() as patch:
            patch.setattr(pruning, "match_block", refuse)
            assert pruner._features_containing(path) == [False] * len(features)
        assert pruner._features_containing(triangle) == [
            f.feature_id == 5 for f in features
        ]


def test_is_subgraph_of_is_identity_on_ids_and_labels():
    query = _graph("aab", [(0, 1, "x"), (1, 2, "y")])
    kept = query.copy()
    kept.remove_edge(1, 2)
    assert kept.is_subgraph_of(query) and not query.is_subgraph_of(kept)
    kept.remove_isolated_vertices()
    assert kept.is_subgraph_of(query)
    relabeled = kept.copy()
    relabeled.add_edge(0, 1, "y")
    assert not relabeled.is_subgraph_of(query)
    moved = _graph("ab", [(0, 1, "y")])  # isomorphic to an edge of query, other ids
    assert not moved.is_subgraph_of(query)
