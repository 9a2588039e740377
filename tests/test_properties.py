"""Property-based tests (hypothesis) for the core data structures and
invariants: factor algebra, possible-world measures, canonical forms,
subgraph isomorphism and the SIP/SSP bound orderings."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph, ProbabilisticGraph
from repro.graphs.canonical import canonical_form
from repro.isomorphism import is_subgraph_isomorphic
from repro.pmi import BoundConfig, compute_sip_bounds
from repro.probability import Factor, JointProbabilityTable
from repro.reference import (
    enumerate_possible_worlds,
    exact_sip,
    subgraph_distance,
    total_world_mass,
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

probabilities = st.floats(min_value=0.05, max_value=0.95)
labels = st.sampled_from(["a", "b", "c"])
edge_labels = st.sampled_from(["x", "y"])


@st.composite
def small_labeled_graphs(draw, min_vertices=2, max_vertices=6):
    """Connected-ish random labeled graphs with at least one edge."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    vertex_labels = [draw(labels) for _ in range(n)]
    graph = LabeledGraph()
    for index, label in enumerate(vertex_labels):
        graph.add_vertex(index, label)
    # spanning path guarantees an edge and connectivity
    for index in range(1, n):
        graph.add_edge(index - 1, index, draw(edge_labels))
    extra_pairs = [(u, v) for u in range(n) for v in range(u + 2, n)]
    for u, v in extra_pairs:
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(edge_labels))
    return graph


@st.composite
def small_probabilistic_graphs(draw, max_vertices=5):
    skeleton = draw(small_labeled_graphs(max_vertices=max_vertices))
    correlation = draw(st.sampled_from(["independent", "max"]))
    probs = {key: draw(probabilities) for key in skeleton.edge_keys()}
    return ProbabilisticGraph.from_edge_probabilities(skeleton, probs, correlation=correlation)


class TestFactorProperties:
    @SETTINGS
    @given(st.dictionaries(st.sampled_from(list("abcde")), probabilities, min_size=1, max_size=4))
    def test_independent_jpt_preserves_marginals(self, marginals):
        jpt = JointProbabilityTable.from_independent_marginals(marginals)
        for variable, probability in marginals.items():
            assert jpt.edge_marginal(variable) == pytest.approx(probability)

    @SETTINGS
    @given(
        st.dictionaries(st.sampled_from(list("abcd")), probabilities, min_size=1, max_size=3),
        st.dictionaries(st.sampled_from(list("wxyz")), probabilities, min_size=1, max_size=3),
    )
    def test_product_of_normalized_disjoint_factors_is_normalized(self, m1, m2):
        f1 = JointProbabilityTable.from_independent_marginals(m1)
        f2 = JointProbabilityTable.from_independent_marginals(m2)
        assert (f1 * f2).total() == pytest.approx(1.0)

    @SETTINGS
    @given(st.dictionaries(st.sampled_from(list("abcd")), probabilities, min_size=2, max_size=4))
    def test_marginalization_is_order_independent(self, marginals):
        jpt = JointProbabilityTable.from_max_dominance(marginals)
        variables = list(marginals)
        forward = jpt.marginalize(variables[:1]).marginalize(variables[1:2])
        backward = jpt.marginalize(variables[1:2]).marginalize(variables[:1])
        assert forward == backward

    @SETTINGS
    @given(st.lists(probabilities, min_size=1, max_size=5))
    def test_bernoulli_product_total_is_one(self, values):
        product = Factor.unit()
        for index, p in enumerate(values):
            product = product * Factor.from_bernoulli(f"v{index}", p)
        assert product.total() == pytest.approx(1.0)


class TestWorldMeasureProperties:
    @SETTINGS
    @given(small_probabilistic_graphs())
    def test_world_probabilities_sum_to_one(self, graph):
        worlds = enumerate_possible_worlds(graph)
        assert sum(w.probability for w in worlds) == pytest.approx(1.0)
        assert all(w.probability >= 0 for w in worlds)

    @SETTINGS
    @given(small_probabilistic_graphs())
    def test_partitioned_graphs_have_unit_raw_mass(self, graph):
        if graph.is_edge_partition():
            assert total_world_mass(graph) == pytest.approx(1.0)

    @SETTINGS
    @given(small_probabilistic_graphs())
    def test_edge_marginal_matches_enumeration(self, graph):
        if not graph.is_edge_partition():
            return
        key = graph.edge_variables()[0]
        expected = sum(
            w.probability for w in enumerate_possible_worlds(graph) if key in w.present_edges()
        )
        assert graph.edge_marginal(key) == pytest.approx(expected)


class TestCanonicalFormProperties:
    @SETTINGS
    @given(small_labeled_graphs(max_vertices=5), st.integers(min_value=0, max_value=1000))
    def test_canonical_form_invariant_under_relabeling(self, graph, offset):
        mapping = {v: v + offset + 100 for v in graph.vertices()}
        assert canonical_form(graph) == canonical_form(graph.relabel_vertices(mapping))

    @SETTINGS
    @given(small_labeled_graphs(max_vertices=5))
    def test_canonical_form_changes_when_an_edge_is_removed(self, graph):
        key = next(iter(graph.edge_keys()))
        smaller = graph.copy()
        smaller.remove_edge(*key)
        assert canonical_form(graph) != canonical_form(smaller)


class TestIsomorphismProperties:
    @SETTINGS
    @given(small_labeled_graphs())
    def test_every_graph_contains_itself(self, graph):
        assert is_subgraph_isomorphic(graph, graph)
        assert subgraph_distance(graph, graph) == 0

    @SETTINGS
    @given(small_labeled_graphs())
    def test_edge_subgraphs_are_contained(self, graph):
        keys = sorted(graph.edge_keys(), key=repr)
        sub = graph.subgraph_by_edges(keys[: max(1, len(keys) // 2)])
        assert is_subgraph_isomorphic(sub, graph)

    @SETTINGS
    @given(small_labeled_graphs())
    def test_distance_bounded_by_query_size(self, graph):
        other = LabeledGraph.from_edges({0: "zz", 1: "zz"}, [(0, 1, "qq")])
        distance = subgraph_distance(graph, other)
        assert distance is not None
        assert 0 <= distance <= graph.num_edges

    @SETTINGS
    @given(small_labeled_graphs(), small_labeled_graphs())
    def test_distance_zero_iff_subgraph_isomorphic(self, query, target):
        distance = subgraph_distance(query, target)
        if is_subgraph_isomorphic(query, target):
            assert distance == 0
        else:
            assert distance != 0


class TestBoundProperties:
    @SETTINGS
    @given(small_probabilistic_graphs(max_vertices=4), st.sampled_from(["a", "b", "c"]))
    def test_exact_sip_bounds_sandwich_truth(self, graph, label):
        feature = LabeledGraph()
        feature.add_vertex(0, label)
        feature.add_vertex(1, label)
        feature.add_edge(0, 1, "x")
        bounds = compute_sip_bounds(feature, graph, BoundConfig(method="exact"))
        truth = exact_sip(graph, feature)
        assert bounds.lower <= truth + 1e-6
        assert 0.0 <= bounds.lower <= 1.0
        assert 0.0 <= bounds.upper <= 1.0
        if bounds.num_cuts > 0:
            assert bounds.upper >= truth - 1e-6

    @SETTINGS
    @given(st.lists(probabilities, min_size=1, max_size=6))
    def test_lower_bound_formula_monotone_in_probabilities(self, values):
        from repro.pmi.embedding_graph import lower_bound_from_probabilities

        bound = lower_bound_from_probabilities(values)
        assert 0.0 <= bound <= 1.0
        assert bound >= max(values) - 1e-12
        boosted = lower_bound_from_probabilities([min(1.0, v + 0.01) for v in values])
        assert boosted >= bound - 1e-12

    @SETTINGS
    @given(st.lists(probabilities, min_size=1, max_size=6))
    def test_upper_bound_formula_antitone_in_probabilities(self, values):
        from repro.pmi.cuts import best_disjoint_cuts

        # pairwise disjoint cuts: Equation 20's product over all of them
        cuts = [frozenset({(i, i + 1)}) for i in range(len(values))]
        _, bound = best_disjoint_cuts(cuts, values)
        assert 0.0 <= bound <= 1.0
        assert bound <= 1.0 - max(values) + 1e-12
        assert math.isclose(best_disjoint_cuts([], [])[1], 1.0)
