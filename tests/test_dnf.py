"""Tests for exact inclusion-exclusion and the Karp-Luby union estimator."""

from __future__ import annotations

import pytest

from repro.exceptions import VerificationError
from repro.probability import estimate_union_probability_batch, exact_union_probability
from repro.reference import canonical_event_key, estimate_union_probability, normalize_events

from tests.conftest import make_simple_probabilistic_graph


class TestNormalizeEvents:
    def test_duplicates_removed(self):
        events = [frozenset({(0, 1)}), frozenset({(0, 1)})]
        assert len(normalize_events(events)) == 1

    def test_supersets_absorbed(self):
        small = frozenset({(0, 1)})
        large = frozenset({(0, 1), (1, 2)})
        assert normalize_events([small, large]) == [small]

    def test_empty_events_dropped(self):
        assert normalize_events([frozenset()]) == []

    def test_ordering_is_input_order_independent(self):
        events = [
            frozenset({(2, 3)}),
            frozenset({(0, 3), (1, 2)}),
            frozenset({(0, 1)}),
        ]
        assert normalize_events(events) == normalize_events(list(reversed(events)))

    def test_ordering_is_sorted_tuples_not_repr(self):
        """Regression: the old repr-based key ordered (10, 11) before (2, 10)
        because the string "(10, ..." sorts before "(2, ..." — the canonical
        key compares edge keys as tuples, so numeric order wins."""
        events = [frozenset({(10, 11)}), frozenset({(2, 10)})]
        assert normalize_events(events) == [
            frozenset({(2, 10)}),
            frozenset({(10, 11)}),
        ]

    def test_mixed_vertex_id_types_are_orderable(self):
        """int and str vertex ids in one event list must not raise."""
        events = [frozenset({("a", "b")}), frozenset({(1, 2)})]
        ordered = normalize_events(events)
        assert set(ordered) == set(events)
        assert ordered == sorted(ordered, key=canonical_event_key)

    def test_unorderable_vertex_ids_fall_back_to_repr(self):
        """Hashable-but-unorderable ids (allowed by edge_key's repr fallback)
        must sort deterministically instead of raising TypeError."""

        class Node:
            def __init__(self, n):
                self.n = n

            def __repr__(self):
                return f"Node({self.n})"

        a, b, c = Node(1), Node(2), Node(3)
        events = [frozenset({(b, c)}), frozenset({(a, b)})]
        ordered = normalize_events(events)
        assert set(ordered) == set(events)
        assert ordered == normalize_events(list(reversed(events)))

    def test_estimator_output_pinned_under_canonical_ordering(self):
        """Pins the clause order the estimators see: a seeded run on a fixed
        graph/event set must keep returning these exact values unless the
        canonical event ordering (an explicit contract) changes."""
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        edges = graph.edge_variables()  # [(0,1), (0,3), (1,2), (2,3)]
        events = [{edges[3]}, {edges[1], edges[2]}, {edges[0]}]
        assert normalize_events(events) == [
            frozenset({(0, 1)}),
            frozenset({(2, 3)}),
            frozenset({(0, 3), (1, 2)}),
        ]
        scalar = estimate_union_probability(graph, events, num_samples=250, rng=2012)
        batched = estimate_union_probability_batch(
            graph, events, num_samples=250, rng=2012
        )
        assert scalar == pytest.approx(0.92976, abs=1e-12)
        assert batched == pytest.approx(0.94224, abs=1e-12)


class TestExactUnion:
    def test_single_event(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        key = graph.edge_variables()[0]
        assert exact_union_probability(graph, [{key}]) == pytest.approx(0.5)

    def test_two_independent_events(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        e1, e2 = graph.edge_variables()[:2]
        # Pr(e1 ∨ e2) = 1 - 0.5 * 0.5
        assert exact_union_probability(graph, [{e1}, {e2}]) == pytest.approx(0.75)

    def test_union_of_everything(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        events = [{key} for key in graph.edge_variables()]
        expected = 1.0 - 0.5 ** len(events)
        assert exact_union_probability(graph, events) == pytest.approx(expected)

    def test_no_events_is_zero(self):
        graph = make_simple_probabilistic_graph()
        assert exact_union_probability(graph, []) == 0.0

    def test_correlated_graph_against_enumeration(self, triangle_graph_001):
        from repro.reference import enumerate_possible_worlds

        edges = triangle_graph_001.edge_variables()
        events = [{edges[0], edges[1]}, {edges[2]}]
        expected = 0.0
        for world in enumerate_possible_worlds(triangle_graph_001):
            present = world.present_edges()
            if {edges[0], edges[1]} <= present or edges[2] in present:
                expected += world.probability
        assert exact_union_probability(triangle_graph_001, events) == pytest.approx(expected)

    def test_event_limit_enforced(self):
        graph = make_simple_probabilistic_graph()
        events = [{key} for key in graph.edge_variables()]
        with pytest.raises(VerificationError):
            exact_union_probability(graph, events, max_events=2)

    def test_benign_float_noise_is_clamped(self, monkeypatch):
        """Totals a hair outside [0, 1] are cancellation noise, not bugs."""
        from repro.probability import dnf

        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        monkeypatch.setattr(
            dnf, "clause_weights", lambda graph, events: [1.0 + 4e-7 for _ in events]
        )
        key = graph.edge_variables()[0]
        assert exact_union_probability(graph, [{key}]) == 1.0

    def test_inconsistent_totals_raise_instead_of_clamping(self, monkeypatch):
        """Regression: a sign/cancellation bug used to be masked by the
        [0, 1] clamp; totals far outside the interval now raise."""
        from repro.probability import dnf

        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        monkeypatch.setattr(
            dnf, "clause_weights", lambda graph, events: [1.7 for _ in events]
        )
        key = graph.edge_variables()[0]
        with pytest.raises(VerificationError, match="leaves \\[0, 1\\]"):
            exact_union_probability(graph, [{key}])


class TestKarpLubyEstimator:
    def test_matches_exact_on_independent_events(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        events = [{key} for key in graph.edge_variables()[:3]]
        exact = exact_union_probability(graph, events)
        estimate = estimate_union_probability(graph, events, num_samples=3000, rng=rng)
        assert estimate == pytest.approx(exact, abs=0.05)

    def test_matches_exact_on_correlated_graph(self, triangle_graph_001, rng):
        edges = triangle_graph_001.edge_variables()
        events = [{edges[0], edges[1]}, {edges[1], edges[2]}]
        exact = exact_union_probability(triangle_graph_001, events)
        estimate = estimate_union_probability(
            triangle_graph_001, events, num_samples=4000, rng=rng
        )
        assert estimate == pytest.approx(exact, abs=0.05)

    def test_no_events_is_zero(self, rng):
        graph = make_simple_probabilistic_graph()
        assert estimate_union_probability(graph, [], rng=rng) == 0.0

    def test_result_clamped_to_unit_interval(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.95)
        events = [{key} for key in graph.edge_variables()]
        estimate = estimate_union_probability(graph, events, num_samples=500, rng=rng)
        assert 0.0 <= estimate <= 1.0

    def test_default_sample_count_used(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        key = graph.edge_variables()[0]
        estimate = estimate_union_probability(graph, [{key}], xi=0.2, tau=0.3, rng=rng)
        assert estimate == pytest.approx(0.5, abs=0.15)
