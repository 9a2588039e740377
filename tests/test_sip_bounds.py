"""Tests for SIP bounds (LowerB/UpperB) against exact subgraph isomorphism
probabilities (Section 4.1)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, VerificationError
from repro.graphs import LabeledGraph
from repro.pmi import BoundConfig, compute_sip_bounds
from repro.reference import exact_sip

from tests.conftest import make_simple_probabilistic_graph


def single_edge_feature(label_u="a", label_v="b", edge_label="x"):
    feature = LabeledGraph(name="f")
    feature.add_vertex(0, label_u)
    feature.add_vertex(1, label_v)
    feature.add_edge(0, 1, edge_label)
    return feature


def path_feature():
    feature = LabeledGraph(name="f-path")
    feature.add_vertex(0, "a")
    feature.add_vertex(1, "b")
    feature.add_vertex(2, "a")
    feature.add_edge(0, 1, "x")
    feature.add_edge(1, 2, "x")
    return feature


class TestExactSip:
    def test_single_edge_feature_probability(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        feature = single_edge_feature()
        # the a-b edge occurs 4 times (square alternating a/b); SIP is the
        # probability at least one of the 4 independent edges exists
        assert exact_sip(graph, feature) == pytest.approx(1 - 0.5**4)

    def test_absent_feature_has_zero_sip(self):
        graph = make_simple_probabilistic_graph()
        feature = single_edge_feature("z", "z", "q")
        assert exact_sip(graph, feature) == 0.0

    def test_size_guard(self, small_ppi_database):
        big = small_ppi_database.graphs[0]
        with pytest.raises(VerificationError):
            exact_sip(big, single_edge_feature(), max_edges=3)


class TestBoundsSandwichExactValue:
    @pytest.mark.parametrize("edge_probability", [0.3, 0.5, 0.8])
    def test_exact_method_bounds_contain_sip(self, edge_probability):
        graph = make_simple_probabilistic_graph(edge_probability=edge_probability)
        feature = single_edge_feature()
        truth = exact_sip(graph, feature)
        bounds = compute_sip_bounds(feature, graph, BoundConfig(method="exact"))
        assert bounds.lower <= truth + 1e-9
        assert bounds.upper >= truth - 1e-9
        assert 0.0 <= bounds.lower <= bounds.upper <= 1.0

    def test_exact_method_on_correlated_graph(self, triangle_graph_001):
        feature = LabeledGraph(name="f")
        feature.add_vertex(0, "a")
        feature.add_vertex(1, "b")
        feature.add_edge(0, 1, "e")
        truth = exact_sip(triangle_graph_001, feature)
        bounds = compute_sip_bounds(feature, triangle_graph_001, BoundConfig(method="exact"))
        assert bounds.lower <= truth + 1e-9 <= bounds.upper + 2e-9

    def test_path_feature_bounds(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        feature = path_feature()
        truth = exact_sip(graph, feature)
        bounds = compute_sip_bounds(feature, graph, BoundConfig(method="exact"))
        assert bounds.lower <= truth + 1e-9
        assert bounds.upper >= truth - 1e-9

    def test_missing_feature_gives_empty_bounds(self):
        graph = make_simple_probabilistic_graph()
        bounds = compute_sip_bounds(single_edge_feature("z", "z"), graph)
        assert bounds.is_empty()
        assert (bounds.lower, bounds.upper) == (0.0, 0.0)


class TestSamplingMethod:
    def test_sampling_bounds_are_probabilities(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        bounds = compute_sip_bounds(
            single_edge_feature(), graph, BoundConfig(method="sampling", num_samples=300), rng=rng
        )
        assert 0.0 <= bounds.lower <= bounds.upper <= 1.0
        assert bounds.num_embeddings == 4
        assert bounds.num_cuts >= 1

    def test_sampling_close_to_exact_bounds(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        feature = single_edge_feature()
        exact_bounds = compute_sip_bounds(feature, graph, BoundConfig(method="exact"))
        sampled_bounds = compute_sip_bounds(
            feature, graph, BoundConfig(method="sampling", num_samples=2500), rng=rng
        )
        assert sampled_bounds.lower == pytest.approx(exact_bounds.lower, abs=0.08)
        assert sampled_bounds.upper == pytest.approx(exact_bounds.upper, abs=0.08)

    def test_standalone_call_draws_its_own_batch_from_rng(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.5, correlation="max")
        config = BoundConfig(num_samples=50)
        first = compute_sip_bounds(single_edge_feature(), graph, config, rng=4)
        assert first == compute_sip_bounds(single_edge_feature(), graph, config, rng=4)
        assert first != compute_sip_bounds(single_edge_feature(), graph, config, rng=5)


class TestBoundConfigValidation:
    """A bad knob fails where it is written down, not at the first non-empty
    cell of a build (``num_samples=0`` used to yield ``[0, 1]`` cells)."""

    @pytest.mark.parametrize("num_samples", [0, -3, True, 2.5, "60"])
    def test_sample_count_must_be_a_positive_integer(self, num_samples):
        with pytest.raises(ConfigurationError, match="num_samples"):
            BoundConfig(num_samples=num_samples)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="mystery"):
            BoundConfig(method="mystery")
        with pytest.raises(ConfigurationError):
            BoundConfig(method="sampling_scalar")  # a verification method, not a bound one

    @pytest.mark.parametrize("field", ["xi", "tau"])
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5])
    def test_xi_and_tau_must_be_in_unit_interval(self, field, value):
        with pytest.raises(ConfigurationError, match="xi and tau"):
            BoundConfig(**{field: value})

    def test_cycling_number_rule_is_checked_when_it_applies(self):
        assert BoundConfig(num_samples=10, xi=1.0, tau=1.0).resolved_sample_count() == 10
        with pytest.raises(ConfigurationError, match="xi"):
            BoundConfig(num_samples=None, xi=1.0)  # ln(2/xi) needs xi < 1


class TestOptVsPlainBounds:
    def test_opt_bounds_are_at_least_as_tight(self, rng):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        feature = single_edge_feature()
        opt = compute_sip_bounds(feature, graph, BoundConfig(method="exact", optimize=True))
        plain = compute_sip_bounds(feature, graph, BoundConfig(method="exact", optimize=False))
        assert opt.lower >= plain.lower - 1e-9
        assert opt.upper <= plain.upper + 1e-9

    def test_config_sample_count_resolution(self):
        assert BoundConfig(num_samples=123).resolved_sample_count() == 123
        assert BoundConfig(num_samples=None, xi=0.05, tau=0.1).resolved_sample_count() > 100
