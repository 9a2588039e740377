"""Tests for the vectorized batch verification kernel.

Three layers of evidence that the kernel computes the same estimator as the
scalar reference (``repro.reference.estimate_union_probability``):

* **bit-exact replay** — ``repro.reference.replay_union_probability`` feeds
  the kernel's evaluation the uniforms in the scalar sampler's interleaved
  order and must reproduce the scalar estimate *exactly*, seed for seed
  (property-tested over random edge probabilities and event sets);
* **statistical agreement** — in canonical mode the draws differ, so the
  batched estimate must agree with the exact inclusion-exclusion value (and
  with the scalar estimate) within the Monte-Carlo tolerance implied by the
  sample count;
* **determinism** — equal rng streams give byte-identical estimates and
  byte-identical sample matrices, independent of compile caching or which
  code path (fast independent vs general factor-conditioned) is forced;
* **clause weights** — ``clause_weights`` (compiled-model arithmetic) equals
  the ``VariableEliminationEngine`` oracle on partition and overlapping
  graphs, zero-mass events included;
* **calibration** — over hundreds of independent roots the batched estimate
  misses the exact value by more than ``τ·p`` no more often than ``ξ``
  allows, and its mean sits on the exact value (unbiasedness);
* **the exact route** — ``support_union_probability`` against three
  independent oracles (inclusion-exclusion, possible-world enumeration end to
  end, the sampler's mean), its purity (roots, input order, cache state) and
  the support limit that hands a candidate to the sampler.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.datasets import extract_query
from repro.exceptions import ConfigurationError, ProbabilityError
from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph
from repro.graphs.io import probabilistic_graph_from_dict, probabilistic_graph_to_dict
from repro.probability import (
    BatchWorldSampler,
    JointProbabilityTable,
    VariableEliminationEngine,
    compile_world_model,
    estimate_union_probability_batch,
    exact_union_probability,
    monte_carlo_sample_size,
)
from repro.probability import batch_kernel
from repro.probability.batch_kernel import (
    clause_weights,
    compile_events,
    support_union_probability,
)
from repro.reference import (
    estimate_union_probability,
    normalize_events,
    replay_union_probability,
)
from repro.utils.rng import numpy_generator

from tests.conftest import make_simple_probabilistic_graph


def two_event_list(graph):
    edges = graph.edge_variables()
    return [{edges[0]}, {edges[1], edges[2]}]


class TestCompiledModel:
    def test_independent_graph_takes_fast_path(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.4)
        model = compile_world_model(graph)
        assert model.is_independent
        assert model.marginals == pytest.approx([0.4] * graph.num_edges)

    def test_correlated_graph_takes_general_path(self, triangle_graph_001):
        model = compile_world_model(triangle_graph_001)
        assert not model.is_independent

    def test_model_is_cached_per_graph(self):
        graph = make_simple_probabilistic_graph()
        assert compile_world_model(graph) is compile_world_model(graph)

    def test_fast_path_opt_out_is_not_cached(self):
        graph = make_simple_probabilistic_graph()
        general = compile_world_model(graph, allow_fast_path=False)
        assert not general.is_independent
        assert compile_world_model(graph) is not general

    def test_compile_events_requirement_matrix(self, triangle_graph_001):
        model = compile_world_model(triangle_graph_001)
        events = [frozenset({model.edges[0], model.edges[2]})]
        required = compile_events(model, events)
        assert required.shape == (1, model.num_edges)
        assert required[0].tolist() == [True, False, True]


def star_graph(factor_tables) -> ProbabilisticGraph:
    """A star around vertex 0 with one factor per ``(leaves, table)`` entry.

    Every edge is incident to the hub, so any leaf subset is a neighbor edge
    set; factors sharing a leaf overlap on that edge.  ``table`` lists the
    ``2 ** len(leaves)`` unnormalized values in ``Factor.full_table`` order.
    """
    leaves = sorted({leaf for leaf_set, _ in factor_tables for leaf in leaf_set})
    skeleton = LabeledGraph(name="star")
    skeleton.add_vertex(0, "hub")
    for leaf in leaves:
        skeleton.add_vertex(leaf, "leaf")
        skeleton.add_edge(0, leaf, "e")
    factors = []
    for leaf_set, values in factor_tables:
        edges = tuple((0, leaf) for leaf in leaf_set)
        assignments = [
            tuple((index >> (len(edges) - 1 - slot)) & 1 for slot in range(len(edges)))
            for index in range(2 ** len(edges))
        ]
        jpt = JointProbabilityTable(edges, dict(zip(assignments, values)), normalize=True)
        factors.append(NeighborEdgeFactor(edges, jpt))
    return ProbabilisticGraph(skeleton, factors, name="star")


def assert_weights_match_oracle(graph, events):
    """``clause_weights`` against variable elimination, event by event."""
    engine = VariableEliminationEngine(graph)
    for event in events:
        try:
            expected = engine.probability_all_present(event)
        except ProbabilityError:  # degenerate component: Z == 0
            with pytest.raises(ProbabilityError):
                clause_weights(graph, [event])
            continue
        assert clause_weights(graph, [event])[0] == pytest.approx(expected, abs=1e-12)


table_values = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0))


def wheel_graph(probabilities, correlation, max_factor_size):
    """A 5-vertex, 7-edge wheel as an edge partition; returns it with its
    sorted edge keys (bit ``b`` of an event mask names ``keys[b]``)."""
    skeleton = LabeledGraph(name="wheel")
    for vertex in range(5):
        skeleton.add_vertex(vertex, "ab"[vertex % 2])
    for u, v in ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)):
        skeleton.add_edge(u, v, "x")
    keys = sorted(skeleton.edge_keys())
    graph = ProbabilisticGraph.from_edge_probabilities(
        skeleton,
        dict(zip(keys, probabilities)),
        correlation=correlation,
        max_factor_size=max_factor_size,
    )
    assert set(compile_world_model(graph).factor_group) == {None}
    return graph, keys


def events_of(masks, keys):
    return [{key for bit, key in enumerate(keys) if mask >> bit & 1} for mask in masks]


# a three-factor chain (sharing leaves 3 and 5) beside a single-factor component
def chain_tables(first, second, third, apart):
    return [((1, 2, 3), first), ((3, 4, 5), second), ((5, 6), third), ((7, 8), apart)]


class TestClauseWeights:
    @settings(max_examples=40, deadline=None)
    @given(
        probabilities=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=7, max_size=7
        ),
        correlation=st.sampled_from(["independent", "max"]),
        max_factor_size=st.integers(min_value=1, max_value=4),
        event_masks=st.lists(st.integers(min_value=1, max_value=127), min_size=1, max_size=6),
    )
    def test_partition_graphs_match_variable_elimination(
        self, probabilities, correlation, max_factor_size, event_masks
    ):
        """Generated edge partitions, both correlation models; marginals of
        exactly 0 make some events impossible (weight 0)."""
        graph, keys = wheel_graph(probabilities, correlation, max_factor_size)
        assert_weights_match_oracle(graph, events_of(event_masks, keys))

    def test_paper_overlap_graph_every_edge_subset(self, overlap_graph_002):
        """Graph 002: two JPTs sharing e3 are one two-factor component."""
        model = compile_world_model(overlap_graph_002)
        assert model.factor_group == ((0, 1), (0, 1))
        edges = overlap_graph_002.edge_variables()
        events = [
            set(subset)
            for size in range(1, len(edges) + 1)
            for subset in combinations(edges, size)
        ]
        assert_weights_match_oracle(overlap_graph_002, events)

    @settings(max_examples=40, deadline=None)
    @given(
        first=st.lists(table_values, min_size=8, max_size=8),
        second=st.lists(table_values, min_size=8, max_size=8),
        third=st.lists(table_values, min_size=4, max_size=4),
        apart=st.lists(table_values, min_size=4, max_size=4),
        event_masks=st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6),
    )
    def test_generated_overlapping_factors_match_variable_elimination(
        self, first, second, third, apart, event_masks
    ):
        """A three-factor chain (sharing edges 3 and 5) beside a
        single-factor component; zeros in the tables give zero-mass events."""
        tables = chain_tables(first, second, third, apart)
        for _, values in tables:
            assume(sum(values) > 0.0)
        graph = star_graph(tables)
        assert compile_world_model(graph).factor_group == ((0, 1, 2),) * 3 + (None,)
        keys = [(0, leaf) for leaf in range(1, 9)]
        assert_weights_match_oracle(graph, events_of(event_masks, keys))

    def test_zero_mass_event_weighs_zero_on_both_paths(self):
        """P(e1 ∧ e2) = 0 in the single factor; P(e3 ∧ e5) = 0 only through
        the chain e3-e4 / e4-e5 (e4 forced both ways)."""
        never_both = [0.3, 0.3, 0.4, 0.0]  # (0,0) (0,1) (1,0) (1,1)
        chain_a = [0.5, 0.0, 0.0, 0.5]  # e3 == e4
        chain_b = [0.0, 0.5, 0.5, 0.0]  # e4 != e5
        graph = star_graph([((1, 2), never_both), ((3, 4), chain_a), ((4, 5), chain_b)])
        weights = clause_weights(
            graph, [{(0, 1), (0, 2)}, {(0, 3), (0, 5)}, {(0, 1)}, {(0, 3), (0, 4)}]
        )
        assert weights[0] == 0.0
        assert weights[1] == 0.0
        assert weights[2] == pytest.approx(0.4)
        assert weights[3] == pytest.approx(0.5)
        assert estimate_union_probability_batch(
            graph, [{(0, 1), (0, 2)}, {(0, 3), (0, 5)}], rng=0
        ) == 0.0

    def test_factor_wider_than_a_pattern_code_keeps_exact_weights(self):
        """A sparse 33-edge JPT cannot be bit-coded: its weights come from
        the engine, the scalar estimator and inclusion-exclusion still
        accept it, and only the batch sampler refuses."""
        width = 33
        skeleton = LabeledGraph(name="wide")
        skeleton.add_vertex(0, "hub")
        for leaf in range(1, width + 1):
            skeleton.add_vertex(leaf, "leaf")
            skeleton.add_edge(0, leaf, "e")
        edges = tuple((0, leaf) for leaf in range(1, width + 1))
        table = {
            (0,) * width: 0.2,
            (1,) * width: 0.5,
            (1,) * 16 + (0,) * (width - 16): 0.3,
        }
        factor = NeighborEdgeFactor(edges, JointProbabilityTable(edges, table))
        graph = ProbabilisticGraph(skeleton, [factor], name="wide")
        assert compile_world_model(graph).factor_group == ((0,),)
        events = [{(0, 1)}, {(0, 20)}, {(0, 3), (0, 33)}]
        assert_weights_match_oracle(graph, events)
        assert exact_union_probability(graph, events) == pytest.approx(0.8)
        scalar = estimate_union_probability(graph, events, num_samples=300, rng=1)
        assert scalar == pytest.approx(0.8, abs=0.1)
        replay = replay_union_probability(graph, events, num_samples=300, rng=1)
        assert replay == scalar
        with pytest.raises(ConfigurationError, match="wider than the batch sampler"):
            estimate_union_probability_batch(graph, events, num_samples=300, rng=1)
        # ... and the exact route leaves it to that sampler: 33 columns is a
        # support wider than any limit
        assert support_union_probability(graph, events) is None

    def test_unknown_edge_is_a_typed_failure(self, triangle_graph_001):
        with pytest.raises(ProbabilityError, match="without probability factors"):
            clause_weights(triangle_graph_001, [{(9, 10)}])

    def test_partition_graph_never_builds_the_elimination_engine(self, monkeypatch):
        """The fallback must not silently become the main path again."""

        def refuse(graph):
            raise AssertionError("VariableEliminationEngine built for a partition graph")

        monkeypatch.setattr(batch_kernel, "VariableEliminationEngine", refuse)
        graph = make_simple_probabilistic_graph(edge_probability=0.6, correlation="max")
        events = two_event_list(graph)
        assert 0.0 < estimate_union_probability_batch(graph, events, rng=3) <= 1.0
        assert 0.0 < estimate_union_probability(graph, events, num_samples=50, rng=3) <= 1.0
        assert 0.0 < exact_union_probability(graph, events) <= 1.0

    def test_overlapping_component_z_is_computed_once(self, overlap_graph_002, monkeypatch):
        calls = []
        original = VariableEliminationEngine.partition_function

        def counting(self, positions, evidence=None):
            calls.append(bool(evidence))
            return original(self, positions, evidence)

        monkeypatch.setattr(VariableEliminationEngine, "partition_function", counting)
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        compile_world_model(overlap_graph_002)._component_z.clear()
        clause_weights(overlap_graph_002, [{e1, e3}, {e4}, {e2, e5}])
        clause_weights(overlap_graph_002, [{e1}])
        assert calls.count(False) == 1  # Z: once per model, not per event
        assert calls.count(True) == 4  # one conditioned mass per event


    def test_inclusion_exclusion_builds_one_engine_for_all_terms(
        self, overlap_graph_002, monkeypatch
    ):
        built = []

        class Counting(VariableEliminationEngine):
            def __init__(self, graph):
                built.append(graph)
                super().__init__(graph)

        monkeypatch.setattr(batch_kernel, "VariableEliminationEngine", Counting)
        e1, e2, e3, e4, _ = overlap_graph_002.edge_variables()
        exact_union_probability(overlap_graph_002, [{e1, e3}, {e4}, {e2}])  # 7 terms
        assert len(built) == 1


class TestSampleCountValidation:
    """``num_samples < 1`` is a ConfigurationError everywhere it is accepted
    (it used to be a ZeroDivisionError, numpy's "negative dimensions", or a
    silent 0.0 depending on the estimator)."""

    @pytest.mark.parametrize("bad", [0, -5, True, False, 2.5])
    def test_estimators_reject_bad_counts(self, bad):
        graph = make_simple_probabilistic_graph()
        events = two_event_list(graph)
        with pytest.raises(ConfigurationError, match="num_samples"):
            estimate_union_probability_batch(graph, events, num_samples=bad, rng=0)
        with pytest.raises(ConfigurationError, match="num_samples"):
            replay_union_probability(graph, events, num_samples=bad, rng=0)
        with pytest.raises(ConfigurationError, match="num_samples"):
            estimate_union_probability(graph, events, num_samples=bad, rng=0)

    @pytest.mark.parametrize("bad", [0, -5, True])
    def test_verification_config_rejects_bad_counts(self, bad):
        from repro.core import VerificationConfig

        with pytest.raises(ConfigurationError, match="num_samples"):
            VerificationConfig(num_samples=bad)

    def test_valid_counts_still_pass(self):
        from repro.core import VerificationConfig

        assert VerificationConfig(num_samples=None).num_samples is None
        assert VerificationConfig(num_samples=np.int64(7)).num_samples == 7
        graph = make_simple_probabilistic_graph()
        events = two_event_list(graph)
        assert 0.0 <= estimate_union_probability_batch(graph, events, num_samples=1, rng=0) <= 1.0


class TestBatchWorldSampler:
    def test_presence_matrix_shape_and_dtype(self, overlap_graph_002):
        sampler = BatchWorldSampler(overlap_graph_002)
        worlds = sampler.sample_presence(numpy_generator(1), 50)
        assert worlds.shape == (50, overlap_graph_002.num_edges)
        assert worlds.dtype == bool

    def test_evidence_is_respected(self, triangle_graph_001):
        sampler = BatchWorldSampler(triangle_graph_001)
        key = triangle_graph_001.edge_variables()[0]
        column = sampler.model.index[key]
        worlds = sampler.sample_presence(numpy_generator(2), 40, {key: 1})
        assert worlds[:, column].all()
        worlds = sampler.sample_presence(numpy_generator(2), 40, {key: 0})
        assert not worlds[:, column].any()

    def test_impossible_evidence_raises(self):
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        sampler = BatchWorldSampler(graph)
        key = graph.edge_variables()[0]
        with pytest.raises(ProbabilityError):
            sampler.sample_presence(numpy_generator(3), 5, {key: 0})

    def test_impossible_evidence_raises_on_general_path(self):
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        sampler = BatchWorldSampler(compile_world_model(graph, allow_fast_path=False))
        key = graph.edge_variables()[0]
        with pytest.raises(ProbabilityError):
            sampler.sample_presence(numpy_generator(3), 5, {key: 0})

    def test_marginal_frequencies(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.7)
        sampler = BatchWorldSampler(graph)
        worlds = sampler.sample_presence(numpy_generator(4), 8000)
        assert worlds.mean(axis=0) == pytest.approx([0.7] * graph.num_edges, abs=0.03)

    def test_correlated_joint_frequencies(self, triangle_graph_001):
        """General-path samples reproduce the JPT's joint distribution."""
        sampler = BatchWorldSampler(triangle_graph_001)
        model = sampler.model
        worlds = sampler.sample_presence(numpy_generator(5), 40000)
        factor = triangle_graph_001.factors[0]
        columns = [model.index[e] for e in factor.edges]
        for assignment, value in factor.jpt.table.items():
            hits = (worlds[:, columns] == np.array(assignment, dtype=bool)).all(axis=1)
            assert hits.mean() == pytest.approx(value, abs=0.02)

    def test_fast_and_general_paths_agree_statistically(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.35)
        fast = BatchWorldSampler(graph)
        general = BatchWorldSampler(compile_world_model(graph, allow_fast_path=False))
        fast_worlds = fast.sample_presence(numpy_generator(6), 20000)
        general_worlds = general.sample_presence(numpy_generator(6), 20000)
        assert fast_worlds.mean(axis=0) == pytest.approx(
            general_worlds.mean(axis=0), abs=0.025
        )

    def test_equal_generators_give_identical_matrices(self, overlap_graph_002):
        sampler = BatchWorldSampler(overlap_graph_002)
        a = sampler.sample_presence(numpy_generator(7), 64)
        b = sampler.sample_presence(numpy_generator(7), 64)
        assert (a == b).all()


class TestScalarReplayBitExactness:
    """``replay_union_probability`` reproduces the scalar estimator exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_independent_graph(self, seed):
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        events = two_event_list(graph)
        scalar = estimate_union_probability(graph, events, num_samples=150, rng=seed)
        replay = replay_union_probability(graph, events, num_samples=150, rng=seed)
        assert scalar == replay

    @pytest.mark.parametrize("seed", range(6))
    def test_correlated_single_factor(self, triangle_graph_001, seed):
        edges = triangle_graph_001.edge_variables()
        events = [{edges[0], edges[1]}, {edges[2]}]
        scalar = estimate_union_probability(
            triangle_graph_001, events, num_samples=150, rng=seed
        )
        replay = replay_union_probability(triangle_graph_001, events, num_samples=150, rng=seed)
        assert scalar == replay

    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_factors(self, overlap_graph_002, seed):
        """The conditioned-factor case: factor 2 conditions on factor 1's e3."""
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        events = [{e1, e3}, {e4}, {e2, e5}]
        scalar = estimate_union_probability(
            overlap_graph_002, events, num_samples=150, rng=seed
        )
        replay = replay_union_probability(overlap_graph_002, events, num_samples=150, rng=seed)
        assert scalar == replay

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        probabilities=st.lists(
            st.floats(min_value=0.05, max_value=0.95), min_size=4, max_size=4
        ),
        correlation=st.sampled_from(["independent", "max"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        event_mask=st.integers(min_value=1, max_value=14),
    )
    def test_property_replay_equals_scalar(
        self, probabilities, correlation, seed, event_mask
    ):
        """Random marginals, correlation model, events, seed: exact equality."""
        skeleton = LabeledGraph(name="prop")
        for vertex, label in ((0, "a"), (1, "b"), (2, "a"), (3, "b")):
            skeleton.add_vertex(vertex, label)
        skeleton.add_edge(0, 1, "x")
        skeleton.add_edge(1, 2, "x")
        skeleton.add_edge(2, 3, "x")
        skeleton.add_edge(0, 3, "x")
        keys = sorted(skeleton.edge_keys())
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton,
            dict(zip(keys, probabilities)),
            correlation=correlation,
            max_factor_size=3,
        )
        events = [
            {keys[i], keys[(i + 1) % 4]} for i in range(4) if event_mask & (1 << i)
        ]
        scalar = estimate_union_probability(graph, events, num_samples=40, rng=seed)
        replay = replay_union_probability(graph, events, num_samples=40, rng=seed)
        assert scalar == replay


class TestCanonicalBatchEstimator:
    def test_statistical_agreement_with_exact(self, rng):
        """Tolerance follows the (ξ, τ) bound: |est - p| <= τ whp."""
        graph = make_simple_probabilistic_graph(edge_probability=0.5)
        events = [{key} for key in graph.edge_variables()[:3]]
        exact = exact_union_probability(graph, events)
        estimate = estimate_union_probability_batch(
            graph, events, xi=0.05, tau=0.1, rng=rng
        )
        assert estimate == pytest.approx(exact, abs=0.1)

    def test_statistical_agreement_with_scalar(self, triangle_graph_001):
        edges = triangle_graph_001.edge_variables()
        events = [{edges[0], edges[1]}, {edges[1], edges[2]}]
        scalar = estimate_union_probability(
            triangle_graph_001, events, num_samples=20000, rng=11
        )
        batched = estimate_union_probability_batch(
            triangle_graph_001, events, num_samples=20000, rng=11
        )
        assert batched == pytest.approx(scalar, abs=0.02)

    def test_overlapping_factor_agreement_with_exact(self, overlap_graph_002):
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        events = [{e1, e3}, {e4}, {e2, e5}]
        exact = exact_union_probability(overlap_graph_002, events)
        estimate = estimate_union_probability_batch(
            overlap_graph_002, events, num_samples=30000, rng=12
        )
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_all_edges_certain(self):
        """p = 1 everywhere, one event: every sampler variant is exactly 1.0.

        (With several events the Karp-Luby count is binomial even on a
        certain graph — only the single-event case is deterministic.)
        """
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        events = [set(graph.edge_variables()[:2])]
        assert estimate_union_probability_batch(graph, events, rng=0) == 1.0
        assert replay_union_probability(graph, events, rng=0) == 1.0
        assert estimate_union_probability(graph, events, rng=0) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_all_edges_certain_multi_event_replay_matches_scalar(self, seed):
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        events = two_event_list(graph)
        scalar = estimate_union_probability(graph, events, num_samples=200, rng=seed)
        replay = replay_union_probability(graph, events, num_samples=200, rng=seed)
        assert scalar == replay

    def test_no_events_is_zero(self):
        graph = make_simple_probabilistic_graph()
        assert estimate_union_probability_batch(graph, [], rng=0) == 0.0

    def test_zero_weight_events_short_circuit(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.0)
        events = two_event_list(graph)
        assert estimate_union_probability_batch(graph, events, rng=0) == 0.0

    def test_zero_weight_event_beside_positive_ones(self):
        """An impossible event is never picked, so it must not make the
        world batch refuse the whole estimate (independent fast path)."""
        skeleton = LabeledGraph(name="path")
        for vertex in range(4):
            skeleton.add_vertex(vertex, "a")
        for u, v in ((0, 1), (1, 2), (2, 3)):
            skeleton.add_edge(u, v, "x")
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton, {(0, 1): 0.0, (1, 2): 0.5, (2, 3): 0.7}
        )
        assert compile_world_model(graph).is_independent
        events = [{(0, 1)}, {(1, 2)}, {(2, 3)}]
        assert clause_weights(graph, events)[0] == 0.0
        exact = exact_union_probability(graph, events)
        assert exact == pytest.approx(0.85)
        estimate = estimate_union_probability_batch(graph, events, num_samples=4000, rng=5)
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_zero_weight_event_beside_positive_ones_general_path(self):
        # e1 never exists, e2 == e3: not a product table
        graph = star_graph([((1, 2, 3), [0.4, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.0])])
        assert not compile_world_model(graph).is_independent
        events = [{(0, 1)}, {(0, 2)}]
        assert clause_weights(graph, events) == [0.0, pytest.approx(0.6)]
        estimate = estimate_union_probability_batch(graph, events, num_samples=500, rng=5)
        assert estimate == pytest.approx(0.6)

    def test_result_clamped_to_unit_interval(self):
        graph = make_simple_probabilistic_graph(edge_probability=0.95)
        events = [{key} for key in graph.edge_variables()]
        estimate = estimate_union_probability_batch(
            graph, events, num_samples=400, rng=13
        )
        assert 0.0 <= estimate <= 1.0

    def test_seeded_estimates_are_byte_identical(self, overlap_graph_002):
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        events = [{e1, e3}, {e4}]
        first = estimate_union_probability_batch(
            overlap_graph_002, events, num_samples=200, rng=99
        )
        second = estimate_union_probability_batch(
            overlap_graph_002, events, num_samples=200, rng=99
        )
        assert first == second

    def test_estimate_independent_of_event_input_order(self, rng):
        """normalize_events canonicalizes, so input order cannot matter."""
        graph = make_simple_probabilistic_graph(edge_probability=0.6)
        edges = graph.edge_variables()
        events = [{edges[0]}, {edges[1], edges[2]}, {edges[3]}]
        shuffled = list(events)
        random.Random(5).shuffle(shuffled)
        assert estimate_union_probability_batch(
            graph, events, num_samples=100, rng=7
        ) == estimate_union_probability_batch(
            graph, shuffled, num_samples=100, rng=7
        )


class TestExactSupportRoute:
    """``support_union_probability``: the union summed exactly over the
    assignments of the few edges the events mention — what
    ``Verifier(method="sampling")`` returns whenever the support fits."""

    @settings(max_examples=40, deadline=None)
    @given(
        probabilities=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=7, max_size=7
        ),
        correlation=st.sampled_from(["independent", "max"]),
        max_factor_size=st.integers(min_value=1, max_value=4),
        event_masks=st.lists(st.integers(min_value=1, max_value=127), min_size=1, max_size=6),
    )
    def test_partition_graphs_equal_inclusion_exclusion(
        self, probabilities, correlation, max_factor_size, event_masks
    ):
        graph, keys = wheel_graph(probabilities, correlation, max_factor_size)
        events = events_of(event_masks, keys)
        assert support_union_probability(graph, events) == pytest.approx(
            exact_union_probability(graph, events), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        first=st.lists(table_values, min_size=8, max_size=8),
        second=st.lists(table_values, min_size=8, max_size=8),
        third=st.lists(table_values, min_size=4, max_size=4),
        apart=st.lists(table_values, min_size=4, max_size=4),
        event_masks=st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6),
    )
    def test_overlapping_factors_equal_inclusion_exclusion(
        self, first, second, third, apart, event_masks
    ):
        """A multi-factor component enters with all its columns, normalised
        by its own Z, beside a single-factor one."""
        tables = chain_tables(first, second, third, apart)
        for _, values in tables:
            assume(sum(values) > 0.0)
        graph = star_graph(tables)
        assume(VariableEliminationEngine(graph).partition_function((0, 1, 2)) > 0.0)
        events = events_of(event_masks, [(0, leaf) for leaf in range(1, 9)])
        assert support_union_probability(graph, events) == pytest.approx(
            exact_union_probability(graph, events), abs=1e-12
        )

    def test_paper_overlap_graph_every_event_pair(self, overlap_graph_002):
        edges = overlap_graph_002.edge_variables()
        singles = [
            set(subset) for size in (1, 2, 3) for subset in combinations(edges, size)
        ]
        for events in combinations(singles, 2):
            assert support_union_probability(overlap_graph_002, list(events)) == pytest.approx(
                exact_union_probability(overlap_graph_002, list(events)), abs=1e-12
            )

    def test_degenerate_component_is_a_typed_failure(self):
        """Z = 0 (the two tables force the shared edge both ways): the
        failure ``clause_weights`` reports, not a division by zero."""
        graph = star_graph([((1, 2), [0.0, 0.0, 0.5, 0.5]), ((1, 3), [0.5, 0.5, 0.0, 0.0])])
        with pytest.raises(ProbabilityError, match="zero partition function"):
            clause_weights(graph, [{(0, 2)}])
        with pytest.raises(ProbabilityError, match="zero partition function"):
            support_union_probability(graph, [{(0, 2)}])

    def test_verifier_equals_world_enumeration_end_to_end(
        self, triangle_graph_001, overlap_graph_002, path_query
    ):
        from repro.core import VerificationConfig, Verifier
        from repro.reference import similarity_probability_by_enumeration

        routed = Verifier(VerificationConfig(method="sampling", num_samples=50))
        a_b_c = LabeledGraph(name="q")  # the two-edge path of graph 001
        for vertex, label in enumerate("abc"):
            a_b_c.add_vertex(vertex, label)
        a_b_c.add_edge(0, 1, "e")
        a_b_c.add_edge(1, 2, "e")
        a_b_a = LabeledGraph(name="q")  # ... and of the simple 4-cycle
        for vertex, label in enumerate("aba"):
            a_b_a.add_vertex(vertex, label)
        a_b_a.add_edge(0, 1, "x")
        a_b_a.add_edge(1, 2, "x")
        cases = [(a_b_c, triangle_graph_001), (path_query, overlap_graph_002)] + [
            (a_b_a, make_simple_probabilistic_graph(0.6, correlation=correlation))
            for correlation in ("independent", "max")
        ]
        for query, graph in cases:
            for delta in (0, 1):
                expected = similarity_probability_by_enumeration(query, graph, delta)
                assert 0.0 < expected < 1.0
                assert routed.subgraph_similarity_probability(
                    query, graph, delta
                ) == pytest.approx(expected, abs=1e-12)
        assert routed.sampled == 0

    def test_zero_mass_event_beside_positive_ones(self):
        graph = star_graph([((1, 2, 3), [0.4, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.0])])
        assert support_union_probability(graph, [{(0, 1)}, {(0, 2)}]) == pytest.approx(
            0.6, abs=1e-15
        )
        assert support_union_probability(graph, [{(0, 1)}]) == 0.0

    def test_all_edges_certain_is_exactly_one(self):
        """Several events too: nothing is binomial on this route."""
        graph = make_simple_probabilistic_graph(edge_probability=1.0)
        assert support_union_probability(graph, two_event_list(graph)) == 1.0

    def test_input_order_and_duplicates_change_nothing(self, overlap_graph_002):
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        events = [{e1, e3}, {e4}, {e2, e5}, {e5, e3}]
        expected = support_union_probability(overlap_graph_002, events)
        shuffled = events + [set(events[2]), {e4, e1}]  # a duplicate, an absorbed superset
        random.Random(5).shuffle(shuffled)
        assert support_union_probability(overlap_graph_002, shuffled) == expected

    def test_no_events_is_zero(self):
        assert support_union_probability(make_simple_probabilistic_graph(), []) == 0.0

    def test_unknown_edge_is_a_typed_failure(self, triangle_graph_001):
        with pytest.raises(ProbabilityError, match="without probability factors"):
            support_union_probability(triangle_graph_001, [{(1, 2)}, {(9, 10)}])

    def test_roots_and_cache_state_change_no_byte(self, small_ppi_database):
        """The route reads nothing but (graph, events): two roots, and a warm
        graph against a cold copy of it, give identical floats."""
        from repro.core import VerificationConfig, Verifier

        graphs = small_ppi_database.graphs
        query = extract_query(graphs[0].skeleton, 3, rng=1)
        config = VerificationConfig(method="sampling", num_samples=30)
        first, second = Verifier(config, rng=1), Verifier(config, rng=2)
        warm = first.verify_block(query, graphs, 1, rngs=[11] * len(graphs))
        assert any(0.0 < probability < 1.0 for probability in warm)
        assert warm == second.verify_block(query, graphs, 1, rngs=[12] * len(graphs))
        cold = [
            probabilistic_graph_from_dict(probabilistic_graph_to_dict(graph)) for graph in graphs
        ]
        assert warm == second.verify_block(query, cold, 1)
        assert first.sampled == second.sampled == 0

    def test_support_over_the_limit_goes_to_the_sampler(self, overlap_graph_002, monkeypatch):
        """The limit counts the columns the events mention, plus every other
        column of a multi-factor component they touch."""
        from repro.core import VerificationConfig, Verifier

        graph, keys = wheel_graph([0.5] * 7, "max", 2)
        events = events_of([0b0000011, 0b0001100, 0b0010001], keys)  # five columns
        e1, e2, e3, e4, e5 = overlap_graph_002.edge_variables()
        verifier = Verifier(VerificationConfig(method="sampling", num_samples=60))
        monkeypatch.setattr(batch_kernel, "EXACT_SUPPORT_LIMIT", 5)
        exact = support_union_probability(graph, events)
        assert exact == pytest.approx(exact_union_probability(graph, events), abs=1e-12)
        assert verifier._estimate(graph, events, random.Random(3)) == exact
        assert support_union_probability(overlap_graph_002, [{e4}]) is not None
        assert verifier.sampled == 0
        monkeypatch.setattr(batch_kernel, "EXACT_SUPPORT_LIMIT", 4)
        assert support_union_probability(graph, events) is None
        assert support_union_probability(overlap_graph_002, [{e4}]) is None  # one of five
        # the sampled estimate is the kernel's, on the caller's stream
        assert verifier._estimate(
            graph, events, random.Random(3)
        ) == estimate_union_probability_batch(graph, events, num_samples=60, rng=random.Random(3))
        assert verifier.sampled == 1


class TestCalibration:
    """Do the sampled numbers meet their (ξ, τ) promise against exact
    inference?  First slice of ROADMAP's statistical harness: the batched
    estimator, both correlation models, graphs small enough for
    ``exact_union_probability``."""

    XI, TAU, ROOTS = 0.05, 0.1, 300

    @pytest.mark.parametrize("correlation", ["independent", "max"])
    def test_failure_rate_within_xi_and_mean_on_exact(self, correlation):
        skeleton = LabeledGraph(name="calibration")
        for vertex in range(6):
            skeleton.add_vertex(vertex, "ab"[vertex % 2])
        ring = [(vertex, (vertex + 1) % 6) for vertex in range(6)]
        for u, v in [*ring, (0, 3), (1, 4)]:
            skeleton.add_edge(u, v, "x")
        keys = sorted(skeleton.edge_keys())
        stream = random.Random(20120827)
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton,
            {key: stream.uniform(0.35, 0.75) for key in keys},
            correlation=correlation,
            max_factor_size=3,
        )
        # overlapping events spread over several factors: rows of one
        # estimate carry different evidence patterns into the same factor
        events = [set(keys[i : i + 2]) for i in range(0, 6)] + [{keys[0], keys[4], keys[7]}]
        exact = exact_union_probability(graph, events)
        # the value production reports for this candidate: the sampler is
        # calibrated against the exact route, not only against Equation 21
        assert support_union_probability(graph, events) == pytest.approx(exact, abs=1e-12)
        num_samples = monte_carlo_sample_size(self.XI, self.TAU)
        estimates = np.array(
            [
                estimate_union_probability_batch(
                    graph, events, xi=self.XI, tau=self.TAU, rng=root
                )
                for root in range(self.ROOTS)
            ]
        )
        assert len(set(estimates.tolist())) > self.ROOTS // 4  # roots are independent

        failures = int((np.abs(estimates - exact) > self.TAU * exact).sum())
        binomial_sd = math.sqrt(self.ROOTS * self.XI * (1.0 - self.XI))
        assert failures <= self.ROOTS * self.XI + 3.0 * binomial_sd

        # unbiasedness: V * Cnt / N has mean p and variance p (V - p) / N
        total_weight = sum(clause_weights(graph, normalize_events(events)))
        standard_error = math.sqrt(
            exact * (total_weight - exact) / num_samples / self.ROOTS
        )
        assert abs(estimates.mean() - exact) <= 4.0 * standard_error


class TestVerifierIntegration:
    def test_verify_block_matches_single_calls(self, small_ppi_database):
        """Block verification returns exactly the per-candidate estimates."""
        from repro.core import VerificationConfig, Verifier
        from repro.utils.rng import VERIFY_STREAM, derive_rng

        graphs = small_ppi_database.graphs[:4]
        query = LabeledGraph(name="q")
        labels = [
            graphs[0].skeleton.vertex_label(v) for v in graphs[0].skeleton.vertices()
        ]
        query.add_vertex(0, labels[0])
        query.add_vertex(1, labels[1])
        query.add_edge(0, 1, "i")
        verifier = Verifier(VerificationConfig(method="sampling", num_samples=120))
        rngs = [derive_rng(17, VERIFY_STREAM, gid) for gid in range(len(graphs))]
        block = verifier.verify_block(query, graphs, 0, rngs=rngs)
        singles = [
            verifier.subgraph_similarity_probability(
                query, graph, 0, rng=derive_rng(17, VERIFY_STREAM, gid)
            )
            for gid, graph in enumerate(graphs)
        ]
        assert block == singles

    def test_verify_block_is_block_size_invariant(self, small_ppi_database):
        """Chunking the same candidates differently changes nothing."""
        from repro.core import VerificationConfig, Verifier
        from repro.utils.rng import VERIFY_STREAM, derive_rng

        graphs = small_ppi_database.graphs
        query = LabeledGraph(name="q")
        query.add_vertex(0, "P0")
        query.add_vertex(1, "P1")
        query.add_edge(0, 1, "i")
        verifier = Verifier(VerificationConfig(method="sampling", num_samples=80))
        rngs = lambda ids: [derive_rng(23, VERIFY_STREAM, gid) for gid in ids]
        whole = verifier.verify_block(query, graphs, 0, rngs=rngs(range(len(graphs))))
        split = verifier.verify_block(
            query, graphs[:3], 0, rngs=rngs(range(3))
        ) + verifier.verify_block(
            query, graphs[3:], 0, rngs=rngs(range(3, len(graphs)))
        )
        assert whole == split
