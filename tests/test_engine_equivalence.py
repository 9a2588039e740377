"""Engine equivalence: the vectorized generic-join engine must agree with
the recursive VF2 reference on random labeled graphs (hypothesis), and its
depth-first split past the branch cap must leave full query answers and
per-stage counters byte-identical through the sequential, sharded and top-k
paths."""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GraphCatalog, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.graphs import LabeledGraph
from repro.isomorphism import find_embeddings, generic_join, is_subgraph_isomorphic
from repro.pmi import BoundConfig, FeatureSelectionConfig
from repro.reference import VF2Matcher, vf2_embeddings, vf2_exists

from tests.conftest import join_mappings

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

labels = st.sampled_from(["a", "b", "c"])
edge_labels = st.sampled_from(["x", "y"])


@st.composite
def small_labeled_graphs(draw, min_vertices=2, max_vertices=6):
    """Connected-ish random labeled graphs with at least one edge."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    graph = LabeledGraph()
    for index in range(n):
        graph.add_vertex(index, draw(labels))
    for index in range(1, n):
        graph.add_edge(index - 1, index, draw(edge_labels))
    for u in range(n):
        for v in range(u + 2, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(edge_labels))
    return graph


@st.composite
def pattern_target_pairs(draw):
    """A random target plus a pattern induced on a vertex subset of it.

    Induced patterns guarantee a healthy fraction of positive instances;
    the independent-pattern tests below cover the negative direction.
    """
    target = draw(small_labeled_graphs(min_vertices=3))
    vertices = list(target.vertices())
    keep = {v for v in vertices if draw(st.booleans())}
    # the subset's edges, which leaves out the subset's isolated vertices
    pattern = target.subgraph_by_edges(
        [(u, v) for u, v in target.edge_keys() if u in keep and v in keep]
    )
    if pattern.num_edges == 0:
        pattern = target.subgraph_by_edges([(vertices[0], vertices[1])])
    return pattern, target


def assert_valid_mapping(pattern, target, mapping, label_sensitive):
    assert set(mapping) == set(pattern.vertices())
    assert len(set(mapping.values())) == len(mapping)
    for u, v in pattern.edge_keys():
        assert target.has_edge(mapping[u], mapping[v])
        if label_sensitive:
            assert pattern.edge_label(u, v) == target.edge_label(mapping[u], mapping[v])
    if label_sensitive:
        for vertex in pattern.vertices():
            assert pattern.vertex_label(vertex) == target.vertex_label(mapping[vertex])


class TestRandomizedEquivalence:
    @SETTINGS
    @given(pattern_target_pairs(), st.booleans())
    def test_exists_agrees_on_induced_patterns(self, pair, label_sensitive):
        pattern, target = pair
        gj = is_subgraph_isomorphic(pattern, target, label_sensitive=label_sensitive)
        assert gj == vf2_exists(pattern, target, label_sensitive)
        assert gj  # an induced subgraph always embeds via the identity

    @SETTINGS
    @given(small_labeled_graphs(max_vertices=4), small_labeled_graphs(), st.booleans())
    def test_exists_agrees_on_independent_graphs(self, pattern, target, label_sensitive):
        gj = is_subgraph_isomorphic(pattern, target, label_sensitive=label_sensitive)
        assert gj == vf2_exists(pattern, target, label_sensitive)

    @SETTINGS
    @given(small_labeled_graphs(max_vertices=4), small_labeled_graphs(), st.booleans())
    def test_first_mapping_foundness_and_validity(self, pattern, target, label_sensitive):
        first = join_mappings(pattern, target, label_sensitive, limit=1)
        gj = first[0] if first else None
        vf2 = VF2Matcher(pattern, target, label_sensitive=label_sensitive).first_mapping()
        assert (gj is None) == (vf2 is None)
        if gj is not None:
            assert_valid_mapping(pattern, target, gj, label_sensitive)
            assert_valid_mapping(pattern, target, vf2, label_sensitive)

    @SETTINGS
    @given(small_labeled_graphs(max_vertices=4), small_labeled_graphs(), st.booleans())
    def test_embeddings_are_byte_identical(self, pattern, target, label_sensitive):
        gj = find_embeddings(pattern, target, limit=None, label_sensitive=label_sensitive)
        vf2 = vf2_embeddings(pattern, target, limit=None, label_sensitive=label_sensitive)
        assert gj == vf2.embeddings  # same embeddings, same canonical order


# ----------------------------------------------------------------------
# full-pipeline byte parity
# ----------------------------------------------------------------------
PROBABILITY_THRESHOLD = 0.3
DISTANCE_THRESHOLD = 1
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=12
)
# sampling on purpose: identical events must lead to identical draws
SAMPLING_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)
EXACT_CONFIG = SearchConfig(
    verification=VerificationConfig(method="inclusion_exclusion")
)


@pytest.fixture(scope="module")
def parity_dataset():
    config = PPIDatasetConfig(
        num_graphs=6,
        num_families=2,
        vertices_per_graph=9,
        edges_per_graph=11,
        motif_vertices=4,
        motif_edges=4,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=31)


@pytest.fixture(scope="module")
def parity_workload(parity_dataset):
    return [
        extract_query(parity_dataset.graphs[i % 6].skeleton, 3, rng=400 + i)
        for i in range(3)
    ]


# a branch cap this small makes the joins of the index build and of every
# query split their frontiers (and the family pass rerun per variant)
SPLIT_CAP = 4


def capped(cap):
    """A context in which the join's branch cap is ``cap`` (None: the default)."""
    if cap is None:
        return nullcontext()
    return mock.patch.object(generic_join, "_MAX_OPEN_BRANCHES", cap)


def build_database(dataset, cap, num_shards=None):
    with capped(cap):
        kwargs = {} if num_shards is None else {"num_shards": num_shards, "max_workers": 0}
        database = GraphCatalog.build(
            dataset.graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BoundConfig(method="exact"),
            rng=17,
            **kwargs,
        )
    return database


def answer_tuples(result):
    return [(a.graph_id, a.graph_name, a.probability, a.decided_by) for a in result.answers]


def counter_dict(result) -> dict:
    full = result.statistics.as_dict()
    return {key: value for key, value in full.items() if not key.endswith("_seconds")}


def run_queries(database, cap, workload, config):
    """(answers, counters) per query, executed under the given branch cap."""
    with capped(cap):
        results = database.query_many(
            workload,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=config,
            rng=17,
        )
    return [(answer_tuples(r), counter_dict(r)) for r in results]


def run_top_k(database, cap, workload, config):
    with capped(cap):
        results = [
            database.query_top_k(
                query, 3, DISTANCE_THRESHOLD, config=config, rng=17
            )
            for query in workload
        ]
    return [(answer_tuples(r), counter_dict(r)) for r in results]


class TestPipelineByteParity:
    """Every answer, SSP estimate and per-stage counter must be identical
    whether or not the joins split their frontiers — index build included."""

    @pytest.mark.parametrize("config", [SAMPLING_CONFIG, EXACT_CONFIG], ids=["smp", "exact"])
    def test_threshold_queries(self, parity_dataset, parity_workload, config):
        default = build_database(parity_dataset, None)
        split = build_database(parity_dataset, SPLIT_CAP)
        assert run_queries(default, None, parity_workload, config) == run_queries(
            split, SPLIT_CAP, parity_workload, config
        )

    def test_top_k_queries(self, parity_dataset, parity_workload):
        default = build_database(parity_dataset, None)
        split = build_database(parity_dataset, SPLIT_CAP)
        assert run_top_k(default, None, parity_workload, SAMPLING_CONFIG) == run_top_k(
            split, SPLIT_CAP, parity_workload, SAMPLING_CONFIG
        )

    def test_sharded_queries(self, parity_dataset, parity_workload):
        """The pool arguments a harness still passes change neither side."""
        default = build_database(parity_dataset, None, num_shards=2)
        split = build_database(parity_dataset, SPLIT_CAP, num_shards=2)
        assert run_queries(
            default, None, parity_workload, SAMPLING_CONFIG
        ) == run_queries(split, SPLIT_CAP, parity_workload, SAMPLING_CONFIG)
        assert run_queries(
            default, None, parity_workload, SAMPLING_CONFIG
        ) == run_queries(
            build_database(parity_dataset, None), None, parity_workload, SAMPLING_CONFIG
        )
