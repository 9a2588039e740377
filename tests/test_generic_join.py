"""Unit tests for the vectorized generic-join matching engine: existence and
the join's assignment rows as mappings, block entry points, compiled-structure
caching against the graph mutation counter, the depth-first split past the
branch cap (results independent of the cap, early exit), truncation
reporting, and the block path held to the block-of-one path and to the VF2
reference — on random blocks (hypothesis) and on corpora drawn with the
end-to-end benchmark's generator settings (mined features, PMI cells,
structural counts)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GraphCatalog
from repro.datasets import PPIDatasetConfig, generate_ppi_database
from repro.graphs import LabeledGraph
from repro.isomorphism import (
    GenericJoinOverflow,
    compile_edge_table,
    compile_join_plan,
    count_embeddings_block,
    find_embeddings,
    find_embeddings_block,
    is_subgraph_isomorphic,
    match_block,
)
from repro.isomorphism import generic_join
from repro.isomorphism.embeddings import (
    enumerate_embeddings_block,
    find_family_events_block,
    reset_truncation_count,
    truncation_count,
)
from repro.isomorphism.generic_join import GraphBlock, compile_variant_family
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.pmi import features as features_module
from repro.pmi.bounds import compute_sip_bounds, draw_worlds
from repro.pmi.features import FeatureMiner
from repro.reference import VF2Matcher, vf2_embeddings, vf2_exists
from repro.structural.feature_index import StructuralFeatureIndex
from repro.utils.rng import BUILD_STREAM, derive_rng

from tests.conftest import join_mappings


def build(vertex_labels, edges):
    return LabeledGraph.from_edges(vertex_labels, edges)


def assert_valid_mapping(pattern, target, mapping, label_sensitive=True):
    """The monomorphism contract of Definition 5, checked directly."""
    assert set(mapping) == set(pattern.vertices())
    assert len(set(mapping.values())) == len(mapping)  # injective
    for u, v in pattern.edge_keys():
        assert target.has_edge(mapping[u], mapping[v])
        if label_sensitive:
            assert pattern.edge_label(u, v) == target.edge_label(mapping[u], mapping[v])
    if label_sensitive:
        for vertex in pattern.vertices():
            assert pattern.vertex_label(vertex) == target.vertex_label(mapping[vertex])


@pytest.fixture
def triangle_target():
    return build(
        {0: "a", 1: "a", 2: "b", 3: "b"},
        [(0, 1, "x"), (0, 2, "x"), (1, 2, "x"), (2, 3, "y")],
    )


class TestMatching:
    def test_single_edge_exists(self, triangle_target):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert is_subgraph_isomorphic(pattern, triangle_target)

    def test_vertex_label_mismatch(self, triangle_target):
        pattern = build({0: "a", 1: "z"}, [(0, 1, "x")])
        assert not is_subgraph_isomorphic(pattern, triangle_target)

    def test_edge_label_mismatch(self, triangle_target):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "y")])
        assert not is_subgraph_isomorphic(pattern, triangle_target)

    def test_label_insensitive_ignores_labels(self, triangle_target):
        pattern = build({0: "p", 1: "q"}, [(0, 1, "zzz")])
        assert not is_subgraph_isomorphic(pattern, triangle_target)
        assert is_subgraph_isomorphic(pattern, triangle_target, label_sensitive=False)

    def test_triangle_in_triangle(self, triangle_target):
        pattern = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "x")])
        assert is_subgraph_isomorphic(pattern, triangle_target)
        mappings = join_mappings(pattern, triangle_target)
        assert mappings
        assert_valid_mapping(pattern, triangle_target, mappings[0])

    def test_triangle_not_in_path(self):
        triangle = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        path = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        assert not is_subgraph_isomorphic(triangle, path)
        assert join_mappings(triangle, path) == []

    def test_non_induced_semantics(self):
        path = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x")])
        triangle = build({0: "a", 1: "a", 2: "a"}, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        assert is_subgraph_isomorphic(path, triangle)

    def test_disconnected_pattern(self, triangle_target):
        pattern = build({0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1, "x"), (2, 3, "y")])
        for mapping in join_mappings(pattern, triangle_target):
            assert_valid_mapping(pattern, triangle_target, mapping)
        assert is_subgraph_isomorphic(pattern, triangle_target)

    def test_all_mappings_match_vf2(self, triangle_target):
        pattern = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "x")])
        gj = join_mappings(pattern, triangle_target)
        vf2 = VF2Matcher(pattern, triangle_target).all_mappings()
        key = lambda m: sorted(m.items(), key=repr)
        assert sorted(gj, key=key) == sorted(vf2, key=key)
        for mapping in gj:
            assert_valid_mapping(pattern, triangle_target, mapping)

    def test_all_mappings_limit(self, triangle_target):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        everything = join_mappings(pattern, triangle_target)
        assert len(everything) == 2
        assert join_mappings(pattern, triangle_target, limit=1) == everything[:1]

    def test_missing_label_in_target(self, triangle_target):
        pattern = build({0: "zzz"}, [])
        assert not is_subgraph_isomorphic(pattern, triangle_target)


class TestBlockAPIs:
    def test_match_block(self, triangle_target):
        pattern = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "x")])
        path_only = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x")])
        targets = [triangle_target, path_only, build({0: "c"}, [])]
        assert match_block(pattern, targets) == [True, False, False]
        assert [vf2_exists(pattern, target) for target in targets] == [True, False, False]

    def test_match_block_empty_pattern(self, triangle_target):
        assert match_block(LabeledGraph(), [triangle_target, LabeledGraph()]) == [True, True]

    def test_find_embeddings_block_matches_sequential(self, triangle_target):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        targets = [triangle_target, build({0: "a", 1: "b"}, [(0, 1, "x")])]
        block = find_embeddings_block(pattern, targets, limit=None)
        assert block == [find_embeddings(pattern, t, limit=None) for t in targets]

    def test_count_embeddings_block(self, triangle_target):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        counts = count_embeddings_block(pattern, [triangle_target], limit=None)
        # two "a" vertices each adjacent to the "b" vertex 2 via an "x" edge
        assert counts == [2]


class TestTruncation:
    @pytest.fixture
    def star(self):
        """One 'a' hub with five 'b' spokes: 5 distinct single-edge embeddings."""
        labels = {0: "a", **{i: "b" for i in range(1, 6)}}
        return build(labels, [(0, i, "x") for i in range(1, 6)])

    @pytest.mark.parametrize("engine", ["generic_join", "vf2"])
    def test_truncated_flag_and_counter(self, star, engine):
        """The flag means the same for the join and for the VF2 reference: a
        distinct embedding beyond the limit exists.  The join's cuts are counted."""
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        block_of_one = lambda p, t, limit: enumerate_embeddings_block(p, (t,), limit)[0]
        enumerate_ = {"generic_join": block_of_one, "vf2": vf2_embeddings}[engine]
        reset_truncation_count()
        full = enumerate_(pattern, star, limit=None)
        assert len(full.embeddings) == 5
        assert not full.truncated

        capped = enumerate_(pattern, star, limit=3)
        assert len(capped.embeddings) == 3
        assert capped.truncated

        # a limit exactly at the number of distinct embeddings is not truncation
        exact = enumerate_(pattern, star, limit=5)
        assert len(exact.embeddings) == 5
        assert not exact.truncated
        assert truncation_count() == (engine == "generic_join")
        reset_truncation_count()

    def test_edgeless_pattern_has_no_embeddings(self, star):
        (result,) = enumerate_embeddings_block(build({0: "a"}, []), (star,))
        assert result.embeddings == [] and not result.truncated


class TestCompiledStructureCaching:
    def test_edge_table_cached_until_mutation(self):
        graph = build({0: "a", 1: "b"}, [(0, 1, "x")])
        table = compile_edge_table(graph)
        assert compile_edge_table(graph) is table
        graph.add_vertex(2, "c")
        rebuilt = compile_edge_table(graph)
        assert rebuilt is not table
        assert rebuilt.num_vertices == 3

    def test_every_mutator_bumps_version(self):
        graph = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "x")])
        version = graph.mutation_version
        graph.add_vertex(3, "d")
        graph.add_edge(2, 3, "y")
        graph.remove_edge(2, 3)
        graph.remove_isolated_vertices()  # drops vertex 3
        assert graph.mutation_version == version + 4
        # no isolated vertices: a no-op sweep must not invalidate caches
        table = compile_edge_table(graph)
        graph.remove_isolated_vertices()
        assert compile_edge_table(graph) is table

    def test_join_plan_cached_per_label_mode(self):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        sensitive = compile_join_plan(pattern, label_sensitive=True)
        insensitive = compile_join_plan(pattern, label_sensitive=False)
        assert sensitive is not insensitive
        assert compile_join_plan(pattern, label_sensitive=True) is sensitive
        pattern.add_vertex(2, "c")
        assert compile_join_plan(pattern, label_sensitive=True) is not sensitive

    def test_copy_does_not_share_cache(self):
        graph = build({0: "a", 1: "b"}, [(0, 1, "x")])
        table = compile_edge_table(graph)
        clone = graph.copy()
        assert compile_edge_table(clone) is not table

    def test_cached_result_reflects_mutation(self):
        """The end-to-end regression: answers must track graph edits."""
        pattern = build({0: "a", 1: "a"}, [(0, 1, "x")])
        target = build({0: "a", 1: "a"}, [])
        assert not is_subgraph_isomorphic(pattern, target)
        target.add_edge(0, 1, "x")
        assert is_subgraph_isomorphic(pattern, target)
        target.remove_edge(0, 1)
        assert not is_subgraph_isomorphic(pattern, target)


class TestOverflowFallback:
    def test_overflow_splits_the_frontier(self, monkeypatch, triangle_target):
        pattern = build({0: "a", 1: "a", 2: "b"}, [(0, 1, "x"), (0, 2, "x"), (1, 2, "x")])
        plan, table = compile_join_plan(pattern), compile_edge_table(triangle_target)
        one_pass = generic_join.execute_join_plan(plan, table)
        expected = find_embeddings(pattern, triangle_target, limit=None)
        monkeypatch.setattr(generic_join, "_MAX_OPEN_BRANCHES", 1)
        with pytest.raises(GenericJoinOverflow):
            generic_join.execute_join_plan(plan, table)
        # the entry points carry on through the split: the same rows, in the same order
        assert np.array_equal(generic_join._join(plan, table), one_pass)
        assert generic_join._join(plan, table, settle_at=1).tolist() == one_pass[:1].tolist()
        assert is_subgraph_isomorphic(pattern, triangle_target)
        assert join_mappings(pattern, triangle_target, limit=1)
        assert_valid_mapping(pattern, triangle_target, join_mappings(pattern, triangle_target)[0])
        assert find_embeddings(pattern, triangle_target, limit=None) == expected


# ----------------------------------------------------------------------
# the block path against the block-of-one path
# ----------------------------------------------------------------------
BLOCK_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
VERTEX_LABELS = st.sampled_from(["a", "a", "b", "b", "c", "rare"])
EDGE_LABELS = st.sampled_from(["x", "x", "y"])
# ints and strs in one graph: indexed in repr order
VERTEX_IDS = [0, 1, "2", 3, "4", 5, "6"]


@st.composite
def random_graphs(draw, min_vertices=0, max_vertices=6, mixed_ids=True):
    """Random labeled graphs, not necessarily connected; may be empty."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    ids = VERTEX_IDS[:n] if mixed_ids and draw(st.booleans()) else list(range(n))
    graph = LabeledGraph()
    for vertex in ids:
        graph.add_vertex(vertex, draw(VERTEX_LABELS))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(min_value=0, max_value=2)) == 0:
                graph.add_edge(ids[i], ids[j], draw(EDGE_LABELS))
    return graph


@st.composite
def blocks_and_patterns(draw):
    """A block (with an empty graph now and then, and one graph object in it
    twice) plus a pattern: either cut out of a block member, so that there
    are matches, or independent — both may be disconnected."""
    graphs = draw(st.lists(random_graphs(), min_size=1, max_size=5))
    graphs.insert(draw(st.integers(0, len(graphs))), graphs[draw(st.integers(0, len(graphs) - 1))])
    donor = draw(st.sampled_from(graphs))
    keys = [key for key in donor.edge_keys() if draw(st.booleans())]
    if keys:
        pattern = donor.subgraph_by_edges(keys)
    else:
        pattern = draw(random_graphs(min_vertices=1, max_vertices=4, mixed_ids=False))
    return graphs, pattern


class TestBlockEqualsBlockOfOne:
    @BLOCK_SETTINGS
    @given(
        blocks_and_patterns(),
        st.sampled_from([None, 1, 2, 200]),
        st.booleans(),
    )
    def test_embeddings_flags_counts_and_matches(self, case, limit, label_sensitive):
        graphs, pattern = case
        options = dict(limit=limit, label_sensitive=label_sensitive)
        reset_truncation_count()
        one_by_one = [enumerate_embeddings_block(pattern, (g,), **options)[0] for g in graphs]
        cut_one_by_one = truncation_count()
        counts_one_by_one = [count_embeddings_block(pattern, (g,), **options)[0] for g in graphs]
        assert truncation_count() == 2 * cut_one_by_one

        for targets in (graphs, GraphBlock(graphs)):
            reset_truncation_count()
            block = enumerate_embeddings_block(pattern, targets, **options)
            assert [r.embeddings for r in block] == [r.embeddings for r in one_by_one]
            assert [r.truncated for r in block] == [r.truncated for r in one_by_one]
            assert truncation_count() == cut_one_by_one

            reset_truncation_count()
            counts = count_embeddings_block(pattern, targets, **options)
            assert counts == counts_one_by_one == [len(r.embeddings) for r in one_by_one]
            assert truncation_count() == cut_one_by_one

            assert match_block(pattern, targets, label_sensitive) == [
                is_subgraph_isomorphic(pattern, graph, label_sensitive) for graph in graphs
            ]
        reset_truncation_count()

    @BLOCK_SETTINGS
    @given(blocks_and_patterns(), st.booleans())
    def test_untruncated_block_equals_vf2(self, case, label_sensitive):
        graphs, pattern = case
        found = find_embeddings_block(pattern, graphs, None, label_sensitive)
        assert found == [
            vf2_embeddings(pattern, graph, None, label_sensitive).embeddings for graph in graphs
        ]
        assert match_block(pattern, graphs, label_sensitive) == [
            vf2_exists(pattern, graph, label_sensitive) for graph in graphs
        ]

    def test_component_start_never_pairs_across_graphs(self):
        """A disconnected pattern whose halves live in different graphs."""
        pattern = build({0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1, "x"), (2, 3, "y")])
        left = build({0: "a", 1: "a"}, [(0, 1, "x")])
        right = build({0: "b", 1: "b"}, [(0, 1, "y")])
        both = build({0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1, "x"), (2, 3, "y")])
        assert match_block(pattern, [left, right, both]) == [False, False, True]
        assert count_embeddings_block(pattern, [left, right, both]) == [0, 0, 1]

    def test_empty_block(self):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert find_embeddings_block(pattern, []) == []
        assert count_embeddings_block(pattern, []) == []
        assert match_block(pattern, []) == []


def cap_bound_results(pattern, graphs, limit, label_sensitive):
    """What the four entry points that run :func:`generic_join._join` return,
    and the join's rows per graph as mappings, a limit settling on a prefix."""
    enumerations = enumerate_embeddings_block(pattern, graphs, limit, label_sensitive)
    events = []
    if pattern.num_edges:  # a family of one member, the pattern itself
        family = compile_variant_family(pattern, [pattern])
        # normalised masks: the same whether or not the pass reruns per variant
        found = find_family_events_block(family, [pattern], graphs, limit)
        events = [masks.tolist() for masks in found]
    return (
        match_block(pattern, graphs, label_sensitive),
        [(result.embeddings, result.truncated) for result in enumerations],
        count_embeddings_block(pattern, graphs, limit, label_sensitive),
        events,
        [join_mappings(pattern, g, label_sensitive, limit) for g in graphs],
    )


def complete_graph(n):
    edges = [(u, v, "x") for u in range(n) for v in range(u + 1, n)]
    return build(dict.fromkeys(range(n), "a"), edges)


class TestCapIndependence:
    """Past the branch cap the join splits its own frontier: every entry point
    returns exactly what the uncapped one pass returns, for every cap."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        blocks_and_patterns(),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([None, 1, 2, 3]),
        st.booleans(),
    )
    def test_results_do_not_depend_on_the_cap(self, case, cap, limit, label_sensitive):
        graphs, pattern = case
        uncapped = cap_bound_results(pattern, graphs, limit, label_sensitive)
        with mock.patch.object(generic_join, "_MAX_OPEN_BRANCHES", cap):
            assert cap_bound_results(pattern, graphs, limit, label_sensitive) == uncapped

    def test_a_lone_overflowing_graph_splits_its_frontier(self, monkeypatch):
        pattern = build({0: "a", 1: "b"}, [(0, 1, "x")])
        small = build({0: "a", 1: "b", 2: "b"}, [(0, 1, "x"), (0, 2, "x")])
        star = build(
            {0: "a", **{i: "b" for i in range(1, 10)}}, [(0, i, "x") for i in range(1, 10)]
        )
        graphs = [small, star, small.copy(), LabeledGraph()]
        expected = find_embeddings_block(pattern, graphs, limit=None)
        monkeypatch.setattr(generic_join, "_MAX_OPEN_BRANCHES", 4)
        with pytest.raises(GenericJoinOverflow):  # the star overflows on its own too
            generic_join.execute_join_plan(compile_join_plan(pattern), compile_edge_table(star))
        assert find_embeddings_block(pattern, graphs, limit=None) == expected
        assert count_embeddings_block(pattern, graphs, limit=None) == [2, 9, 2, 0]
        assert match_block(pattern, graphs) == [True, True, True, False]

    def test_a_settled_graph_stops_expanding(self, monkeypatch):
        """K4 into K14 at a cap of 64: no step opens more than the cap, and an
        existence test or a binding limit opens far fewer branches than the
        one pass (which opens 30,940)."""
        k4, k14 = complete_graph(4), complete_graph(14)
        opened, expand = [], generic_join._expand

        def spy(starts, counts, level):
            branches = expand(starts, counts, level)  # a refused expansion opens nothing
            opened.append(int(counts.sum()))
            return branches

        monkeypatch.setattr(generic_join, "_expand", spy)
        generic_join.execute_join_plan(compile_join_plan(k4), compile_edge_table(k14))
        one_pass = sum(opened)
        runs = {
            "exists": lambda: match_block(k4, [k14]),
            "limit": lambda: enumerate_embeddings_block(k4, (k14,), limit=5),
        }
        expected = {name: run() for name, run in runs.items()}
        monkeypatch.setattr(generic_join, "_MAX_OPEN_BRANCHES", 64)
        for name, run in runs.items():
            del opened[:]
            assert run() == expected[name]
            assert max(opened) <= 64
            assert sum(opened) < one_pass / 10


# ----------------------------------------------------------------------
# index contents on the end-to-end benchmark's corpora
# ----------------------------------------------------------------------
# benchmarks/e2e/corpus.py: (graphs, families, seed salt) per workload; the
# per-graph shape, the mining and the bound configuration are shared
E2E_PROFILES = {
    "verify_heavy": (100, 4, 0),
    "filter_heavy": (200, 8, 1),
    "service_mixed": (100, 4, 2),
    "catalog_churn": (100, 4, 3),
}
E2E_CORPUS_SEED = 20120827
E2E_BUILD_SEED = 20120831
E2E_FEATURES = FeatureSelectionConfig(max_vertices=3, max_features=16)
E2E_BOUNDS = BoundConfig(num_samples=60)


def one_graph_at_a_time(pattern, targets, **options):
    """``find_embeddings_block`` as a loop over blocks of one."""
    graphs = targets.graphs if isinstance(targets, GraphBlock) else targets
    return [find_embeddings(pattern, graph, **options) for graph in graphs]


def feature_fingerprint(feature):
    graph = feature.graph
    vertices = sorted(graph.vertices(), key=repr)
    return (
        feature.feature_id,
        feature.canonical,
        sorted(feature.support),
        [(vertex, graph.vertex_label(vertex)) for vertex in vertices],
        sorted((key, graph.edge_label(*key)) for key in graph.edge_keys()),
    )


@pytest.mark.parametrize("workload", list(E2E_PROFILES))
def test_index_contents_equal_the_block_of_one_oracle(workload, monkeypatch):
    num_graphs, families, salt = E2E_PROFILES[workload]
    dataset = PPIDatasetConfig(
        num_graphs=num_graphs,
        num_families=families,
        vertices_per_graph=30,
        edges_per_graph=45,
        motif_vertices=5,
        motif_edges=6,
        mean_edge_probability=0.55,
        probability_spread=0.2,
    )
    graphs = generate_ppi_database(dataset, rng=E2E_CORPUS_SEED + salt).graphs

    features = FeatureMiner(E2E_FEATURES).mine(graphs)
    with monkeypatch.context() as patched:
        patched.setattr(features_module, "find_embeddings_block", one_graph_at_a_time)
        oracle_features = FeatureMiner(E2E_FEATURES).mine(graphs)
    assert [feature_fingerprint(f) for f in features] == [
        feature_fingerprint(f) for f in oracle_features
    ]

    # a cell is a pure function of (root, id, graph, feature): one oracle
    oracle_cells = []
    oracle_counts = np.zeros((num_graphs, len(features)), dtype=np.int32)
    for graph_id, graph in enumerate(graphs):
        worlds = draw_worlds(graph, E2E_BOUNDS, derive_rng(E2E_BUILD_SEED, BUILD_STREAM, graph_id))
        for column, feature in enumerate(features):
            bounds = compute_sip_bounds(feature.graph, graph, config=E2E_BOUNDS, worlds=worlds)
            oracle_cells.append(None if bounds.is_empty() else (bounds.lower, bounds.upper))
            (oracle_counts[graph_id, column],) = count_embeddings_block(
                feature.graph, (graph.skeleton,), limit=E2E_FEATURES.embedding_limit
            )

    with GraphCatalog.build(
        graphs,
        feature_config=E2E_FEATURES,
        bound_config=E2E_BOUNDS,
        rng=E2E_BUILD_SEED,
    ) as catalog:
        assert [feature_fingerprint(f) for f in catalog.features] == [
            feature_fingerprint(f) for f in features
        ]
        pmi: ProbabilisticMatrixIndex = catalog._store.pmi
        structural: StructuralFeatureIndex = catalog._store.structural
        cells = [
            row.interval(column) if row.present[column] else None
            for row in pmi.rows(range(pmi.num_graphs))
            for column in range(len(features))
        ]
        assert cells == oracle_cells
        assert np.array_equal(structural.counts_matrix(), oracle_counts)
