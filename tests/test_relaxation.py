"""Tests for relaxed query set generation (Lemma 1's U set): the row-based
``relax_query`` held to the copy-and-canonicalise algorithm it replaced
(``reference_relax``, the oracle), its stated order, its sequence surface, and
Lemma 1 itself: some member of ``U`` is in a graph iff the query is within
distance δ of it (Definition 8, ``repro.reference.is_subgraph_similar``)."""

from __future__ import annotations

import pickle
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RelaxationConfig, VerificationConfig, Verifier, relax_query
from repro.exceptions import ConfigurationError, QueryError
from repro.graphs import LabeledGraph, ProbabilisticGraph, VariantRows
from repro.graphs.canonical import MAX_EXACT_VERTICES, canonical_form
from repro.isomorphism import is_subgraph_isomorphic
from repro.reference import is_subgraph_similar, vf2_exists


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

    def test_variants_are_in_discovery_order(self, square_query):
        """δ-subsets in ``combinations`` order over the repr-sorted edge keys,
        the first member of each isomorphism class kept."""
        pentagon_tail = build(
            {0: "a", 1: "b", 2: "a", 3: "c", 4: "b"},
            [(0, 1, "x"), (1, 2, "y"), (2, 3, "x"), (3, 4, "x"), (0, 4, "y"), (1, 3, "x")],
        )
        tail_edges = [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)]
        expected = {
            # the square's six pairs fall into three classes, met at its first three pairs
            (id(square_query), 2): [((0, 1), (0, 3)), ((0, 1), (1, 2)), ((0, 1), (2, 3))],
            # no two deletions of the pentagon with a tail are isomorphic
            (id(pentagon_tail), 1): list(combinations(tail_edges, 1)),
            (id(pentagon_tail), 2): list(combinations(tail_edges, 2)),
        }
        for query, delta in ((square_query, 2), (pentagon_tail, 1), (pentagon_tail, 2)):
            relaxed = relax_query(query, delta)
            assert relaxed.edges == tuple(sorted(query.edge_keys(), key=repr))
            deleted = [
                tuple(key for key in relaxed.edges if not variant.has_edge(*key))
                for variant in relaxed
            ]
            assert deleted == expected[id(query), delta]

    def test_isolated_vertices_dropped_by_default(self):
        star = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (0, 2, "x")])
        relaxed = relax_query(star, 1)
        for variant in relaxed:
            assert all(variant.degree(v) > 0 for v in variant.vertices())

    def test_max_variants_cap(self, square_query):
        relaxed = relax_query(square_query, 2, RelaxationConfig(max_variants=2))
        assert len(relaxed) <= 2

    def test_binding_cap_keeps_the_first_variants_in_order(self, square_query):
        whole = relax_query(square_query, 2)
        capped = relax_query(square_query, 2, RelaxationConfig(max_variants=2))
        assert len(whole) == 3 and list(capped) == whole[:2]


class TestValidation:
    @pytest.mark.parametrize("cap", [0, -1, 1.5, True, None])
    def test_a_cap_that_would_empty_the_set_is_rejected(self, cap):
        """``max_variants=0`` used to plan every query to an empty ``U``:
        nothing verified, nothing answered, no error."""
        with pytest.raises(ConfigurationError, match="max_variants"):
            RelaxationConfig(max_variants=cap)
        assert RelaxationConfig(max_variants=1).max_variants == 1

    @pytest.mark.parametrize("delta", [1.5, "1", True, False, None])
    def test_a_distance_that_is_no_integer_is_a_query_error(self, square_query, delta):
        """As the planner and the exact scan refuse it: ``True`` was taken as 1
        and 1.5 or ``"1"`` raised a builtin ``TypeError``."""
        with pytest.raises(QueryError, match="distance threshold must be an integer"):
            relax_query(square_query, delta)
        graph = ProbabilisticGraph.from_edge_probabilities(
            square_query, dict.fromkeys(square_query.edge_keys(), 0.5)
        )
        with pytest.raises(QueryError, match="distance threshold must be an integer"):
            Verifier().subgraph_similarity_probability(square_query, graph, delta)

    def test_an_integer_like_distance_is_accepted(self, square_query):
        assert list(relax_query(square_query, np.int64(1))) == list(relax_query(square_query, 1))

    def test_negative_distance_rejected(self, square_query):
        with pytest.raises(QueryError):
            relax_query(square_query, -1)

    def test_distance_as_large_as_query_rejected(self, square_query):
        with pytest.raises(QueryError):
            relax_query(square_query, square_query.num_edges)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            relax_query(LabeledGraph.from_edges({0: "a"}, []), 0)


# ----------------------------------------------------------------------
# the oracle: the algorithm relax_query replaced, kept verbatim
# ----------------------------------------------------------------------
def reference_relax(query, distance_threshold, config=None):
    """One copy of the query per δ-subset, each canonicalised; the result
    sorted by canonical string (the order production no longer keeps)."""
    cfg = config or RelaxationConfig()
    if distance_threshold == 0:
        return [query.copy()]
    edge_keys = sorted(query.edge_keys(), key=repr)
    variants: dict[str, LabeledGraph] = {}
    for deletion in combinations(edge_keys, distance_threshold):
        relaxed = query.copy()
        for u, v in deletion:
            relaxed.remove_edge(u, v)
        relaxed.remove_isolated_vertices()
        if relaxed.num_edges == 0:
            continue
        key = canonical_form(relaxed)
        if key not in variants:
            variants[key] = relaxed
        if len(variants) >= cfg.max_variants:
            break
    ordered = [variants[key] for key in sorted(variants)]
    return ordered[: cfg.max_variants]


EDGE_LABELS = ["x", "y"]
UNCAPPED = 10_000


@st.composite
def relaxation_cases(draw):
    """A connected query of 3-7 edges over few labels — 1-3 vertex labels, 1-2
    edge labels, so invariants collide and isomorphic duplicates exist — and a δ."""
    vertex_labels = "abc"[: draw(st.integers(1, 3))]
    edge_labels = EDGE_LABELS[: draw(st.integers(1, 2))]
    num_edges = draw(st.integers(3, 7))
    graph = LabeledGraph()
    graph.add_vertex(0, draw(st.sampled_from(vertex_labels)))
    while graph.num_edges < num_edges:
        n = graph.num_vertices
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)]
        if missing and draw(st.booleans()):  # close a cycle
            u, v = draw(st.sampled_from(missing))
        else:  # grow the tree
            u, v = draw(st.integers(0, n - 1)), n
            graph.add_vertex(v, draw(st.sampled_from(vertex_labels)))
        graph.add_edge(u, v, draw(st.sampled_from(edge_labels)))
    return graph, draw(st.integers(1, min(3, num_edges - 1)))


def forms_of(variants) -> Counter:
    return Counter(canonical_form(variant) for variant in variants)


class TestAgainstTheReference:
    SETTINGS = settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )

    @SETTINGS
    @given(case=relaxation_cases())
    def test_same_isomorphism_classes(self, case):
        query, delta = case
        config = RelaxationConfig(max_variants=UNCAPPED)
        relaxed = relax_query(query, delta, config)
        reference = reference_relax(query, delta, config)
        assert forms_of(relaxed) == forms_of(reference)
        assert set(forms_of(relaxed).values()) <= {1}  # no class twice
        for variant in relaxed:
            assert variant.is_subgraph_of(query)
            assert variant.num_edges == query.num_edges - delta

    @SETTINGS
    @given(case=relaxation_cases(), cap=st.integers(1, 4))
    def test_a_binding_cap_keeps_distinct_members_of_the_whole_set(self, case, cap):
        query, delta = case
        whole = reference_relax(query, delta, RelaxationConfig(max_variants=UNCAPPED))
        capped = relax_query(query, delta, RelaxationConfig(max_variants=cap))
        assert len(capped) == min(cap, len(whole))
        assert set(forms_of(capped).values()) <= {1}
        assert forms_of(capped).keys() <= forms_of(whole).keys()
        # ... and they are the first ones of the uncapped order
        uncapped = relax_query(query, delta, RelaxationConfig(max_variants=UNCAPPED))
        assert list(capped) == uncapped[: len(capped)]

    @SETTINGS
    @given(case=relaxation_cases())
    def test_the_result_is_a_sequence_of_graphs(self, case):
        query, delta = case
        relaxed = relax_query(query, delta)
        assert isinstance(relaxed, VariantRows) and relaxed.materialized_count() == 0
        items = list(relaxed)
        assert len(items) == len(relaxed) == relaxed.materialized_count()
        assert all(isinstance(item, LabeledGraph) and item.name == query.name for item in items)
        assert all(relaxed[k] is items[k] for k in range(len(items)))  # built once
        assert relaxed[1:] == items[1:] and relaxed[:-1] == items[:-1]
        assert relaxed[-1] is items[-1] and items[0] in relaxed
        with pytest.raises(IndexError):
            relaxed[len(items)]
        shipped = pickle.loads(pickle.dumps(relaxed, protocol=pickle.HIGHEST_PROTOCOL))
        assert shipped.materialized_count() == 0  # masks travel, graphs do not
        assert list(shipped) == items and shipped.base == query
        assert (shipped.held == relaxed.held).all()
        # each row is its graph: edges and vertices kept
        for k, item in enumerate(items):
            kept = {key for key, held in zip(relaxed.edges, relaxed.kept[k]) if held}
            present = {v for v, held in zip(relaxed.vertices, relaxed.present[k]) if held}
            assert (set(item.edge_keys()), set(item.vertices())) == (kept, present)


@st.composite
def similarity_cases(draw):
    """A relaxation case and a target skeleton: the query with up to δ + 1
    edges removed, now and then a vertex relabeled, and 0-2 stray edges, so
    that both answers come up."""
    query, delta = draw(relaxation_cases())
    target = query.copy()
    edges = sorted(query.edge_keys())
    for key in draw(st.sets(st.sampled_from(edges), max_size=delta + 1)):
        target.remove_edge(*key)
    if draw(st.booleans()):
        target.add_vertex(draw(st.sampled_from(sorted(query.vertices()))), "c")  # relabels it
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.sampled_from(sorted(target.vertices())))
        v = target.num_vertices + 1
        target.add_vertex(v, draw(st.sampled_from("abc")))
        target.add_edge(u, v, draw(st.sampled_from(EDGE_LABELS)))
    return query, delta, target


def some_variant_embeds(query, delta, target) -> bool:
    relaxed = relax_query(query, delta, RelaxationConfig(max_variants=UNCAPPED))
    return any(is_subgraph_isomorphic(variant, target) for variant in relaxed)


class TestLemmaOne:
    """``∪ rq ⊆iso g`` over the δ-deletion variants is Definition 8's
    ``dis(q, g) <= δ``: the remainder is edge-induced, may be disconnected and
    keeps no isolated vertex."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=similarity_cases())
    def test_some_variant_embeds_iff_the_query_is_similar(self, case):
        query, delta, target = case
        assert some_variant_embeds(query, delta, target) == is_subgraph_similar(
            query, target, delta
        )

    def test_a_dropped_end_vertex_is_not_required(self):
        path = build({0: "a", 1: "b", 2: "c"}, [(0, 1, "x"), (1, 2, "x")])
        target = build({0: "a", 1: "b"}, [(0, 1, "x")])
        assert is_subgraph_similar(path, target, 1)
        assert some_variant_embeds(path, 1, target)

    def test_a_disconnected_remainder_counts(self):
        path = build({0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")])
        target = build({0: "a", 1: "b", 2: "c", 3: "d"}, [(0, 1, "x"), (2, 3, "x")])
        assert is_subgraph_similar(path, target, 1)
        assert some_variant_embeds(path, 1, target)


class TestVariantRows:
    def test_a_graph_list_becomes_rows_and_anything_else_is_refused(self, square_query):
        path = square_query.copy()
        path.remove_edge(0, 3)
        rows = VariantRows.of(square_query, [path])
        assert list(rows) == [path] and rows[0] is path
        assert rows.kept.tolist() == [[True, False, True, True]]
        assert rows.present.all(axis=1).tolist() == [True]
        assert VariantRows.of(square_query, rows) is rows
        relabeled = square_query.copy()
        relabeled.add_edge(0, 3, "y")
        elsewhere = build({7: "a", 8: "b"}, [(7, 8, "x")])
        edgeless = build({0: "a"}, [])
        for stranger in (relabeled, elsewhere, edgeless):
            with pytest.raises(QueryError, match="minus some edges"):
                VariantRows.of(square_query, [path, stranger])
            with pytest.raises(QueryError, match="minus some edges"):
                rows.append(stranger)
        assert len(rows) == 1

    def test_holding_is_an_edge_subset_test(self, square_query):
        rows = relax_query(square_query, 1)  # one class: three of the four edges
        (kept,) = (set(variant.edge_keys()) for variant in rows)
        (gone,) = set(square_query.edge_keys()) - kept
        inside = sorted(kept)[:2]
        assert rows.holding([inside, [gone], [gone, inside[0]], []]).tolist() == [
            [True],
            [False],
            [False],
            [True],
        ]


# ----------------------------------------------------------------------
# above MAX_EXACT_VERTICES the canonical form is a refinement hash
# ----------------------------------------------------------------------
def isomorphic(a, b) -> bool:
    """Equal counts make ``⊆iso`` an isomorphism test (VF2, the reference)."""
    return (a.num_vertices, a.num_edges) == (b.num_vertices, b.num_edges) and vf2_exists(a, b)


def exact_classes(query, delta) -> dict[tuple, list]:
    """The δ-deletion variants of ``query`` (isolated vertices dropped), one per
    isomorphism class: bucketed by a degree invariant, told apart within a
    bucket by VF2."""
    buckets: dict[tuple, list] = {}
    for deleted in combinations(sorted(query.edge_keys(), key=repr), delta):
        variant = query.copy()
        for u, v in deleted:
            variant.remove_edge(u, v)
        variant.remove_isolated_vertices()
        class_of(variant, buckets, add=True)
    return buckets


def class_of(graph, buckets, add=False) -> tuple[tuple, int] | None:
    """(invariant, position) of the class of ``graph`` in ``buckets``; the
    invariant is each vertex's degree with its neighbours' degrees."""
    degree = graph.degree
    invariant = tuple(
        sorted((degree(v), *sorted(map(degree, graph.neighbors(v)))) for v in graph.vertices())
    )
    bucket = buckets.setdefault(invariant, [])
    for position, member in enumerate(bucket):
        if isomorphic(graph, member):
            return invariant, position
    if add:
        bucket.append(graph)
    return None


def single_label_query(seed: int) -> LabeledGraph:
    """A connected query on 9-11 vertices, one vertex and one edge label: a
    random spanning tree plus 2-4 chords."""
    rng = random.Random(seed)
    n = rng.randint(MAX_EXACT_VERTICES + 1, MAX_EXACT_VERTICES + 3)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + rng.randint(2, 4):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build(dict.fromkeys(range(n), "a"), [(u, v, "x") for u, v in edges])


def assert_one_member_per_class(relaxed, buckets):
    classes = [class_of(variant, buckets) for variant in relaxed]
    assert None not in classes and len(set(classes)) == len(classes)
    assert len(classes) == sum(map(len, buckets.values()))


# two of its δ = 2 variants share a refinement hash and are not isomorphic
HASH_COLLISION_QUERY = build(
    dict.fromkeys(range(9), "a"),
    [(u, v, "x") for u, v in [(0, 5), (0, 6), (0, 8), (1, 4), (1, 6), (1, 8), (2, 6),
                              (3, 5), (3, 6), (4, 8), (7, 8)]],
)


class TestRefinementHashCollisions:
    def test_variants_that_share_a_hash_are_both_kept(self):
        relaxed = relax_query(HASH_COLLISION_QUERY, 2)
        assert_one_member_per_class(relaxed, exact_classes(HASH_COLLISION_QUERY, 2))
        assert len(relaxed) == 50
        dropped = HASH_COLLISION_QUERY.copy()
        dropped.remove_edge(0, 8)
        dropped.remove_edge(1, 6)
        assert canonical_form(dropped).startswith("wl:")
        assert any(isomorphic(dropped, variant) for variant in relaxed)

    def test_no_false_dismissal_of_the_merged_variant(self):
        """A graph equal to the variant the hash merged away: Pr = 0.9^9."""
        skeleton = HASH_COLLISION_QUERY.copy()
        skeleton.remove_edge(0, 8)
        skeleton.remove_edge(1, 6)
        graph = ProbabilisticGraph.from_edge_probabilities(
            skeleton, dict.fromkeys(skeleton.edge_keys(), 0.9)
        )
        for method in ("sampling", "inclusion_exclusion"):
            verifier = Verifier(VerificationConfig(method=method))
            probability = verifier.subgraph_similarity_probability(
                HASH_COLLISION_QUERY, graph, 2, rng=1
            )
            assert probability == pytest.approx(0.9**9)

    def test_classes_are_exact_on_larger_single_label_queries(self):
        # the queries of seeds 84 and 94 have non-isomorphic δ = 2 variants
        # that share a refinement hash (2 of the first 150 seeds do)
        for seed in (*range(10), 84, 94):
            query = single_label_query(seed)
            for delta in (1, 2):
                relaxed = relax_query(query, delta, RelaxationConfig(max_variants=UNCAPPED))
                assert_one_member_per_class(relaxed, exact_classes(query, delta))
