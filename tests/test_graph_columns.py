"""The columnar graph codec (``save_graph_columns`` / ``load_graph_columns``,
what snapshot format 3 stores) against the JSON one: any graph list loads to
the same objects either way — values and their types, dict insertion orders,
table entry orders, float bits, mutation versions — and a format-2 and a
format-3 directory of one catalog open to the same store and answer alike."""

from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphCatalog
from repro.datasets import extract_query
from repro.exceptions import GraphError
from repro.graphs import LabeledGraph, NeighborEdgeFactor, ProbabilisticGraph
from repro.graphs.io import load_database, load_graph_columns, save_database, save_graph_columns
from repro.probability import JointProbabilityTable
from repro.probability.factors import Factor
from tests.conftest import unshared_pickle, write_as_format_2
from tests.test_catalog_parity import (
    BOUND_CONFIG,
    DISTANCE_THRESHOLD,
    FEATURE_CONFIG,
    PROBABILITY_THRESHOLD,
    SEARCH_CONFIG,
    answer_tuples,
    apply_random_mutations,
    counter_dict,
    random_database,
    rebuild_from_scratch,
)

# ints, strs and tuples never compare equal across kinds, so any mix is a
# valid vertex set; bools are left out because True == 1 as a dict key
VERTEX_IDS = st.one_of(
    st.integers(-3, 30),
    st.text(alphabet="abxy1", max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from(["p", "q"])),
)
# 1 and True (0 and False) must come back as the type they went in as
LABELS = st.sampled_from([0, 1, 2, True, False, None, "a", "b", "1", "True", 2.5])
NAMES = st.one_of(st.none(), st.text(alphabet="gh0", max_size=4))
# table masses around the constructor's 1e-6 tolerance, and well off it
MASS_SCALES = st.sampled_from([1.0, 1.0, 1.0, 1 + 5e-7, 1 - 9.99e-7, 1 + 1.000001e-6, 2.0, 0.25])


def round_trips(graphs) -> tuple[list, list]:
    """``graphs`` through the JSON database and through the columns."""
    with tempfile.TemporaryDirectory() as scratch:
        save_database(graphs, Path(scratch) / "graphs.json")
        save_graph_columns(graphs, Path(scratch) / "graphs.npz")
        return load_database(Path(scratch) / "graphs.json"), load_graph_columns(
            Path(scratch) / "graphs.npz"
        )


def assert_same_objects(got, want) -> None:
    assert unshared_pickle(got) == unshared_pickle(want)
    assert [g.skeleton.mutation_version for g in got] == [
        g.skeleton.mutation_version for g in want
    ]
    assert [list(g.__dict__) for g in got] == [list(g.__dict__) for g in want]
    assert [[list(f.jpt.__dict__) for f in g.factors] for g in got] == [
        [list(f.jpt.__dict__) for f in g.factors] for g in want
    ]


@st.composite
def probabilistic_graphs(draw) -> ProbabilisticGraph:
    vertices = draw(st.lists(VERTEX_IDS, max_size=6, unique=True))
    skeleton = LabeledGraph(name=draw(NAMES))
    # vertices and edges inserted in drawn order, not the canonical one
    for vertex in vertices:
        skeleton.add_vertex(vertex, draw(LABELS))
    pairs = [(a, b) for a in range(len(vertices)) for b in range(a + 1, len(vertices))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    for a, b in chosen:
        u, v = (vertices[a], vertices[b]) if draw(st.booleans()) else (vertices[b], vertices[a])
        skeleton.add_edge(u, v, draw(LABELS))
    keys = list(skeleton.edge_keys())
    order, groups = draw(st.permutations(keys)), []
    while len(order) > sum(map(len, groups)):
        start = sum(map(len, groups))
        groups.append(order[start : start + draw(st.integers(1, 3))])
    factors = []
    for members in groups:
        extra = draw(st.sampled_from(keys))
        if extra not in members and draw(st.booleans()):  # an edge two factors share
            members = [*members, extra]
        members = tuple(members)
        width = len(members)
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, 1)] * width), min_size=1, max_size=2**width, unique=True
            )
        )
        values = draw(
            st.lists(
                st.floats(1e-3, 10.0, allow_nan=False), min_size=len(rows), max_size=len(rows)
            )
        )
        jpt = JointProbabilityTable(members, dict(zip(rows, values)), normalize=True)
        scale = draw(MASS_SCALES)
        if scale != 1.0:  # hand-built: a table the constructor would refuse
            jpt.table = {row: value * scale for row, value in jpt.table.items()}
        factors.append(NeighborEdgeFactor(members, jpt))
    covered = {key for factor in factors for key in factor.edges}
    assert covered == set(keys)
    return ProbabilisticGraph(skeleton, factors, name=draw(NAMES))


@settings(max_examples=150, deadline=None)
@given(st.lists(probabilistic_graphs(), max_size=4))
def test_columns_load_what_json_loads(graphs):
    want, got = round_trips(graphs)
    assert_same_objects(got, want)


class TestExamples:
    def test_an_empty_database(self):
        want, got = round_trips([])
        assert got == want == []

    def test_label_one_and_label_true_stay_apart(self):
        skeleton = LabeledGraph.from_edges(
            {1: 1, "1": True, (1, "p"): 1.0}, [(1, "1", True), ("1", (1, "p"), 1)]
        )
        jpt = JointProbabilityTable.from_independent_marginals(
            dict.fromkeys(skeleton.edge_keys(), 0.5)
        )
        graph = ProbabilisticGraph(skeleton, [NeighborEdgeFactor(jpt.variables, jpt)])
        want, (got,) = round_trips([graph])
        assert_same_objects([got], want)
        labels = got.skeleton._vertex_labels
        assert [type(labels[v]) for v in (1, "1", (1, "p"))] == [int, bool, float]
        assert type(got.skeleton.edge_label(1, "1")) is bool
        assert type(got.skeleton.edge_label("1", (1, "p"))) is int

    def test_a_denormalised_table_is_rescaled_as_json_rescales_it(self, triangle_graph_001):
        (factor,) = triangle_graph_001.factors
        factor.jpt.table = {row: 3 * value for row, value in factor.jpt.table.items()}
        want, (got,) = round_trips([triangle_graph_001])
        assert_same_objects([got], want)
        assert abs(sum(got.factors[0].jpt.table.values()) - 1.0) < 1e-12

    def test_a_proper_table_skips_the_factor_constructor(self, monkeypatch, overlap_graph_002):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "graphs.npz"
            save_graph_columns([overlap_graph_002], path)
            calls = []
            original = Factor.__init__

            def counting(self, *args, **kwargs):
                calls.append(1)
                original(self, *args, **kwargs)

            monkeypatch.setattr(Factor, "__init__", counting)
            (got,) = load_graph_columns(path)
        assert not calls
        assert [f.jpt.table for f in got.factors] == [
            f.jpt.table for f in overlap_graph_002.factors
        ]

    @pytest.mark.parametrize("content", ["npy", "bytes", "empty"])
    def test_a_file_that_is_no_archive_is_a_graph_error(self, tmp_path, content):
        path = tmp_path / "graphs.npz"
        if content == "npy":
            with open(path, "wb") as handle:
                np.save(handle, np.arange(3))
        else:
            path.write_bytes(b"not an archive" if content == "bytes" else b"")
        with pytest.raises(GraphError, match="corrupt graph columns"):
            load_graph_columns(path)

    def test_the_columns_share_symbols_not_rows(self, small_ppi_database):
        """One stored string per distinct label: the file is far smaller than
        its JSON, and the loaded labels are one object per symbol."""
        graphs = small_ppi_database.graphs
        with tempfile.TemporaryDirectory() as scratch:
            save_database(graphs, Path(scratch) / "graphs.json")
            save_graph_columns(graphs, Path(scratch) / "graphs.npz")
            json_size, columns_size = (
                (Path(scratch) / name).stat().st_size for name in ("graphs.json", "graphs.npz")
            )
            got = load_graph_columns(Path(scratch) / "graphs.npz")
        assert columns_size < json_size / 2
        labels = [label for g in got for label in g.skeleton._vertex_labels.values()]
        assert len({id(label) for label in labels}) == len(set(labels))


# ----------------------------------------------------------------------
# one catalog, snapshot formats 2 and 3
# ----------------------------------------------------------------------
SEED = 4545


def store_state(catalog: GraphCatalog) -> bytes:
    store = catalog._store
    return unshared_pickle(
        (
            store.graphs,
            store.external_ids,
            store.tombstone,
            store.pmi._lower,
            store.pmi._upper,
            store.pmi._present,
            store.structural.counts_matrix(),
            catalog._live,
            catalog._next_external_id,
            catalog.build_root,
            catalog.mutation_generation,
        )
    )


def answers_and_counters(target, query) -> bytes:
    results = []
    for result in (
        target.query(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED
        )
        if isinstance(target, GraphCatalog)
        else target.execute(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
        ),
        target.query_top_k(query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED)
        if isinstance(target, GraphCatalog)
        else target.execute_top_k(query, 3, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED),
    ):
        results.append((answer_tuples(result), counter_dict(result.statistics)))
    return pickle.dumps(results)


@pytest.mark.parametrize("num_ops", [0, 6])
def test_format_2_and_format_3_directories_open_alike(tmp_path, num_ops):
    """The same catalog (its snapshot plus a WAL tail) stored as format 2 and
    as format 3 opens to the same store, and both answer as a fresh build."""
    catalog = GraphCatalog.build(
        random_database(SEED, num_graphs=8).graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=SEED,
        directory=tmp_path / "format_3",
    )
    pool = random_database(SEED + 1, num_graphs=6).graphs
    apply_random_mutations(catalog, pool, SEED, num_ops=num_ops)
    catalog.close()
    shutil.copytree(tmp_path / "format_3", tmp_path / "format_2")
    write_as_format_2(tmp_path / "format_2")
    assert (tmp_path / "format_2" / f"gen_{catalog.generation:08d}" / "graphs.json").exists()

    with GraphCatalog.open(tmp_path / "format_2") as old, GraphCatalog.open(
        tmp_path / "format_3"
    ) as new:
        assert store_state(old) == store_state(new)
        query = extract_query(new.live_items()[0][1].skeleton, 3, rng=SEED)
        fresh = rebuild_from_scratch(new)
        assert (
            answers_and_counters(old, query)
            == answers_and_counters(new, query)
            == answers_and_counters(fresh, query)
        )
        # the next compaction writes format 3 whatever was opened
        old.compact()
        generation = tmp_path / "format_2" / f"gen_{old.generation:08d}"
        assert sorted(p.name for p in generation.glob("graphs.*")) == ["graphs.npz"]
    with GraphCatalog.open(tmp_path / "format_2") as reopened:
        assert answers_and_counters(reopened, query) == answers_and_counters(fresh, query)
