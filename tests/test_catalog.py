"""Unit and edge-case tests for the mutable GraphCatalog layer.

Covers the mutation API (add/remove/update and their error paths), the
append/tombstone/compaction lifecycle — including its edge cases:
remove-then-re-add of the same external id, compaction with nothing to reclaim,
querying an all-tombstoned database, and more shards asked for than live
graphs — the checks on the two retired pool arguments, snapshots a pooled
build wrote, plus the low-level building blocks (PMI and structural row
concat).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import GraphCatalog, QueryPlanner, SearchConfig, VerificationConfig
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.core.wal import WriteAheadLog, wal_filename
from repro.exceptions import CatalogError, ConfigurationError, IndexError_
from repro.pmi import BoundConfig, FeatureSelectionConfig, ProbabilisticMatrixIndex
from repro.structural.feature_index import StructuralFeatureIndex

from tests.conftest import assert_same_cells, assert_same_postings, live_ids

FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=10
)
BOUND_CONFIG = BoundConfig(num_samples=40)
SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=80)
)
SEED = 20120527


def small_database(seed: int = SEED, num_graphs: int = 8):
    config = PPIDatasetConfig(
        num_graphs=num_graphs,
        num_families=2,
        vertices_per_graph=8,
        edges_per_graph=9,
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    return generate_ppi_database(config, rng=seed)


@pytest.fixture(scope="module")
def base_graphs():
    return small_database().graphs


@pytest.fixture(scope="module")
def extra_graphs():
    return small_database(seed=SEED + 1, num_graphs=6).graphs


@pytest.fixture(scope="module")
def query(base_graphs):
    return extract_query(base_graphs[0].skeleton, 3, rng=SEED)


@pytest.fixture
def catalog(base_graphs):
    return GraphCatalog.build(
        base_graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7
    )


def answers(result):
    return [(a.graph_id, a.probability, a.decided_by) for a in result.answers]


def counters(result) -> dict:
    """The statistics without a wall time: what parity compares."""
    full = result.statistics.as_dict()
    return {key: value for key, value in full.items() if not key.endswith("_seconds")}


# ----------------------------------------------------------------------
# mutation API
# ----------------------------------------------------------------------
class TestMutationApi:
    def test_build_seeds_row_position_ids(self, catalog, base_graphs):
        assert catalog.num_live == len(base_graphs)
        assert live_ids(catalog) == list(range(len(base_graphs)))

    def test_add_assigns_next_free_id(self, catalog, extra_graphs):
        assert catalog.add_graph(extra_graphs[0]) == 8
        assert catalog.add_graph(extra_graphs[1]) == 9
        assert catalog.num_live == 10
        assert catalog.num_live + catalog.tombstone_count == 10  # storage rows

    def test_add_with_explicit_id_advances_counter(self, catalog, extra_graphs):
        assert catalog.add_graph(extra_graphs[0], external_id=50) == 50
        assert catalog.add_graph(extra_graphs[1]) == 51

    def test_add_live_id_rejected(self, catalog, extra_graphs):
        with pytest.raises(CatalogError, match="live"):
            catalog.add_graph(extra_graphs[0], external_id=3)

    def test_add_invalid_id_rejected(self, catalog, extra_graphs):
        with pytest.raises(CatalogError, match="integer"):
            catalog.add_graph(extra_graphs[0], external_id="seven")
        with pytest.raises(CatalogError, match=">= 0"):
            catalog.add_graph(extra_graphs[0], external_id=-1)

    def test_add_bool_id_rejected(self, catalog, extra_graphs):
        """A bool is not an id, though ``operator.index(True)`` is 1: with ids
        0 and 1 free, neither flag may claim one."""
        catalog.remove_graph(0)
        catalog.remove_graph(1)
        for flag in (True, False):
            with pytest.raises(CatalogError, match="integer"):
                catalog.add_graph(extra_graphs[0], external_id=flag)
        assert live_ids(catalog) == list(range(2, 8))

    @pytest.mark.parametrize("bad_id", [True, False, 1.5, "1"])
    def test_every_id_taking_entry_point_refuses_a_non_integer(
        self, catalog, extra_graphs, bad_id
    ):
        """``remove_graph`` / ``update_graph`` run the check ``add_graph``
        runs: ``True`` is not id 1, nor ``False`` id 0."""
        for entry in (
            lambda: catalog.remove_graph(bad_id),
            lambda: catalog.update_graph(bad_id, extra_graphs[0]),
        ):
            with pytest.raises(CatalogError, match="integer"):
                entry()
        assert live_ids(catalog) == list(range(8))
        assert catalog.tombstone_count == 0

    def test_integer_like_ids_still_name_their_graph(self, catalog, extra_graphs):
        catalog.update_graph(np.int64(2), extra_graphs[0])
        assert dict(catalog.live_items())[2] is extra_graphs[0]
        catalog.remove_graph(np.int64(2))
        assert 2 not in live_ids(catalog)

    def test_a_refused_bool_id_is_never_logged(self, base_graphs, tmp_path):
        durable = GraphCatalog.build(
            base_graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7,
            directory=tmp_path,
        )
        with pytest.raises(CatalogError, match="integer"):
            durable.remove_graph(True)
        assert durable.wal_records == 0
        durable.close()
        assert live_ids(GraphCatalog.open(tmp_path)) == list(range(8))

    def test_open_refuses_a_logged_bool_id(self, base_graphs, tmp_path):
        """The catalog logs plain ints, so a record naming ``true`` was not
        written by it: ``open`` refuses it rather than remove id 1."""
        GraphCatalog.build(
            base_graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7,
            directory=tmp_path,
        ).close()
        wal, _ = WriteAheadLog.open(tmp_path / wal_filename(0), generation=0)
        wal.append({"op": "remove", "external_id": True})
        wal.close()
        with pytest.raises(CatalogError, match="integer"):
            GraphCatalog.open(tmp_path)

    def test_remove_tombstones_without_reclaiming(self, catalog):
        catalog.remove_graph(3)
        assert catalog.num_live == 7
        assert catalog.tombstone_count == 1
        assert 3 not in live_ids(catalog)

    def test_remove_unknown_id_raises(self, catalog):
        with pytest.raises(CatalogError, match="not live"):
            catalog.remove_graph(99)
        catalog.remove_graph(3)
        with pytest.raises(CatalogError, match="not live"):
            catalog.remove_graph(3)

    def test_update_preserves_external_id(self, catalog, extra_graphs):
        catalog.update_graph(2, extra_graphs[0])
        assert catalog.num_live == 8
        assert 2 in live_ids(catalog)
        assert dict(catalog.live_items())[2] is extra_graphs[0]
        assert catalog.tombstone_count == 1
        assert catalog.num_live + catalog.tombstone_count == 9  # storage rows

    def test_update_unknown_id_raises(self, catalog, extra_graphs):
        with pytest.raises(CatalogError, match="not live"):
            catalog.update_graph(99, extra_graphs[0])

    def test_remove_then_readd_same_id(self, catalog, extra_graphs, query):
        catalog.remove_graph(5)
        assert catalog.add_graph(extra_graphs[2], external_id=5) == 5
        assert dict(catalog.live_items())[5] is extra_graphs[2]
        assert catalog.num_live == 8
        assert catalog.tombstone_count == 1  # the old row 5, awaiting compact
        # the revived id must appear at most once in any answer list
        result = catalog.query_top_k(
            query, catalog.num_live, 1, config=SEARCH_CONFIG, rng=11
        )
        ids = [a.graph_id for a in result.answers]
        assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# compaction lifecycle
# ----------------------------------------------------------------------
class TestCompaction:
    def test_compact_without_mutations_is_identity(self, catalog, query):
        before = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert catalog.num_live + catalog.tombstone_count == 8  # storage rows
        catalog.compact()
        assert catalog.num_live + catalog.tombstone_count == 8
        assert catalog.tombstone_count == 0
        assert catalog.num_live == 8
        after = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert answers(after) == answers(before)

    def test_compact_reclaims_tombstones(
        self, catalog, extra_graphs, query
    ):
        catalog.add_graph(extra_graphs[0])
        catalog.remove_graph(1)
        catalog.update_graph(6, extra_graphs[1])
        before = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        live_before = live_ids(catalog)
        catalog.compact()
        assert catalog.num_live + catalog.tombstone_count == len(live_before)
        assert catalog.tombstone_count == 0
        assert live_ids(catalog) == live_before
        after = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert answers(after) == answers(before)

    def test_query_all_tombstoned(self, catalog, query):
        for external_id in live_ids(catalog):
            catalog.remove_graph(external_id)
        result = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert result.answers == []
        assert result.statistics.database_size == 0
        top = catalog.query_top_k(query, 3, 1, config=SEARCH_CONFIG, rng=11)
        assert top.answers == []

    def test_compact_all_tombstoned_then_revive(self, catalog, extra_graphs, query):
        for external_id in live_ids(catalog):
            catalog.remove_graph(external_id)
        catalog.compact()
        assert catalog.num_live == 0
        assert catalog.num_live + catalog.tombstone_count == catalog.tombstone_count == 0
        assert catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11).answers == []
        # ids continue from the high-water mark, and querying works again
        assert catalog.add_graph(extra_graphs[0]) == 8
        result = catalog.query_top_k(query, 1, 1, config=SEARCH_CONFIG, rng=11)
        assert {a.graph_id for a in result.answers} <= {8}


# ----------------------------------------------------------------------
# the pool arguments: checked, then ignored
# ----------------------------------------------------------------------
class TestShardedCatalog:
    def test_rebalance_with_more_shards_than_live_graphs(
        self, base_graphs, query
    ):
        catalog = GraphCatalog.build(
            base_graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7,
            num_shards=4,
        )
        sequential = GraphCatalog.build(
            base_graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7
        )
        for external_id in range(6):  # drop to 2 live graphs, K=4 requested
            catalog.remove_graph(external_id)
            sequential.remove_graph(external_id)
        catalog.compact()
        assert catalog.num_live == 2
        result = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        expected = sequential.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert answers(result) == answers(expected)

    @pytest.mark.parametrize("entry", ["build", "from_index", "open"])
    def test_negative_max_workers_rejected_at_construction(
        self, base_graphs, tmp_path, entry
    ):
        """A negative pool width is a configuration error where the catalog
        is constructed, never as late as the first query."""
        catalog = GraphCatalog.build(
            base_graphs,
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7,
            num_shards=2,
            directory=tmp_path,
        )
        catalog.close()
        store = catalog._store
        attempts = {
            "build": lambda: GraphCatalog.build(
                base_graphs[:2],
                feature_config=FEATURE_CONFIG,
                bound_config=BOUND_CONFIG,
                rng=7,
                max_workers=-5,
            ),
            "from_index": lambda: GraphCatalog.from_index(
                store.graphs, store.pmi, store.structural, max_workers=-5
            ),
            "open": lambda: GraphCatalog.open(tmp_path, max_workers=-5),
        }
        with pytest.raises(ConfigurationError, match="max_workers"):
            attempts[entry]()

    @pytest.mark.parametrize(
        "entry, argument, value",
        [
            (entry, argument, value)
            for entry in ("build", "from_index", "open")
            for argument, value in (
                ("num_shards", 1.5),
                ("num_shards", "2"),
                ("num_shards", True),
                ("num_shards", 0),
                ("max_workers", 1.5),
                ("max_workers", "2"),
                ("max_workers", True),
                ("max_workers", -1),
            )
            if (entry, argument) != ("open", "num_shards")  # open takes no num_shards
        ],
    )
    def test_pool_arguments_are_integers_and_never_bools(
        self, base_graphs, tmp_path, argument, value, entry
    ):
        """Each pool argument is checked once where it is handed over: an
        integer (``operator.index``), never a bool, in range — else a
        :class:`ConfigurationError` naming it, not a raw ``TypeError`` and
        not a width of ``True``."""
        catalog = GraphCatalog.build(
            base_graphs[:3], feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7,
            directory=tmp_path,
        )
        catalog.close()
        store = catalog._store
        attempts = {
            "build": lambda: GraphCatalog.build(
                base_graphs[:2], feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG,
                rng=7, **{argument: value},
            ),
            "from_index": lambda: GraphCatalog.from_index(
                store.graphs, store.pmi, store.structural, **{argument: value}
            ),
            "open": lambda: GraphCatalog.open(tmp_path, **{argument: value}),
        }
        with pytest.raises(ConfigurationError, match=argument):
            attempts[entry]()

    def test_integer_like_pool_arguments_are_taken_and_ignored(self, base_graphs, query):
        """Integer-like pool arguments pass the check, and then change
        nothing: the catalog's planner is the store's one ``QueryPlanner``
        and answers as a catalog built without them."""
        catalog = GraphCatalog.build(
            base_graphs[:3],
            feature_config=FEATURE_CONFIG,
            bound_config=BOUND_CONFIG,
            rng=7,
            num_shards=np.int64(2),
            max_workers=np.int32(2),
        )
        plain = GraphCatalog.build(
            base_graphs[:3], feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7
        )
        assert type(catalog.planner()) is QueryPlanner
        assert catalog.planner().pmi is catalog._store.pmi
        got = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        want = plain.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert answers(got) == answers(want) and counters(got) == counters(want)

    @pytest.mark.parametrize("written", [2, 4, None], ids=["2", "4", "absent"])
    def test_a_snapshot_a_pooled_build_wrote_opens_and_answers_identically(
        self, base_graphs, query, tmp_path, written
    ):
        """A directory whose ``catalog.json`` says ``"num_shards": 2`` — what
        a build with a two-shard pool wrote — opens and answers exactly as
        the catalog that wrote it; this build reads the key nowhere and
        writes none, so a snapshot without it opens too."""
        import json

        catalog = GraphCatalog.build(
            base_graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7,
            directory=tmp_path,
        )
        catalog.remove_graph(3)
        want = catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        want_top = catalog.query_top_k(query, 2, 1, config=SEARCH_CONFIG, rng=11)
        catalog.close()
        (meta_path,) = tmp_path.glob("gen_*/catalog.json")
        meta = json.loads(meta_path.read_text())
        assert "num_shards" not in meta
        if written is not None:
            meta["num_shards"] = written
        meta_path.write_text(json.dumps(meta))
        reopened = GraphCatalog.open(tmp_path, max_workers=2)
        got = reopened.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        got_top = reopened.query_top_k(query, 2, 1, config=SEARCH_CONFIG, rng=11)
        reopened.close()
        assert pickle.dumps((got.answers, got_top.answers)) == pickle.dumps(
            (want.answers, want_top.answers)
        )
        assert counters(got) == counters(want)
        assert counters(got_top) == counters(want_top)


# ----------------------------------------------------------------------
# index adoption
# ----------------------------------------------------------------------
class TestEngineAdoption:
    def test_to_catalog_answers_match_engine(self, base_graphs, query):
        """Indexes built directly and adopted into a catalog
        (``GraphCatalog.from_index``) answer as ``GraphCatalog.build`` does."""
        built = GraphCatalog.build(
            base_graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7
        )
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        structural = StructuralFeatureIndex(
            embedding_limit=FEATURE_CONFIG.embedding_limit
        ).build([g.skeleton for g in base_graphs], pmi.features)
        adopted = GraphCatalog.from_index(base_graphs, pmi, structural)
        expected = built.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        result = adopted.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert answers(result) == answers(expected)

    def test_from_index_requires_build_root(self, base_graphs):
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        structural = StructuralFeatureIndex(
            embedding_limit=FEATURE_CONFIG.embedding_limit
        ).build([g.skeleton for g in base_graphs], pmi.features)
        pmi.build_root = None  # simulate a pre-catalog persisted payload
        with pytest.raises(CatalogError, match="build root"):
            GraphCatalog.from_index(base_graphs, pmi, structural)

    @pytest.mark.parametrize("case", ["more rows", "fewer rows", "other features"])
    def test_from_index_refuses_a_structural_index_the_pmi_disagrees_with(
        self, base_graphs, extra_graphs, case
    ):
        """Adoption checks the structural index against the PMI: a mutation's
        structural row is appended after its WAL record, when nothing may
        refuse it, so a mismatch must surface here."""
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        skeletons = [g.skeleton for g in [*base_graphs, *extra_graphs]]
        rows, features = {
            "more rows": (skeletons, pmi.features),
            "fewer rows": (skeletons[:6], pmi.features),
            "other features": (skeletons[: len(base_graphs)], pmi.features[:3]),
        }[case]
        structural = StructuralFeatureIndex(
            embedding_limit=FEATURE_CONFIG.embedding_limit
        ).build(rows, features)
        with pytest.raises(CatalogError, match="structural index"):
            GraphCatalog.from_index(base_graphs, pmi, structural)

    @pytest.mark.parametrize("limit", [1, 63, None])
    def test_from_index_refuses_a_structural_index_counting_under_another_limit(
        self, base_graphs, limit
    ):
        """Appended rows and ``compact()`` count embeddings under the PMI's
        ``feature_config.embedding_limit``; a structural index adopted under
        another limit would change answers at the first compaction."""
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        assert FEATURE_CONFIG.embedding_limit not in (1, 63, None)
        structural = StructuralFeatureIndex(embedding_limit=limit).build(
            [g.skeleton for g in base_graphs], pmi.features
        )
        with pytest.raises(CatalogError, match="embeddings per feature"):
            GraphCatalog.from_index(base_graphs, pmi, structural)

    def test_build_root_round_trips_through_persistence(self, base_graphs, tmp_path):
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        pmi.save(tmp_path)
        loaded = ProbabilisticMatrixIndex.load(tmp_path)
        assert loaded.build_root == pmi.build_root == 7


# ----------------------------------------------------------------------
# building blocks: append / concat
# ----------------------------------------------------------------------
class TestBuildingBlocks:
    def test_pmi_append_matches_scratch_build(self, base_graphs):
        """Rows built apart under their stable ids and stacked with
        ``concat_rows`` — how a catalog appends — equal one build's rows."""
        full = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        grown = ProbabilisticMatrixIndex.concat_rows(
            [
                ProbabilisticMatrixIndex(
                    feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
                ).build(part, features=full.features, rng=7, graph_ids=ids)
                for part, ids in (
                    (base_graphs[:5], range(5)),
                    (base_graphs[5:], range(5, len(base_graphs))),
                )
            ]
        )
        assert grown.num_graphs == full.num_graphs
        assert_same_cells(grown, full)

    def test_pmi_append_validates_id_count(self, base_graphs):
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs[:3], rng=7)
        with pytest.raises(IndexError_, match="entries"):
            ProbabilisticMatrixIndex(
                feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
            ).build(base_graphs[3:5], features=pmi.features, rng=7, graph_ids=[9])

    def test_concat_rows_reassembles_subsets(self, base_graphs):
        full = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        merged = ProbabilisticMatrixIndex.concat_rows(
            [full.subset(range(0, 3)), full.subset(range(3, len(base_graphs)))]
        )
        assert merged.num_graphs == full.num_graphs
        assert_same_cells(merged, full)

    def test_concat_rows_rejects_mismatched_features(self, base_graphs):
        first = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs[:4], rng=7)
        other = ProbabilisticMatrixIndex(
            feature_config=FeatureSelectionConfig(
                alpha=0.1, beta=0.2, gamma=0.1, max_vertices=2, max_features=4
            ),
            bound_config=BOUND_CONFIG,
        ).build(base_graphs[:4], rng=7)
        with pytest.raises(IndexError_, match="identical features"):
            ProbabilisticMatrixIndex.concat_rows([first, other])

    def test_structural_rows_do_not_depend_on_their_block(self, base_graphs):
        """The catalog counts one arriving graph at a time and stacks the row
        onto its index: rows built apart must equal the rows of one build."""
        pmi = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7)
        skeletons = [graph.skeleton for graph in base_graphs]

        def counts(block):
            return (
                StructuralFeatureIndex(embedding_limit=FEATURE_CONFIG.embedding_limit)
                .build(block, pmi.features)
                .counts_matrix()
            )

        stacked = np.vstack([counts(skeletons[:5]), counts(skeletons[5:])])
        assert np.array_equal(stacked, counts(skeletons))

    def test_structural_concat_rows_equals_one_build(self, base_graphs, query):
        """Two halves built apart and stacked hold the counts and — field for
        field, dictionary order too — the postings of one build."""
        features = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7).features
        skeletons = [graph.skeleton for graph in base_graphs]

        def build(block):
            return StructuralFeatureIndex(
                embedding_limit=FEATURE_CONFIG.embedding_limit
            ).build(block, features)

        whole = build(skeletons)
        for split in (0, 1, 5, len(skeletons)):
            stacked = StructuralFeatureIndex.concat_rows(
                [build(skeletons[:split]), build(skeletons[split:])]
            )
            assert stacked.num_graphs == whole.num_graphs
            assert np.array_equal(stacked.counts_matrix(), whole.counts_matrix())
            assert stacked.counts_matrix().dtype == np.int32
            assert_same_postings(stacked.signatures, whole.signatures)
            profile = whole.query_profile(query)
            assert np.array_equal(
                stacked.deficit_prunable_mask(profile, 1),
                whole.deficit_prunable_mask(profile, 1),
            )

    def test_structural_concat_rows_rejects_mismatched_features(self, base_graphs):
        skeletons = [graph.skeleton for graph in base_graphs]
        features = ProbabilisticMatrixIndex(
            feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG
        ).build(base_graphs, rng=7).features
        first = StructuralFeatureIndex().build(skeletons[:4], features)
        for other in (features[:-1], [*features[1:], features[0]]):
            with pytest.raises(ConfigurationError, match="identical features"):
                StructuralFeatureIndex.concat_rows(
                    [first, StructuralFeatureIndex().build(skeletons[4:], other)]
                )

    def test_catalog_is_a_context_manager(self, base_graphs, query):
        with GraphCatalog.build(
            base_graphs, feature_config=FEATURE_CONFIG, bound_config=BOUND_CONFIG, rng=7
        ) as catalog:
            assert len(catalog) == len(base_graphs)
            catalog.query(query, 0.2, 1, config=SEARCH_CONFIG, rng=11)
        assert catalog._planner_cache is None
