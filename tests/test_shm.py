"""Unit tests for the shared-memory segment manager and arena layout.

Covers :mod:`repro.utils.shm` in isolation — segment lifecycle (create /
attach / unlink / atexit), registration suppression on attach, the flat
arena pack/attach round-trip, lazy graph materialization — plus the
:class:`~repro.core.sharding.ShardPlane` cleanup guarantees: explicit
close, garbage collection, and survival of a SIGKILL'd worker.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    GraphCatalog,
    QueryPlanner,
    SearchConfig,
    VerificationConfig,
    Verifier,
)
from repro.core.pipeline import verify_rows
from repro.core.sharding import ShardPlane, materialize_shard, publish_base, publish_delta
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import ShmError
from repro.utils import shm
from repro.utils.shm import (
    AttachedArena,
    LazyGraphList,
    ShardArena,
    attach_segment,
    create_segment,
    owned_segment_names,
    resident_segment_names,
    unlink_segment,
)
from tests.conftest import build_index

SEARCH_CONFIG = SearchConfig(
    verification=VerificationConfig(method="sampling", num_samples=60)
)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test in this file must leave the system segment-clean."""
    before = set(resident_segment_names())
    yield
    gc.collect()
    leaked = set(resident_segment_names()) - before
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"


def small_database(num_graphs: int = 6, seed: int = 7):
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


# ----------------------------------------------------------------------
# segment lifecycle
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_create_registers_and_unlink_removes(self):
        segment = create_segment(128)
        assert segment.name in owned_segment_names()
        assert segment.name in resident_segment_names()
        unlink_segment(segment.name)
        assert segment.name not in owned_segment_names()
        assert segment.name not in resident_segment_names()

    def test_unlink_is_idempotent(self):
        segment = create_segment(64)
        unlink_segment(segment.name)
        unlink_segment(segment.name)  # second call must be a no-op

    def test_zero_byte_segment_is_allowed(self):
        segment = create_segment(0)
        try:
            assert segment.size >= 1  # POSIX forbids empty mappings
        finally:
            unlink_segment(segment.name)

    def test_negative_size_rejected(self):
        with pytest.raises(ShmError):
            create_segment(-1)

    def test_attach_missing_segment_raises(self):
        with pytest.raises(ShmError):
            attach_segment("tpsshm_nonexistent")

    def test_attach_does_not_register_with_resource_tracker(self):
        """An attaching process must never take ownership of the segment.

        A spawn-context child (its *own* resource tracker — the dangerous
        configuration) attaches, reads, and exits; if the attach had
        registered, the child's tracker would unlink the live segment at
        exit.  The segment must survive and stay readable.
        """
        segment = create_segment(16)
        try:
            segment.buf[:5] = b"hello"
            ctx = multiprocessing.get_context("spawn")
            process = ctx.Process(target=_attach_and_exit, args=(segment.name,))
            process.start()
            process.join(timeout=60)
            assert process.exitcode == 0
            # give the child's resource tracker a moment to do its damage,
            # if it were going to
            time.sleep(0.2)
            assert segment.name in resident_segment_names()
            reader = attach_segment(segment.name)
            assert bytes(reader.buf[:5]) == b"hello"
            reader.close()
        finally:
            unlink_segment(segment.name)

    def test_atexit_sweep_unlinks_owned_segments(self):
        segment = create_segment(32)
        assert segment.name in resident_segment_names()
        shm._sweep_owned_segments()
        assert segment.name not in resident_segment_names()


def _attach_and_exit(name: str) -> None:
    reader = attach_segment(name)
    assert bytes(reader.buf[:5]) == b"hello"
    reader.close()


# ----------------------------------------------------------------------
# arena pack / attach round-trip
# ----------------------------------------------------------------------
class TestArenaRoundTrip:
    def test_arrays_and_blobs_round_trip(self):
        arrays = {
            "floats": np.arange(12, dtype=np.float64).reshape(3, 4),
            "flags": np.array([[True, False], [False, True]]),
            "counts": np.arange(6, dtype=np.int32).reshape(2, 3),
            "ids": np.array([5, 7, 11], dtype=np.int64),
            "empty": np.zeros((0, 4), dtype=np.int32),
        }
        blobs = {"meta": pickle.dumps({"k": 1}), "raw": b"payload"}
        arena = ShardArena.pack(arrays, blobs)
        try:
            attached = AttachedArena(arena.descriptor)
            for key, original in arrays.items():
                view = attached.array(key)
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                np.testing.assert_array_equal(view, original)
                assert not view.flags.writeable
            assert pickle.loads(attached.blob("meta")) == {"k": 1}
            assert bytes(attached.blob("raw")) == b"payload"
        finally:
            arena.unlink()

    def test_array_offsets_are_aligned(self):
        arena = ShardArena.pack(
            {"a": np.ones(3, dtype=np.float64), "b": np.ones(5, dtype=np.int32)},
            {"blob": b"xyz"},
        )
        try:
            for entry in arena.descriptor.fields:
                if entry.nbytes:
                    assert entry.offset % 64 == 0
        finally:
            arena.unlink()

    def test_views_are_zero_copy(self):
        """Writes through the owner's segment must show up in the attached
        view — proof the reader maps the same pages instead of copying."""
        source = np.zeros(4, dtype=np.float64)
        arena = ShardArena.pack({"a": source}, {})
        try:
            attached = AttachedArena(arena.descriptor)
            view = attached.array("a")
            assert view[0] == 0.0
            field = arena.descriptor.field("a")
            patch = np.ndarray(
                (4,), dtype=np.float64, buffer=arena._segment.buf, offset=field.offset
            )
            patch[0] = 42.0
            del patch
            assert view[0] == 42.0
        finally:
            arena.unlink()

    def test_unknown_field_raises(self):
        arena = ShardArena.pack({"a": np.ones(2)}, {})
        try:
            attached = AttachedArena(arena.descriptor)
            with pytest.raises(ShmError):
                attached.array("missing")
            with pytest.raises(ShmError):
                attached.blob("a")  # wrong kind
        finally:
            arena.unlink()

    def test_a_field_past_the_segment_end_is_a_typed_error(self):
        """A forged or stale descriptor never reads past the mapping."""
        arena = ShardArena.pack({"a": np.ones(4)}, {"b": b"payload"})
        try:
            descriptor = arena.descriptor
            for key in ("a", "b"):
                field = descriptor.field(key)
                moved = replace(field, offset=field.offset + (1 << 20))
                forged = replace(
                    descriptor,
                    fields=tuple(moved if f.key == key else f for f in descriptor.fields),
                )
                attached = AttachedArena(forged)
                with pytest.raises(ShmError, match="lies outside"):
                    attached.array(key) if key == "a" else attached.blob(key)
                attached.detach()
        finally:
            arena.unlink()

    def test_a_field_whose_dtype_and_shape_disagree_with_its_bytes_is_a_typed_error(self):
        arena = ShardArena.pack({"a": np.ones(4)}, {})
        try:
            field = arena.descriptor.field("a")
            for bad in ({"shape": (5,)}, {"dtype": "<i4"}, {"dtype": "|O"}, {"shape": (-2, -2)}):
                forged = replace(arena.descriptor, fields=(replace(field, **bad),))
                attached = AttachedArena(forged)
                with pytest.raises(ShmError):
                    attached.array("a")
                attached.detach()
        finally:
            arena.unlink()

    def test_descriptor_contains(self):
        arena = ShardArena.pack({"a": np.ones(2)}, {"b": b"x"})
        try:
            assert "a" in arena.descriptor
            assert "b" in arena.descriptor
            assert "c" not in arena.descriptor
        finally:
            arena.unlink()


# ----------------------------------------------------------------------
# lazy graphs
# ----------------------------------------------------------------------
class TestLazyGraphs:
    def _lazy_list(self, items):
        payloads = [pickle.dumps(item) for item in items]
        offsets = np.concatenate(
            [[0], np.cumsum([len(p) for p in payloads])]
        ).astype(np.int64)
        return LazyGraphList(memoryview(b"".join(payloads)), offsets)

    def test_lazy_materialization_and_cache(self):
        lazy = self._lazy_list(["a", "bb", "ccc"])
        assert len(lazy) == 3
        assert lazy.materialized_count() == 0
        assert lazy[1] == "bb"
        assert lazy.materialized_count() == 1
        assert lazy[1] == "bb"  # cache hit, still one
        assert lazy.materialized_count() == 1
        assert lazy.materialized_bytes() == len(pickle.dumps("bb"))

    def test_negative_index_and_slice(self):
        lazy = self._lazy_list(["a", "bb", "ccc"])
        assert lazy[-1] == "ccc"
        assert lazy[0:2] == ["a", "bb"]
        assert list(lazy) == ["a", "bb", "ccc"]
        with pytest.raises(IndexError):
            lazy[3]

    def test_empty_list(self):
        lazy = self._lazy_list([])
        assert len(lazy) == 0
        assert list(lazy) == []

    def test_planner_over_a_lazy_list_stays_lazy(self):
        """Building a planner and running its structural filter read the
        index, never a graph."""
        database = small_database(num_graphs=4)
        built = build_index(database.graphs, rng=11)
        payloads = [pickle.dumps(graph) for graph in database.graphs]
        offsets = np.concatenate(
            [[0], np.cumsum([len(p) for p in payloads])]
        ).astype(np.int64)
        lazy = LazyGraphList(memoryview(b"".join(payloads)), offsets)
        planner = QueryPlanner(lazy, built.pmi, built.structural_index)
        query = extract_query(database.graphs[2].skeleton, 3, rng=1)
        assert planner.structural_filter.filter(query, 1).candidate_count > 0
        assert lazy.materialized_count() == 0


# ----------------------------------------------------------------------
# publish / materialize and plane cleanup
# ----------------------------------------------------------------------
class TestShardPlaneCleanup:
    def _plane(self, max_workers=0):
        database = small_database()
        catalog = GraphCatalog.build(
            database.graphs, rng=11, num_shards=2, max_workers=max_workers
        )
        return catalog, ShardPlane(catalog.planner().shards)

    def test_publish_materialize_round_trip_in_process(self):
        """Base arena + delta segment round-trip a shard that has both a
        delta row and a tombstoned base row, and republishing the delta
        alone follows a further mutation over the kept base mapping."""
        database = small_database(num_graphs=7)
        catalog = GraphCatalog.build(
            database.graphs[:6], rng=11, num_shards=2, max_workers=0
        )
        catalog.add_graph(database.graphs[6])  # ties route to shard 0
        catalog.remove_graph(0)  # a base row of shard 0
        shard = catalog.planner().shards[0]
        assert shard.pmi.delta.num_graphs == 1 and not shard.active_mask.all()
        query = extract_query(database.graphs[6].skeleton, 3, rng=3)

        def assert_same_shard(clone, shard):
            np.testing.assert_array_equal(clone.graph_ids, shard.graph_ids)
            np.testing.assert_array_equal(clone.active_mask, shard.active_mask)
            assert len(clone.graphs) == len(shard.graphs)
            assert [graph.name for graph in clone.graphs] == [
                graph.name for graph in shard.graphs
            ]
            # the clone's graphs verify the shard's live rows to the same floats
            plan = shard.make_planner().plan(query, 0.3, 1, SEARCH_CONFIG)
            rows = np.flatnonzero(shard.active_mask)
            expected = verify_rows(
                Verifier(SEARCH_CONFIG.verification), shard.graphs, shard.graph_ids, plan, rows, 5
            )
            actual = verify_rows(
                Verifier(SEARCH_CONFIG.verification), clone.graphs, clone.graph_ids, plan, rows, 5
            )
            assert actual == expected and expected[0]

        # the parent answers once before it publishes: a memo a query hangs
        # on a graph rides in its pickle, and graphs carry over by the pickle
        shard.make_planner().execute(query, 0.3, 1, config=SEARCH_CONFIG, rng=5)
        arena, descriptor = publish_base(shard)
        delta_name, delta_bytes = publish_delta(shard)
        try:
            assert delta_name in resident_segment_names() and delta_bytes > 0
            clone = materialize_shard(descriptor, delta_name)
            assert_same_shard(clone, shard)
            # the base ids are views into the mapping
            base_ids = clone.arena.array("graph_ids")
            assert not base_ids.flags.owndata and not base_ids.flags.writeable
            # the delta was copied out: its segment can go while the clone lives
            unlink_segment(delta_name)
            assert_same_shard(clone, shard)

            catalog.update_graph(1, database.graphs[0])  # shard 0 again: row 1 dies
            mutated = catalog.planner().shards[0]
            delta_name, _ = publish_delta(mutated)
            follower = materialize_shard(descriptor, delta_name, previous=clone)
            assert follower.arena is clone.arena
            assert follower.graphs.base is clone.graphs.base
            # the delta graph the first clone deserialized was carried over
            assert follower.graphs[len(shard.graphs) - 1] is clone.graphs[len(shard.graphs) - 1]
            assert_same_shard(follower, mutated)
        finally:
            unlink_segment(delta_name)
            arena.unlink()
            catalog.close()

    @pytest.mark.parametrize("forgery", ["offset past the end", "missing field"])
    def test_a_forged_base_descriptor_is_a_typed_error_and_maps_nothing(self, forgery):
        """materialize_shard over a base descriptor the segment does not
        back raises ShmError and leaves no mapping behind."""
        catalog, plane = self._plane()
        try:
            descriptor = plane.descriptors[0]
            fields = descriptor.arena.fields
            if forgery == "missing field":
                fields = tuple(f for f in fields if f.key != "graph_digests")
            else:
                fields = tuple(
                    replace(f, offset=descriptor.arena.nbytes) if f.key == "graphs" else f
                    for f in fields
                )
            forged = replace(descriptor, arena=replace(descriptor.arena, fields=fields))
            attached = len(shm._ATTACHED)
            with pytest.raises(ShmError):
                materialize_shard(forged, plane.delta_segment_names()[0])
            assert len(shm._ATTACHED) == attached
        finally:
            plane.close()
            catalog.close()

    def test_descriptor_payload_is_a_sliver_of_the_plane(self):
        """The arena carries the graphs and their ids, nothing of the
        indexes, and what a worker is sent still is at most a fifth of what
        the plane publishes."""
        _catalog, plane = self._plane()
        try:
            assert {field.key for field in plane.descriptors[0].arena.fields} == {
                "graph_ids",
                "graph_offsets",
                "graph_digests",
                "graphs",
            }
            assert plane.payload_bytes() <= 0.2 * plane.shard_bytes()
        finally:
            plane.close()

    def test_close_unlinks_all_segments(self):
        _catalog, plane = self._plane()
        names = plane.segment_names()
        assert all(name in resident_segment_names() for name in names)
        plane.close()
        assert plane.closed
        assert not any(name in resident_segment_names() for name in names)
        plane.close()  # idempotent

    def test_retired_plane_closes_when_its_last_fan_out_releases(self):
        """A compaction retires a plane through the drain barrier: while a
        fan-out still reads it every segment stays, and the release of the
        last one unlinks them all."""
        _catalog, plane = self._plane()
        names = plane.segment_names()
        first, second = plane.acquire(), plane.acquire()
        plane.retire()
        assert not plane.closed and set(names) <= set(resident_segment_names())
        plane.release(first)
        assert not plane.closed and set(names) <= set(resident_segment_names())
        plane.release(second)
        assert plane.closed
        assert not set(names) & set(resident_segment_names())
        idle = self._plane()[1]
        idle.retire()  # nothing in flight: closed at once
        assert idle.closed

    def test_gc_unlinks_unclosed_plane(self):
        _catalog, plane = self._plane()
        names = plane.segment_names()
        del plane
        gc.collect()
        assert not any(name in resident_segment_names() for name in names)

    def test_planner_close_retires_plane(self):
        database = small_database()
        catalog = GraphCatalog.build(database.graphs, rng=11, num_shards=2, max_workers=2)
        query = extract_query(database.graphs[0].skeleton, 3, rng=3)
        catalog.query(query, 0.3, 1, config=SEARCH_CONFIG, rng=5)
        plane = catalog.planner().shard_plane
        assert plane is not None
        names = plane.segment_names()
        assert names
        catalog.close()
        assert catalog.planner().shard_plane is None
        assert not any(name in resident_segment_names() for name in names)

    def test_sigkilled_worker_leaves_no_orphans(self):
        """SIGKILL the worker that serves shard 0: the next fan-out meets the
        broken slot and falls back to in-process execution, answers stay
        correct, and every segment is retired — nothing leaks even though
        the worker died without running any cleanup."""
        database = small_database()
        catalog = GraphCatalog.build(database.graphs, rng=11, num_shards=2, max_workers=2)
        query = extract_query(database.graphs[0].skeleton, 3, rng=3)
        expected = catalog.query(query, 0.3, 1, config=SEARCH_CONFIG, rng=5)
        names = catalog.planner().shard_plane.segment_names()
        victim_pid = catalog.planner().map_slots(os.getpid)[0]  # slot 0 serves shard 0
        os.kill(victim_pid, signal.SIGKILL)
        survived = catalog.query(query, 0.3, 1, config=SEARCH_CONFIG, rng=5)
        assert catalog.planner().shard_plane is None  # the fallback's full swap
        assert not any(name in resident_segment_names() for name in names)
        assert [(a.graph_id, a.probability) for a in survived.answers] == [
            (a.graph_id, a.probability) for a in expected.answers
        ]
        catalog.close()
        assert catalog.planner().shard_plane is None
