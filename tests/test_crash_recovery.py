"""Crash-injection: SIGKILL the writer at every fsync/rename boundary and
prove recovery.

Each case forks a child that rebuilds the same durable catalog and applies
the same mutation sequence, but dies with ``SIGKILL`` at the N-th durability
boundary (a file fsync, a directory fsync, or an ``os.replace`` commit —
exactly the indirection points :mod:`repro.utils.atomic_io` exposes).  The
parent then recovers the half-written directory with ``GraphCatalog.open``
and asserts the crash-recovery invariant:

* either the catalog never committed (no ``CURRENT``) and ``open`` says so,
* or the recovered ``(external id -> graph)`` database equals the state
  after some *prefix* of the mutation sequence (WAL-before-apply ordering
  means nothing else is possible), and
* at sampled crash points, threshold and top-k answers — probabilities,
  ranks, and (sequentially) per-stage counters — are byte-identical to a
  from-scratch build over that surviving database.

Sweeping N across every boundary covers the torn-WAL-record, half-written
snapshot, and rename-not-applied windows without hand-picking them.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.core import GraphCatalog
from repro.core.catalog import CURRENT_FILENAME
from repro.datasets import PPIDatasetConfig, extract_query, generate_ppi_database
from repro.exceptions import CatalogError
from repro.graphs.io import probabilistic_graph_to_dict
from repro.pmi import BoundConfig, FeatureSelectionConfig
from tests.conftest import assert_signature_segment_matches_live_graphs
from tests.test_catalog_parity import (
    DISTANCE_THRESHOLD,
    PROBABILITY_THRESHOLD,
    SEARCH_CONFIG,
    assert_result_parity,
    rebuild_from_scratch,
)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash injection needs os.fork (POSIX)"
)

SEED = 20120901
FEATURE_CONFIG = FeatureSelectionConfig(
    alpha=0.1, beta=0.2, gamma=0.1, max_vertices=3, max_features=8
)
BOUND_CONFIG = BoundConfig(num_samples=30)

CHILD_COMPLETED = 111  # scenario finished: crash_at was past the last boundary
CHILD_FAILED = 112  # scenario raised before reaching the crash point


def _dataset():
    config = PPIDatasetConfig(
        num_graphs=5,
        num_families=2,
        vertices_per_graph=7,
        edges_per_graph=8,
        motif_vertices=3,
        motif_edges=3,
        mean_edge_probability=0.6,
        probability_spread=0.2,
    )
    graphs = generate_ppi_database(config, rng=SEED).graphs
    pool = generate_ppi_database(config, rng=SEED + 1000).graphs
    return graphs, pool


def _ops(num_base: int, pool):
    """The fixed mutation sequence every child applies (after persist)."""
    return [
        ("add", pool[0]),
        ("remove", 2),
        ("update", 1, pool[1]),
        ("compact",),
        ("add", pool[2]),
        ("remove", num_base),  # the first graph added above
        ("update", 0, pool[3]),
    ]


def _apply(catalog: GraphCatalog, op) -> None:
    if op[0] == "add":
        catalog.add_graph(op[1])
    elif op[0] == "remove":
        catalog.remove_graph(op[1])
    elif op[0] == "update":
        catalog.update_graph(op[1], op[2])
    else:
        catalog.compact()


def _canonical(graph) -> str:
    """Serialized form of the graph — save/load is the identity, so this
    matches a recovered copy regardless of how many snapshot cycles it
    survived (the lossless roundtrip is itself asserted in test_io)."""
    return json.dumps(probabilistic_graph_to_dict(graph), sort_keys=True)


def _prefix_states(graphs, pool):
    """The valid ``(id -> graph)`` databases: one per op-sequence prefix."""
    state = {index: _canonical(graph) for index, graph in enumerate(graphs)}
    next_id = len(graphs)
    states = [dict(state)]
    for op in _ops(len(graphs), pool):
        if op[0] == "add":
            state[next_id] = _canonical(op[1])
            next_id += 1
        elif op[0] == "remove":
            del state[op[1]]
        elif op[0] == "update":
            state[op[1]] = _canonical(op[2])
        states.append(dict(state))
    return states


def _scenario(directory, num_shards: int) -> None:
    """Build the durable catalog and run the op sequence (child workload)."""
    graphs, pool = _dataset()
    catalog = GraphCatalog.build(
        graphs,
        feature_config=FEATURE_CONFIG,
        bound_config=BOUND_CONFIG,
        rng=SEED,
        num_shards=num_shards,
        directory=directory,
    )
    for op in _ops(len(graphs), pool):
        _apply(catalog, op)
    catalog.close()


def _install_crash(crash_at: int) -> None:
    """SIGKILL this process at the ``crash_at``-th durability boundary.

    The kill fires *before* the real fsync/rename executes, so that boundary
    (and everything after it) never reaches the disk — the harshest point of
    the window.  Counting covers all three indirection points, which is every
    place a write becomes durable.
    """
    from repro.utils import atomic_io

    state = {"count": 0}

    def crashing(real):
        def wrapped(*args, **kwargs):
            state["count"] += 1
            if state["count"] == crash_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        return wrapped

    atomic_io.fsync_file = crashing(atomic_io.fsync_file)
    atomic_io.fsync_directory = crashing(atomic_io.fsync_directory)
    atomic_io.replace_file = crashing(atomic_io.replace_file)


def _run_child(directory, num_shards: int, crash_at: int) -> str:
    """Fork, run the scenario with a planted crash, and report the outcome."""
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = CHILD_FAILED
        try:
            _install_crash(crash_at)
            _scenario(directory, num_shards)
            code = CHILD_COMPLETED
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        return "crashed"
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == CHILD_COMPLETED:
        return "completed"
    raise AssertionError(f"crash child died unexpectedly: status={status!r}")


def _assert_recovers(directory, prefix_states, check_answers):
    """Recovery after one planted crash: prefix state, optionally answers."""
    if not (directory / CURRENT_FILENAME).exists():
        # killed before the first commit: there is no catalog, and open says so
        with pytest.raises(CatalogError, match="missing CURRENT"):
            GraphCatalog.open(directory)
        return
    recovered = GraphCatalog.open(directory)
    try:
        live = {
            external_id: _canonical(graph)
            for external_id, graph in recovered.live_items()
        }
        assert live in prefix_states, (
            f"recovered database matches no op-sequence prefix; ids={sorted(live)}"
        )
        assert_signature_segment_matches_live_graphs(recovered)
        if not check_answers:
            return
        query = extract_query(recovered.live_items()[0][1].skeleton, 3, rng=SEED)
        reference = rebuild_from_scratch(recovered)
        threshold = recovered.query(
            query,
            PROBABILITY_THRESHOLD,
            DISTANCE_THRESHOLD,
            config=SEARCH_CONFIG,
            rng=SEED,
        )
        expected = reference.execute(
            query, PROBABILITY_THRESHOLD, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
        )
        assert_result_parity(threshold, expected, "threshold")
        top_k = recovered.query_top_k(
            query, 3, DISTANCE_THRESHOLD, config=SEARCH_CONFIG, rng=SEED
        )
        expected_top = reference.execute_top_k(
            query, 3, DISTANCE_THRESHOLD, SEARCH_CONFIG, rng=SEED
        )
        assert_result_parity(top_k, expected_top, "top-k")
    finally:
        recovered.close()


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_kill_at_every_fsync_boundary(tmp_path, num_shards):
    """Sweep the kill point across every durability boundary of the workload.

    The prefix-state invariant is checked at every crash point, answer
    parity at sampled ones.  ``num_shards`` (checked, then ignored; the
    snapshot records 1 whatever it was) changes no boundary, so the runs
    given one other than 1 sweep every other crash point.
    """
    graphs, pool = _dataset()
    prefix_states = _prefix_states(graphs, pool)
    stride = 1 if num_shards == 1 else 2
    parity_every = 13  # full query-parity check at every 13th crash point
    crash_at = 1
    swept = 0
    while True:
        directory = tmp_path / f"crash_{crash_at:03d}"
        outcome = _run_child(directory, num_shards, crash_at)
        if outcome == "completed":
            break
        _assert_recovers(
            directory,
            prefix_states,
            check_answers=(swept % parity_every == 0),
        )
        swept += 1
        crash_at += stride
    assert swept >= 10, f"boundary sweep looks broken: only {swept} crash points"


def test_crash_free_child_completes(tmp_path):
    """The harness itself: crash_at beyond the last boundary runs clean."""
    outcome = _run_child(tmp_path / "clean", 1, 10_000)
    assert outcome == "completed"
    recovered = GraphCatalog.open(tmp_path / "clean")
    graphs, pool = _dataset()
    assert {
        eid: _canonical(g) for eid, g in recovered.live_items()
    } == _prefix_states(graphs, pool)[-1]
    recovered.close()


def test_double_recovery_is_stable(tmp_path):
    """Opening a crashed directory twice lands on the same state (the first
    open repairs the torn tail in place)."""
    graphs, pool = _dataset()
    # crash mid-way through the op sequence, well after the first commit
    directory = tmp_path / "crash"
    outcome = _run_child(directory, 1, 40)
    assert outcome == "crashed"
    if not (directory / CURRENT_FILENAME).exists():
        pytest.skip("boundary 40 fell before the first commit on this layout")
    first = GraphCatalog.open(directory)
    state_one = {eid: _canonical(g) for eid, g in first.live_items()}
    first.close()
    second = GraphCatalog.open(directory)
    state_two = {eid: _canonical(g) for eid, g in second.live_items()}
    second.close()
    assert state_one == state_two
