"""JSON serialization for labeled and probabilistic graphs.

The on-disk format is deliberately simple and self-describing so that
datasets generated by :mod:`repro.datasets` can be written once and reloaded
by every benchmark.  Vertex identifiers and labels must be JSON-serializable
(ints and strings in practice).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import GraphError, ProbabilityError
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.probabilistic_graph import NeighborEdgeFactor, ProbabilisticGraph
from repro.probability.jpt import JointProbabilityTable
from repro.utils.atomic_io import atomic_write_text

FORMAT_VERSION = 1


def _require_version(payload: dict, what: str, required: bool = True) -> None:
    """Reject payloads written by an unknown (usually newer) format version.

    Every ``*_to_dict`` writer stamps ``version``; silently ignoring it on
    load meant a future format change would deserialize garbage instead of
    failing loudly.  Top-level loaders require the field; nested graph dicts
    (which callers sometimes hand-build) only need it to be *consistent* when
    present (``required=False``).
    """
    version = payload.get("version")
    if version is None and not required:
        return
    if version != FORMAT_VERSION:
        raise GraphError(
            f"unsupported {what} format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )


# ----------------------------------------------------------------------
# labeled graphs
# ----------------------------------------------------------------------
def labeled_graph_to_dict(graph: LabeledGraph) -> dict:
    """Convert a labeled graph to a JSON-serializable dictionary."""
    return {
        "type": "labeled_graph",
        "version": FORMAT_VERSION,
        "name": graph.name,
        "vertices": [[v, graph.vertex_label(v)] for v in sorted(graph.vertices(), key=repr)],
        "edges": [
            [u, v, graph.edge_label(u, v)] for u, v in sorted(graph.edge_keys(), key=repr)
        ],
    }


def labeled_graph_from_dict(data: dict) -> LabeledGraph:
    """Rebuild a labeled graph from :func:`labeled_graph_to_dict` output."""
    if not isinstance(data, dict) or data.get("type") != "labeled_graph":
        kind = data.get("type") if isinstance(data, dict) else type(data).__name__
        raise GraphError(f"not a labeled graph payload: {kind!r}")
    _require_version(data, "labeled graph", required=False)
    graph = LabeledGraph(name=data.get("name"))
    for vertex, label in data["vertices"]:
        graph.add_vertex(_maybe_tuple(vertex), label)
    for u, v, label in data["edges"]:
        graph.add_edge(_maybe_tuple(u), _maybe_tuple(v), label)
    return graph


# ----------------------------------------------------------------------
# probabilistic graphs
# ----------------------------------------------------------------------
def probabilistic_graph_to_dict(graph: ProbabilisticGraph) -> dict:
    """Convert a probabilistic graph (skeleton + factors) to a dictionary."""
    factors = []
    for factor in graph.factors:
        factors.append(
            {
                "edges": [list(key) for key in factor.edges],
                "table": [
                    [list(assignment), value] for assignment, value in factor.jpt.assignments()
                ],
            }
        )
    return {
        "type": "probabilistic_graph",
        "version": FORMAT_VERSION,
        "name": graph.name,
        "skeleton": labeled_graph_to_dict(graph.skeleton),
        "factors": factors,
    }


def probabilistic_graph_from_dict(data: dict) -> ProbabilisticGraph:
    """Rebuild a probabilistic graph from its dictionary form."""
    if not isinstance(data, dict) or data.get("type") != "probabilistic_graph":
        kind = data.get("type") if isinstance(data, dict) else type(data).__name__
        raise GraphError(f"not a probabilistic graph payload: {kind!r}")
    _require_version(data, "probabilistic graph", required=False)
    skeleton = labeled_graph_from_dict(data["skeleton"])
    factors = []
    for entry in data["factors"]:
        edges = tuple(tuple(_maybe_tuple(v) for v in key) for key in entry["edges"])
        table = {tuple(int(v) for v in assignment): value for assignment, value in entry["table"]}
        # Only rescale tables that are actually denormalized (hand-built
        # payloads).  Unconditional normalize=True divided every entry by a
        # total of 1.0±ulp on each load, so a graph drifted by 1 ulp per
        # save/load cycle — save→load must be the identity or repeated
        # snapshot/recovery cycles would never converge.
        try:
            jpt = JointProbabilityTable(edges, table)
        except ProbabilityError:
            jpt = JointProbabilityTable(edges, table, normalize=True)
        factors.append(NeighborEdgeFactor(edges, jpt))
    return ProbabilisticGraph(skeleton, factors, name=data.get("name"))


def _maybe_tuple(value):
    """JSON turns tuples into lists; convert vertex-id lists back to tuples."""
    if isinstance(value, list):
        return tuple(_maybe_tuple(v) for v in value)
    return value


# ----------------------------------------------------------------------
# databases (collections of probabilistic graphs)
# ----------------------------------------------------------------------
def save_database(graphs: list[ProbabilisticGraph], path: str | Path) -> None:
    """Atomically write a list of probabilistic graphs to a JSON file."""
    payload = {
        "type": "probabilistic_graph_database",
        "version": FORMAT_VERSION,
        "graphs": [probabilistic_graph_to_dict(g) for g in graphs],
    }
    atomic_write_text(path, json.dumps(payload))


def load_database(path: str | Path) -> list[ProbabilisticGraph]:
    """Load a list of probabilistic graphs written by :func:`save_database`;
    a file that does not parse as one raises :class:`GraphError`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise GraphError(f"corrupt database payload at {str(path)!r}: {error}") from error
    if not isinstance(payload, dict) or payload.get("type") != "probabilistic_graph_database":
        kind = payload.get("type") if isinstance(payload, dict) else type(payload).__name__
        raise GraphError(f"not a database payload: {kind!r}")
    _require_version(payload, "probabilistic graph database")
    try:
        return [probabilistic_graph_from_dict(entry) for entry in payload["graphs"]]
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise GraphError(f"malformed database payload at {str(path)!r}: {error!r}") from error


def save_labeled_graphs(graphs: list[LabeledGraph], path: str | Path) -> None:
    """Atomically write a list of labeled graphs (for example query workloads)."""
    payload = {
        "type": "labeled_graph_collection",
        "version": FORMAT_VERSION,
        "graphs": [labeled_graph_to_dict(g) for g in graphs],
    }
    atomic_write_text(path, json.dumps(payload))


def load_labeled_graphs(path: str | Path) -> list[LabeledGraph]:
    """Load a list of labeled graphs written by :func:`save_labeled_graphs`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("type") != "labeled_graph_collection":
        raise GraphError(f"not a labeled graph collection payload: {payload.get('type')!r}")
    _require_version(payload, "labeled graph collection")
    return [labeled_graph_from_dict(entry) for entry in payload["graphs"]]
