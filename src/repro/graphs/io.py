"""Serialization for labeled and probabilistic graphs.

Two formats.  The JSON one is deliberately simple and self-describing so
that datasets generated by :mod:`repro.datasets` can be written once and
reloaded by every benchmark, and a WAL record can carry one graph.  The
columnar one (:func:`save_graph_columns` / :func:`load_graph_columns`) holds
a whole database as one ``.npz`` of stacked arrays that a load checks in a
few numpy passes instead of re-parsing and re-validating every table entry;
the durable catalog writes its snapshots with it.  Both load to the same
objects.  Vertex identifiers and labels must be JSON-serializable (ints and
strings in practice).
"""

from __future__ import annotations

import json
import zipfile
import zlib
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from repro.exceptions import GraphError, ProbabilityError
from repro.graphs.labeled_graph import LabeledGraph, edge_key
from repro.graphs.probabilistic_graph import NeighborEdgeFactor, ProbabilisticGraph
from repro.probability.jpt import MASS_TOLERANCE, JointProbabilityTable
from repro.utils.atomic_io import atomic_write_text, atomic_writer

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
    """Rebuild a labeled graph from :func:`labeled_graph_to_dict` output.

    A payload that names one vertex or one edge twice raises
    :class:`GraphError`: the writer names each once, and ``add_vertex`` /
    ``add_edge`` would let the last label win without a word."""
    if not isinstance(data, dict) or data.get("type") != "labeled_graph":
        kind = data.get("type") if isinstance(data, dict) else type(data).__name__
        raise GraphError(f"not a labeled graph payload: {kind!r}")
    _require_version(data, "labeled graph", required=False)
    graph = LabeledGraph(name=data.get("name"))
    for vertex, label in data["vertices"]:
        graph.add_vertex(_maybe_tuple(vertex), label)
    for u, v, label in data["edges"]:
        graph.add_edge(_maybe_tuple(u), _maybe_tuple(v), label)
    # a repeated vertex or edge overwrote its first occurrence: fewer were added
    if graph.num_vertices != len(data["vertices"]):
        raise GraphError(f"a labeled graph payload names one vertex twice: {graph.name!r}")
    if graph.num_edges != len(data["edges"]):
        raise GraphError(f"a labeled graph payload names one edge twice: {graph.name!r}")
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
    """Rebuild a probabilistic graph from its dictionary form; a repeated
    vertex, edge or table assignment raises :class:`GraphError`."""
    if not isinstance(data, dict) or data.get("type") != "probabilistic_graph":
        kind = data.get("type") if isinstance(data, dict) else type(data).__name__
        raise GraphError(f"not a probabilistic graph payload: {kind!r}")
    _require_version(data, "probabilistic graph", required=False)
    skeleton = labeled_graph_from_dict(data["skeleton"])
    factors = []
    for entry in data["factors"]:
        edges = tuple(tuple(_maybe_tuple(v) for v in key) for key in entry["edges"])
        table = {tuple(int(v) for v in assignment): value for assignment, value in entry["table"]}
        if len(table) != len(entry["table"]):
            raise GraphError(f"a factor over {edges!r} has a repeated assignment")
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


# ----------------------------------------------------------------------
# columnar databases
# ----------------------------------------------------------------------
COLUMNS_FORMAT_VERSION = 1

# The arrays of one columnar database, G graphs with V vertices, E edges and
# F factors in all.  Vertices and edges are in labeled_graph_to_dict's order
# (sorted by repr), factors and table entries in the graph's own order.
#   symbols           uint8 (n,)    UTF-8 JSON: vertex ids, labels, names
#   vertex_offsets    int64 (G+1,)  graph g owns vertices [o[g], o[g+1])
#   vertex_ids        int32 (V,)    code into symbols["vertex_ids"]
#   vertex_labels     int32 (V,)    code into symbols["labels"]
#   edge_offsets      int64 (G+1,)
#   edge_ends         int32 (E, 2)  the edge key's (u, v), as positions in
#                                   the graph's vertex list
#   edge_labels       int32 (E,)    code into symbols["labels"]
#   factor_offsets    int64 (G+1,)
#   variable_offsets  int64 (F+1,)  factor widths are its differences
#   factor_edges      int32 (sum of widths,)  positions in the graph's edge list
#   entry_offsets     int64 (F+1,)  table sizes are its differences
#   bits              uint8 (sum of width x size,)  assignments, row-major
#   values            float64 (sum of sizes,)
_COLUMNS = (
    "symbols",
    "vertex_offsets",
    "vertex_ids",
    "vertex_labels",
    "edge_offsets",
    "edge_ends",
    "edge_labels",
    "factor_offsets",
    "variable_offsets",
    "factor_edges",
    "entry_offsets",
    "bits",
    "values",
)
# A mass this close to 1 passes the constructor's check whatever the order of
# the float additions; a table outside it is decided by the constructor itself.
_MASS_MARGIN = 1e-9


class _Symbols:
    """Distinct values in first-seen order, each with its code.  Two values
    share a code only when they have one JSON text (so ``1`` and ``True``,
    or ``1`` and ``1.0``, never do)."""

    _EXACT = frozenset((str, int, bool, type(None)))

    def __init__(self) -> None:
        self.values: list = []
        self._codes: dict = {}

    def code(self, value) -> int:
        kind = type(value)
        key = (kind, value) if kind in self._EXACT else (kind, json.dumps(value))
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.values)
            self.values.append(value)
        return code


def save_graph_columns(graphs: list[ProbabilisticGraph], path: str | Path) -> None:
    """Atomically write ``graphs`` as one ``.npz`` of stacked columns (layout
    above); :func:`load_graph_columns` reads it back."""
    vertex_symbols, label_symbols = _Symbols(), _Symbols()
    names = []
    vertex_counts, edge_counts, factor_counts = [], [], []
    vertex_ids, vertex_labels, edge_ends, edge_labels = [], [], [], []
    widths, factor_edges, entry_counts, bits, values = [], [], [], [], []
    for graph in graphs:
        skeleton = graph.skeleton
        names.append([graph.name, skeleton.name])
        vertices = sorted(skeleton.vertices(), key=repr)
        position = {vertex: index for index, vertex in enumerate(vertices)}
        vertex_ids += [vertex_symbols.code(vertex) for vertex in vertices]
        vertex_labels += [label_symbols.code(skeleton.vertex_label(v)) for v in vertices]
        keys = sorted(skeleton.edge_keys(), key=repr)
        edge_position = {key: index for index, key in enumerate(keys)}
        edge_ends += [(position[u], position[v]) for u, v in keys]
        edge_labels += [label_symbols.code(skeleton.edge_label(u, v)) for u, v in keys]
        for factor in graph.factors:
            factor_edges += [edge_position[key] for key in factor.edges]
            table = factor.jpt.table
            widths.append(len(factor.edges))
            entry_counts.append(len(table))
            bits += chain.from_iterable(table)
            values += table.values()
        vertex_counts.append(len(vertices))
        edge_counts.append(len(keys))
        factor_counts.append(len(graph.factors))
    symbols = {
        "type": "probabilistic_graph_columns",
        "version": COLUMNS_FORMAT_VERSION,
        "vertex_ids": vertex_symbols.values,
        "labels": label_symbols.values,
        "names": names,
    }
    with atomic_writer(path) as handle:
        np.savez_compressed(
            handle,
            symbols=np.frombuffer(json.dumps(symbols).encode(), dtype=np.uint8),
            vertex_offsets=_offsets(vertex_counts),
            vertex_ids=np.array(vertex_ids, dtype=np.int32),
            vertex_labels=np.array(vertex_labels, dtype=np.int32),
            edge_offsets=_offsets(edge_counts),
            edge_ends=np.array(edge_ends, dtype=np.int32).reshape(-1, 2),
            edge_labels=np.array(edge_labels, dtype=np.int32),
            factor_offsets=_offsets(factor_counts),
            variable_offsets=_offsets(widths),
            factor_edges=np.array(factor_edges, dtype=np.int32),
            entry_offsets=_offsets(entry_counts),
            bits=np.array(bits, dtype=np.uint8),
            values=np.array(values, dtype=np.float64),
        )


def _offsets(counts: list[int]) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def load_graph_columns(path: str | Path) -> list[ProbabilisticGraph]:
    """Load the graphs :func:`save_graph_columns` wrote.

    The result equals what :func:`load_database` returns for the same graphs
    saved as JSON: the same values and types, the same dict insertion orders,
    the same float bits, the same mutation versions.  Every array is checked
    in bulk before an object is built, and a file that does not hold a
    database raises :class:`GraphError`: a truncated or damaged archive, a
    missing array, offsets that disagree with the arrays, an out-of-range
    code or position, a self loop, an assignment bit other than 0/1, a table
    value that is not finite and > 0, a factor with a repeated edge, an edge
    no factor covers, a repeated vertex, edge or assignment.  A table whose
    mass is off 1 is rescaled exactly as :func:`probabilistic_graph_from_dict`
    rescales it.
    """
    where = str(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in _COLUMNS}
    # a lone .npy array is no context manager: TypeError
    except (
        zipfile.BadZipFile, zlib.error, KeyError, ValueError, EOFError, OSError, TypeError
    ) as error:
        raise GraphError(f"corrupt graph columns at {where!r}: {error!r}") from error
    return _Columns(arrays, where).graphs()


class _Columns:
    """The arrays of one file, checked on construction; :meth:`graphs`
    builds the objects."""

    def __init__(self, arrays: dict, where: str) -> None:
        self.where = where
        self._read_symbols(arrays["symbols"])
        # every offset array ends at the length of what it indexes, so no
        # np.repeat below can be sized by a damaged number
        num_graphs = len(self.names)
        num_vertices = arrays["vertex_ids"].size
        num_edges = arrays["edge_labels"].size
        num_factors = arrays["variable_offsets"].size - 1
        self.vertex_offsets = self._offsets(arrays, "vertex_offsets", num_graphs, num_vertices)
        self.edge_offsets = self._offsets(arrays, "edge_offsets", num_graphs, num_edges)
        self.factor_offsets = self._offsets(arrays, "factor_offsets", num_graphs, num_factors)
        self.variable_offsets = self._offsets(
            arrays, "variable_offsets", num_factors, arrays["factor_edges"].size
        )
        self.entry_offsets = self._offsets(
            arrays, "entry_offsets", num_factors, arrays["values"].size
        )

        vertex_ids = self._codes(arrays, "vertex_ids", (num_vertices,), len(self.vertex_symbols))
        vertex_labels = self._codes(arrays, "vertex_labels", (num_vertices,), len(self.labels))
        edge_labels = self._codes(arrays, "edge_labels", (num_edges,), len(self.labels))
        # positions are local to their graph: check each against its graph's size
        edge_graph = np.repeat(np.arange(num_graphs), np.diff(self.edge_offsets))
        edge_ends = self._codes(
            arrays, "edge_ends", (num_edges, 2), np.diff(self.vertex_offsets)[edge_graph, None]
        )
        if np.any(edge_ends[:, 0] == edge_ends[:, 1]):
            self._refuse("an edge is a self loop")
        widths = np.diff(self.variable_offsets)
        variable_graph = np.repeat(
            np.repeat(np.arange(num_graphs), np.diff(self.factor_offsets)), widths
        )
        factor_edges = self._codes(
            arrays,
            "factor_edges",
            (int(self.variable_offsets[-1]),),
            np.diff(self.edge_offsets)[variable_graph],
        )
        # a variable names one edge of the whole database; a factor names each once
        variables = factor_edges + self.edge_offsets[variable_graph]
        variable_factor = np.repeat(np.arange(num_factors), widths)
        order = np.lexsort((variables, variable_factor))
        if np.any(
            (np.diff(variable_factor[order]) == 0) & (np.diff(variables[order]) == 0)
        ):
            self._refuse("a factor names one edge twice")
        covered = np.zeros(num_edges, dtype=bool)
        covered[variables] = True
        if not covered.all():
            self._refuse("a skeleton edge has no probability factor")

        sizes = np.diff(self.entry_offsets)
        if np.any(sizes == 0):
            self._refuse("a factor has an empty table")
        self.bit_offsets = np.zeros(num_factors + 1, dtype=np.int64)
        np.cumsum(widths * sizes, out=self.bit_offsets[1:])
        bits = self._array(arrays, "bits", np.uint8, (int(self.bit_offsets[-1]),))
        if bits.size and int(bits.max()) > 1:
            self._refuse("an assignment bit is not 0 or 1")
        values = self._array(arrays, "values", np.float64, (int(self.entry_offsets[-1]),))
        if not np.all(np.isfinite(values) & (values > 0)):
            self._refuse("a table value is not a finite number > 0")
        mass = np.add.reduceat(values, self.entry_offsets[:-1]) if num_factors else values[:0]
        self.proper = np.abs(mass - 1.0) <= MASS_TOLERANCE - _MASS_MARGIN

        # the element lists the objects are built from
        self.vertex_ids = [self.vertex_symbols[code] for code in vertex_ids.tolist()]
        self.vertex_labels = [self.labels[code] for code in vertex_labels.tolist()]
        self.edge_labels = [self.labels[code] for code in edge_labels.tolist()]
        self.edge_ends = edge_ends.tolist()
        self.factor_edges = factor_edges.tolist()
        self.bits = bits.tolist()
        self.values = values.tolist()

    # -- checks ------------------------------------------------------------
    def _refuse(self, why: str) -> NoReturn:
        raise GraphError(f"malformed graph columns at {self.where!r}: {why}")

    def _read_symbols(self, array: np.ndarray) -> None:
        if array.dtype != np.uint8 or array.ndim != 1:
            self._refuse("the symbol table is not a byte string")
        try:
            symbols = json.loads(array.tobytes())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._refuse(f"the symbol table is not JSON: {error}")
        if not isinstance(symbols, dict) or symbols.get("type") != "probabilistic_graph_columns":
            self._refuse("the symbol table is not one of graph columns")
        if symbols.get("version") != COLUMNS_FORMAT_VERSION:
            self._refuse(
                f"unsupported graph columns version {symbols.get('version')!r}; "
                f"this build reads version {COLUMNS_FORMAT_VERSION}"
            )
        vertex_ids, labels, names = (symbols.get(key) for key in ("vertex_ids", "labels", "names"))
        if not all(isinstance(entry, list) for entry in (vertex_ids, labels, names)) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in names
        ):
            self._refuse("the symbol table lacks its vertex_ids, labels or names lists")
        # JSON turns tuple ids into lists, exactly as in the JSON format
        self.vertex_symbols = [_maybe_tuple(vertex) for vertex in vertex_ids]
        self.labels = labels
        self.names = names

    def _array(self, arrays: dict, name: str, dtype, shape: tuple) -> np.ndarray:
        array = arrays[name]
        if array.dtype != dtype or array.shape != shape:
            expected = f"{np.dtype(dtype)}{list(shape)}"
            self._refuse(f"{name} is {array.dtype}{list(array.shape)}, expected {expected}")
        return array

    def _integers(self, arrays: dict, name: str, shape: tuple) -> np.ndarray:
        array = arrays[name]
        if array.dtype.kind not in "iu" or array.shape != shape:
            expected = f"integers{list(shape)}"
            self._refuse(f"{name} is {array.dtype}{list(array.shape)}, expected {expected}")
        # uint64 beyond the int64 range wraps negative here and fails the range check
        return array.astype(np.int64, copy=False)

    def _offsets(self, arrays: dict, name: str, count: int, end: int) -> np.ndarray:
        """``count`` + 1 offsets growing from 0 to ``end``."""
        offsets = self._integers(arrays, name, (max(count, 0) + 1,))
        if offsets[0] != 0 or offsets[-1] != end or np.any(np.diff(offsets) < 0):
            self._refuse(f"{name} do not grow from 0 to {end}")
        return offsets

    def _codes(self, arrays: dict, name: str, shape: tuple, bound) -> np.ndarray:
        """``name`` as int64, refused unless every entry is in ``[0, bound)``
        (a negative one would index from the end)."""
        codes = self._integers(arrays, name, shape)
        if np.any(codes < 0) or np.any(codes >= bound):
            self._refuse(f"{name} holds a code out of range")
        return codes

    # -- objects -----------------------------------------------------------
    def graphs(self) -> list[ProbabilisticGraph]:
        vertex_offsets = self.vertex_offsets.tolist()
        edge_offsets = self.edge_offsets.tolist()
        factor_offsets = self.factor_offsets.tolist()
        variable_offsets = self.variable_offsets.tolist()
        entry_offsets = self.entry_offsets.tolist()
        bit_offsets = self.bit_offsets.tolist()
        proper = self.proper.tolist()
        bits, values = self.bits, self.values
        graphs = []
        for index, (name, skeleton_name) in enumerate(self.names):
            skeleton, keys = self._skeleton(
                skeleton_name,
                vertex_offsets[index],
                vertex_offsets[index + 1],
                edge_offsets[index],
                edge_offsets[index + 1],
            )
            factors = []
            for f in range(factor_offsets[index], factor_offsets[index + 1]):
                variables = self.factor_edges[variable_offsets[f] : variable_offsets[f + 1]]
                edges = tuple([keys[e] for e in variables])
                width, start, stop = len(edges), entry_offsets[f], entry_offsets[f + 1]
                if width:
                    flat = iter(bits[bit_offsets[f] : bit_offsets[f + 1]])
                    rows = zip(*[flat] * width)
                else:
                    rows = [()] * (stop - start)
                table = dict(zip(rows, values[start:stop]))
                if len(table) != stop - start:
                    self._refuse(f"graph {index} has a factor with a repeated assignment")
                if proper[f]:
                    jpt = JointProbabilityTable.from_checked(edges, table)
                else:
                    # what probabilistic_graph_from_dict does, float for float
                    try:
                        jpt = JointProbabilityTable(edges, table)
                    except ProbabilityError:
                        jpt = JointProbabilityTable(edges, table, normalize=True)
                factors.append(NeighborEdgeFactor(edges, jpt))
            graph = ProbabilisticGraph.__new__(ProbabilisticGraph)
            # ProbabilisticGraph.__init__'s attributes, in its order, without
            # the coverage check made above
            graph.skeleton = skeleton
            graph.factors = factors
            graph.name = name if name is not None else skeleton.name
            graphs.append(graph)
        return graphs

    def _skeleton(self, name, v0: int, v1: int, e0: int, e1: int):
        """One graph's skeleton, built as labeled_graph_from_dict builds it
        (add_vertex per vertex, then add_edge per edge), and its edge keys."""
        vertices = self.vertex_ids[v0:v1]
        vertex_labels = dict(zip(vertices, self.vertex_labels[v0:v1]))
        if len(vertex_labels) != v1 - v0:
            self._refuse(f"a graph names one vertex twice: {name!r}")
        adjacency = {vertex: {} for vertex in vertices}
        edge_labels = {}
        keys = []
        for (a, b), label in zip(self.edge_ends[e0:e1], self.edge_labels[e0:e1]):
            u, v = vertices[a], vertices[b]
            key = edge_key(u, v)
            adjacency[u][v] = label
            adjacency[v][u] = label
            edge_labels[key] = label
            keys.append(key)
        if len(edge_labels) != e1 - e0:
            self._refuse(f"a graph names one edge twice: {name!r}")
        skeleton = LabeledGraph(name=name)
        skeleton._vertex_labels = vertex_labels
        skeleton._adjacency = adjacency
        skeleton._edge_labels = edge_labels
        skeleton._version = (v1 - v0) + (e1 - e0)  # one bump per add_vertex / add_edge
        return skeleton, keys
