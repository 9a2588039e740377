"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch one base class.  More specific subclasses communicate which
subsystem rejected the input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when an argument or configuration value is invalid.

    Also a :class:`ValueError`: callers (and long-standing tests) that catch
    ``ValueError`` for bad-argument conditions keep working, while
    ``except ReproError`` now covers these sites too.  This is the type the
    EXC001 contract-lint rule points bare ``raise ValueError`` sites at.
    """


class StateError(ReproError, RuntimeError):
    """Raised when an API is used in the wrong lifecycle state (a timer
    stopped before it was started, a handle used after close).  Also a
    :class:`RuntimeError` for compatibility with callers catching that."""


class AnalysisError(ReproError):
    """Raised by the contract linter (:mod:`repro.analysis`) for unreadable
    sources, malformed baselines, or invalid scan paths — never for rule
    findings, which are data, not errors."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples include adding an edge whose endpoints are unknown, querying a
    missing vertex, or constructing a graph from inconsistent data.
    """


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class ProbabilityError(ReproError):
    """Raised for invalid probability values or inconsistent distributions."""


class FactorError(ProbabilityError):
    """Raised for invalid joint probability table / factor operations."""


class IndexError_(ReproError):
    """Raised when the PMI or structural index is used before it is built,
    or built with inconsistent parameters."""


class QueryError(ReproError):
    """Raised for invalid queries (disconnected query graphs, thresholds out
    of range, distance larger than the query size, ...)."""


class CatalogError(ReproError):
    """Raised for invalid mutable-catalog operations: adding a live external
    id twice, removing or updating an id that is not live, or constructing a
    catalog from an index with no recorded build root."""


class WalError(CatalogError):
    """Raised when a write-ahead log is unreadable beyond crash semantics: a
    corrupt record *before* the final one, a sequence-number gap, or a header
    that does not match the generation being opened.  (A torn final record is
    expected crash damage, silently truncated on open — never this error.)"""


class ServiceError(ReproError):
    """Raised by the query service for request-level failures.

    Every instance carries a stable machine-readable ``code`` — one of
    ``"bad_request"``, ``"overloaded"``, ``"deadline_exceeded"``,
    ``"shutting_down"``, or ``"internal"`` — which is exactly the string a
    remote client receives in the error frame, so in-process and TCP callers
    can branch on the same values.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class VerificationError(ReproError):
    """Raised when verification cannot be carried out (for example exact
    verification requested on a graph that is too large to enumerate)."""
