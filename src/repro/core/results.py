"""Result and statistics containers returned by the search engine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QueryAnswer:
    """One graph returned by a query.

    ``decided_by`` records which stage produced the answer:
    ``"lower_bound"`` (accepted by Pruning 2 without verification) or
    ``"verification"``.  ``probability`` is the Lsim lower bound in the first
    case and the verified SSP estimate in the second.
    """

    graph_id: int
    graph_name: str | None
    probability: float
    decided_by: str

    def as_dict(self) -> dict:
        """JSON-serializable form; :meth:`from_dict` round-trips it exactly.

        ``probability`` survives the trip bit-for-bit: ``json`` emits
        ``repr(float)`` (shortest round-tripping decimal), so the service
        layer can ship answers over the wire without breaking byte-parity.
        """
        return {
            "graph_id": self.graph_id,
            "graph_name": self.graph_name,
            "probability": self.probability,
            "decided_by": self.decided_by,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryAnswer":
        return cls(
            graph_id=int(data["graph_id"]),
            graph_name=data["graph_name"],
            probability=float(data["probability"]),
            decided_by=data["decided_by"],
        )


@dataclass
class StageStatistics:
    """Counters and wall time for one stage of one query run: the
    structural filter, PMI pruning or verification.

    ``examined`` is the candidate-set size entering the stage; ``pruned``
    counts candidates the stage discarded (including top-k candidates skipped
    against the tightening probability floor); ``accepted`` counts answers the
    stage emitted without further work (Pruning 2 accepts, verified answers);
    ``passed`` is what the stage handed to its successor.
    """

    stage: str
    examined: int = 0
    pruned: int = 0
    accepted: int = 0
    passed: int = 0
    seconds: float = 0.0

    def counters_dict(self) -> dict:
        """The deterministic (non-timing) fields, for serialization/parity."""
        return {
            "stage": self.stage,
            "examined": self.examined,
            "pruned": self.pruned,
            "accepted": self.accepted,
            "passed": self.passed,
        }


@dataclass
class QueryStatistics:
    """Per-phase counters and timings for one query run.

    The top-level counters mirror the paper's three-phase accounting;
    ``stages`` carries one :class:`StageStatistics` per stage in execution
    order — its ``seconds`` is the only per-stage wall time, and
    ``total_seconds`` is their sum.
    """

    database_size: int = 0
    structural_candidates: int = 0
    probabilistic_candidates: int = 0
    accepted_by_lower_bound: int = 0
    pruned_by_upper_bound: int = 0
    verified: int = 0
    sampled: int = 0  # verified candidates whose estimate drew worlds
    answers: int = 0
    total_seconds: float = 0.0
    relaxed_query_count: int = 0
    stages: list[StageStatistics] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Plain-dict view (benchmarks serialize this).

        Per-stage wall times live under ``stage_seconds`` (suffix-matched
        with the other timing keys) so counter-only consumers can drop every
        ``*_seconds`` entry and keep a fully deterministic dict.
        """
        return {
            "database_size": self.database_size,
            "structural_candidates": self.structural_candidates,
            "probabilistic_candidates": self.probabilistic_candidates,
            "accepted_by_lower_bound": self.accepted_by_lower_bound,
            "pruned_by_upper_bound": self.pruned_by_upper_bound,
            "verified": self.verified,
            "sampled": self.sampled,
            "answers": self.answers,
            "total_seconds": round(self.total_seconds, 6),
            "relaxed_query_count": self.relaxed_query_count,
            "stage_counters": [stage.counters_dict() for stage in self.stages],
            "stage_seconds": {
                stage.stage: round(stage.seconds, 6) for stage in self.stages
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryStatistics":
        """Inverse of :meth:`as_dict`.

        Counters (the deterministic contract) round-trip exactly; the
        ``*_seconds`` fields come back rounded to the microsecond
        :meth:`as_dict` serialized, which is all a remote caller ever saw.
        """
        stats = cls(
            database_size=int(data.get("database_size", 0)),
            structural_candidates=int(data.get("structural_candidates", 0)),
            probabilistic_candidates=int(data.get("probabilistic_candidates", 0)),
            accepted_by_lower_bound=int(data.get("accepted_by_lower_bound", 0)),
            pruned_by_upper_bound=int(data.get("pruned_by_upper_bound", 0)),
            verified=int(data.get("verified", 0)),
            sampled=int(data.get("sampled", 0)),
            answers=int(data.get("answers", 0)),
            total_seconds=float(data.get("total_seconds", 0.0)),
            relaxed_query_count=int(data.get("relaxed_query_count", 0)),
        )
        stage_seconds = data.get("stage_seconds", {})
        for counters in data.get("stage_counters", []):
            stats.stages.append(
                StageStatistics(
                    stage=counters["stage"],
                    examined=int(counters["examined"]),
                    pruned=int(counters["pruned"]),
                    accepted=int(counters["accepted"]),
                    passed=int(counters["passed"]),
                    seconds=float(stage_seconds.get(counters["stage"], 0.0)),
                )
            )
        return stats


@dataclass
class QueryResult:
    """Answers plus statistics for one query."""

    answers: list[QueryAnswer] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def answer_ids(self) -> set[int]:
        return {answer.graph_id for answer in self.answers}

    def as_dict(self) -> dict:
        """JSON-serializable form: the query service's wire format.

        Answers round-trip byte-identically (see :meth:`QueryAnswer.as_dict`)
        and the statistics counters round-trip exactly, so a remote caller
        can hold the service to the same parity contract as library mode.
        """
        return {
            "answers": [answer.as_dict() for answer in self.answers],
            "statistics": self.statistics.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryResult":
        return cls(
            answers=[QueryAnswer.from_dict(entry) for entry in data["answers"]],
            statistics=QueryStatistics.from_dict(data["statistics"]),
        )

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)
