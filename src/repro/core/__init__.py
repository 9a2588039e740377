"""Query-processing core: relaxation, tightest SSP bounds, pruning
conditions, verification, the reusable query planner, and the catalog that
is the front door of every query (:class:`GraphCatalog`).

``ProbabilisticGraphDatabase`` is importable from here for the one benchmark
workload that still builds through it; it is not part of ``repro.__all__``."""

from repro.core.relaxation import relax_query, RelaxationConfig
from repro.core.set_cover import greedy_weighted_set_cover
from repro.core.quadratic_program import solve_lsim_rounding, QPResult
from repro.core.pruning import (
    FeatureContainment,
    ProbabilisticPruner,
    PruningConfig,
    SspBounds,
)
from repro.core.verification import Verifier, VerificationConfig
from repro.core.results import (
    QueryAnswer,
    QueryResult,
    QueryStatistics,
    StageStatistics,
)
from repro.core.pipeline import replay_top_k
from repro.core.planner import (
    QueryPlan,
    QueryPlanner,
    SearchConfig,
    validate_query,
    validate_top_k_query,
)
from repro.core.catalog import GraphCatalog
from repro.core.wal import WriteAheadLog, wal_filename
from repro.core.search_engine import ProbabilisticGraphDatabase

__all__ = [
    "QueryResult",
    "relax_query",
    "RelaxationConfig",
    "greedy_weighted_set_cover",
    "solve_lsim_rounding",
    "QPResult",
    "FeatureContainment",
    "ProbabilisticPruner",
    "PruningConfig",
    "SspBounds",
    "Verifier",
    "VerificationConfig",
    "QueryAnswer",
    "QueryStatistics",
    "StageStatistics",
    "replay_top_k",
    "QueryPlan",
    "QueryPlanner",
    "validate_query",
    "validate_top_k_query",
    "SearchConfig",
    "GraphCatalog",
    "WriteAheadLog",
    "wal_filename",
    "ProbabilisticGraphDatabase",
]
