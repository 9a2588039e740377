"""``repro.reference`` (the VF2 matcher, the scalar sampler, the frozenset
event normaliser, possible-world enumeration, subgraph distance, the exact
SIP, the optimal set cover) is for tests and benchmarks to compare against: no
library module outside it imports it, what moved there is defined nowhere
else, and no production knob selects it.  The same sweeps pinned what only
forwarded to the one query path or only served tests: ``GraphCatalog`` is the
front door, and the pruning switches, ``JointProbabilityTable.conditional``
and the factor's ``probability_of`` are gone; so are top-k's shard-partial
mode and the PMI's shared-memory arena interchange."""

from __future__ import annotations

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import repro
from repro import reference

PACKAGE = Path(repro.__file__).parent
REPOSITORY = PACKAGE.parent.parent


def imported_names(source: str, module: str) -> set[str]:
    """Every module ``source`` (the text of ``module``) imports, and for
    ``from x import y`` also ``x.y``; relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module.split(".")[: -node.level]
                base = ".".join([*parent, base] if base else parent)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_walk_sees_every_import_form():
    forms = {
        "import repro.reference": "repro.isomorphism.embeddings",
        "from repro import reference": "repro.isomorphism.embeddings",
        "from repro.reference.vf2 import VF2Matcher": "repro.core.pipeline",
        "from ..reference import sampling": "repro.probability.batch_kernel",
        "def f():\n    from repro.reference import WorldSampler": "repro.core.catalog",
    }
    for source, module in forms.items():
        assert any(
            name.startswith("repro.reference") for name in imported_names(source, module)
        ), source


def test_no_library_module_imports_the_reference_package():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE.parent).with_suffix("")
        if relative.parts[1] == "reference":
            continue
        module = ".".join(relative.parts)
        if relative.name == "__init__":
            module = module.rsplit(".", 1)[0] + ".__init__"
        names = imported_names(path.read_text(encoding="utf-8"), module)
        offenders += [
            (module, name)
            for name in sorted(names)
            if name == "repro.reference" or name.startswith("repro.reference.")
        ]
    assert offenders == []


def definitions(names: set[str]) -> dict[str, list[str]]:
    """Where under ``src/repro`` each of ``names`` is defined (a function, a
    method or a class), as paths relative to the package."""
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef | ast.ClassDef) and node.name in names:
                defined.setdefault(node.name, []).append(path.relative_to(PACKAGE).as_posix())
    return defined


MOVED = {"normalize_events", "NormalizedEvents", "canonical_event_key"}


def test_the_frozenset_event_oracle_is_defined_only_in_the_reference_package():
    """Events are masks in production; their frozenset normaliser is the oracle."""
    assert definitions(MOVED) == {name: ["reference/events.py"] for name in MOVED}
    assert MOVED <= set(reference.__all__)


# the definitions themselves: possible worlds, subgraph distance, exact SIP,
# the optimal cover, the neighbor edge set — by the module that now holds each
DEFINITION_ORACLES = {
    "reference/worlds.py": {
        "factor_probability",
        "PossibleWorld",
        "enumerate_possible_worlds",
        "total_world_mass",
        "world_weight",
        "world_graph",
        "exact_sip",
        "similarity_probability_by_enumeration",
    },
    "reference/mcs.py": {
        "signature_distance_lower_bound",
        "subgraph_distance",
        "is_subgraph_similar",
        "maximum_common_subgraph_size",
    },
    "reference/set_cover.py": {"exhaustive_weighted_set_cover"},
    "reference/neighbor_edges.py": {"is_neighbor_edge_set"},
}


def test_the_definition_oracles_are_defined_only_in_the_reference_package():
    """One production path per job: the possible-world and subgraph-distance
    definitions are what production is tested against, not a method of it."""
    moved = set().union(*DEFINITION_ORACLES.values())
    assert definitions(moved) == {
        name: [module] for module, names in DEFINITION_ORACLES.items() for name in names
    }
    assert moved <= set(reference.__all__)


def test_no_production_package_exports_a_definition_oracle():
    moved = set().union(*DEFINITION_ORACLES.values())
    for package in ("repro", "repro.graphs", "repro.isomorphism", "repro.core"):
        module = importlib.import_module(package)
        assert not moved & set(module.__all__), package
        assert not [name for name in moved if hasattr(module, name)], package


def test_the_knobs_that_selected_them_are_gone():
    """No verification method, filter mode, scan method or per-call override
    reaches an oracle, and the scalar world sampler is the reference's alone."""
    from repro.baselines.exact_scan import ExactScanConfig
    from repro.core import VerificationConfig, Verifier
    from repro.graphs import ProbabilisticGraph
    from repro.structural import StructuralFilter

    assert [f.name for f in fields(VerificationConfig)] == [
        "method", "xi", "tau", "num_samples", "embedding_limit", "max_exact_events"
    ]
    assert [f.name for f in fields(ExactScanConfig)] == [
        "relaxation", "verification", "fallback_to_sampling"
    ]
    assert list(inspect.signature(StructuralFilter).parameters) == ["index"]
    for entry in (Verifier.subgraph_similarity_probability, Verifier.verify_block):
        assert "method" not in inspect.signature(entry).parameters
    assert not hasattr(Verifier, "matches")
    for gone in ("world_weight", "world_graph", "sample_world", "sample_world_assignment"):
        assert not hasattr(ProbabilisticGraph, gone), gone
    assert not definitions({"SkeletonSequence"})


def test_the_third_sweep_is_gone():
    """The pruning ablation switches, the JPT's conditional and the factor's
    own world weight left production; ``factor_probability`` is the oracle's."""
    from repro.core import SearchConfig
    from repro.graphs import NeighborEdgeFactor
    from repro.probability import JointProbabilityTable

    assert [f.name for f in fields(SearchConfig)] == ["relaxation", "pruning", "verification"]
    assert not hasattr(JointProbabilityTable, "conditional")
    assert not hasattr(NeighborEdgeFactor, "probability_of")
    assert "factor_probability" in reference.__all__


ADAPTER = "ProbabilisticGraphDatabase"


def test_the_catalog_is_the_only_front_door():
    """The one-shard adapter is out of the package's public names, and only
    its module, the ``repro.core`` re-export, the end-to-end benchmark that
    still builds through it and its parity test name it."""
    assert ADAPTER not in repro.__all__
    assert not hasattr(repro, ADAPTER)
    sources = [
        path
        for root in ("src", "tests", "benchmarks", "examples", "scripts")
        for path in (REPOSITORY / root).rglob("*.py")
    ]
    naming = {
        path.relative_to(REPOSITORY).as_posix()
        for path in [*sources, REPOSITORY / "README.md"]
        if ADAPTER in path.read_text(encoding="utf-8")
        and path.resolve() != Path(__file__).resolve()
    }
    outside_e2e = {name for name in naming if not name.startswith("benchmarks/e2e/")}
    assert outside_e2e == {
        "src/repro/core/search_engine.py",
        "src/repro/core/__init__.py",
        "tests/test_search_engine.py",
    }


def test_top_k_has_no_partial_mode_and_the_arena_no_index():
    """Top-k is ranked once over every candidate: no shard-partial top-k and
    no PMI arena interchange is left."""
    from repro import core
    from repro.core import pipeline, planner
    from repro.pmi import ProbabilisticMatrixIndex

    for gone in ("TopKPartial", "merge_top_k_partials"):
        assert gone not in core.__all__ and not hasattr(core, gone), gone
        assert not hasattr(pipeline, gone), gone
    assert not hasattr(planner.QueryPlanner, "execute_top_k_partial")
    # FilteredPlan carries what the per-query context used to
    for holder in (pipeline, pipeline.FilteredPlan):
        assert not hasattr(holder, "gather_partial"), holder
    for gone in ("arena_arrays", "arena_meta", "from_arrays", "ARENA_ARRAY_KEYS"):
        assert not hasattr(ProbabilisticMatrixIndex, gone), gone
    assert "partial" not in (pipeline.__doc__ + planner.__doc__).lower()


def test_the_shared_memory_plane_is_gone():
    """No shared-memory plane, publication or descriptor is left to import."""
    import importlib.util

    from repro import core

    for gone in ("ShardDescriptor", "ShardPlane", "materialize_shard", "publish_base",
                 "publish_delta"):
        assert gone not in core.__all__ and not hasattr(core, gone), gone
    assert importlib.util.find_spec("repro.utils.shm") is None


def test_the_worker_pool_is_gone():
    """A catalog verifies in-process through its one ``QueryPlanner``: no
    pool module, planner wrapper or slot error is left to import, and no
    library module imports ``multiprocessing`` (the SHM001 rule names it to
    forbid it)."""
    import importlib.util

    from repro import core, exceptions

    assert importlib.util.find_spec("repro.core.sharding") is None
    for gone in ("ShardedPlanner", "SlotError", "BrokenSlotError"):
        for module in (repro, core, exceptions):
            assert not hasattr(module, gone), (module.__name__, gone)
            assert gone not in getattr(module, "__all__", ()), (module.__name__, gone)
    importers = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(
            name.split(".")[0] == "multiprocessing"
            for name in imported_names(path.read_text(encoding="utf-8"), "repro.module")
        )
    ]
    assert importers == []


def test_the_stage_framework_is_gone():
    """A query is ``filter_plan`` then ``finish_threshold`` / ``finish_top_k``:
    no stage object, candidate set or per-query context is left to import,
    and a planner holds no stage list."""
    from repro import core
    from repro.core import pipeline, planner

    for gone in ("QueryPipeline", "PipelineStage", "StructuralFilterStage",
                 "PmiPruningStage", "VerificationStage", "build_default_pipeline",
                 "PipelineContext", "CandidateSet", "ThresholdState", "record_verified"):
        assert gone not in core.__all__ and not hasattr(core, gone), gone
        assert not hasattr(pipeline, gone), gone
    assert not hasattr(planner.QueryPlanner, "pipeline")
    assert "weakref" not in vars(pipeline)
