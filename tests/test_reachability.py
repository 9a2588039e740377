"""Production reachability: every function under ``src/repro`` that a smoke
lifecycle never enters is deleted or named, with its reason, on the committed
allowlist ``tests/reachability_allowlist.txt``, and every ``example:`` or
``benchmark:`` reason names, by path, callers that mention the entry.

The lifecycle runs in a fresh interpreter under ``sys.setprofile`` and
``threading.setprofile``, so test order and worker processes cannot change
what it reaches.  It uses the public API only:

* a durable ``GraphCatalog.build`` over a 40-graph, 3-label PPI corpus, on
  which the PMI prunes and the verifier samples;
* threshold ``query_many`` at δ ∈ {0, 1} and ε ∈ {0.3, 0.6}, and top-k;
* add, update and remove, then close → open → compact;
* one TCP ``QueryService`` round trip: a query, its repeat, top-k, an update
  and ``stats``.

``reference/`` (the oracles) and ``analysis/`` (the contract linter) are not
production code and are not traced.  The check fails when a function is
never entered and not allowlisted, when an entry names nothing that exists,
and when an allowlisted function is entered.  Run the lifecycle alone with
``PYTHONPATH=src python tests/test_reachability.py OUT.json``.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
NOT_PRODUCTION = ("reference", "analysis")
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")


def module_name(path: Path) -> str:
    """``src/repro/graphs/io.py`` → ``repro.graphs.io`` (a package is its ``__init__``)."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def is_production(path: Path) -> bool:
    return path.relative_to(PACKAGE).parts[0] not in NOT_PRODUCTION


def defined_functions() -> set[str]:
    """The qualified name (module + ``__qualname__``) of every function and
    method defined in a production module."""
    names: set[str] = set()

    def collect(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                names.add(prefix + child.name)
                collect(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.")
            else:
                collect(child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        if is_production(path):
            collect(ast.parse(path.read_text(encoding="utf-8")), module_name(path) + ".")
    return names


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``{qualified name: reason}``; ``#`` starts a comment line."""
    entries: dict[str, str] = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        assert reason.strip(), f"{path.name}:{number}: {name} gives no reason"
        assert name not in entries, f"{path.name}:{number}: {name} is listed twice"
        entries[name] = reason.strip()
    return entries


def covers(entry: str, function: str) -> bool:
    """An entry names a function, or a class or module and everything in it."""
    return function == entry or function.startswith(entry + ".")


def reachability_problems(
    defined: set[str], reached: set[str], allowlist: dict[str, str]
) -> list[str]:
    """What is wrong, one line each; empty when every function is reached or
    allowlisted, every entry names something and no allowlisted function is
    reached."""
    problems = []
    for function in sorted(defined - reached):
        if not any(covers(entry, function) for entry in allowlist):
            problems.append(f"never entered and not allowlisted: {function}")
    for entry in allowlist:
        if not any(covers(entry, function) for function in defined):
            problems.append(f"allowlisted but not defined: {entry}")
        entered = sorted(function for function in reached & defined if covers(entry, function))
        if entered:
            problems.append(f"allowlisted but entered: {entry} ({', '.join(entered)})")
    return problems


CALLER_PATH = re.compile(r"\b(?:examples|benchmarks)/[\w/]+\.py")


def caller_problems(allowlist: dict[str, str], root: Path = ROOT) -> list[str]:
    """What is wrong with the callers the ``example:`` / ``benchmark:``
    reasons name, one line each: a reason that names no caller path, a named
    file that does not exist, and one that never mentions the entry's last
    name component (so cannot call it).  A function's name must stand alone;
    a module's may be part of a longer one (``generate_road_network`` names
    the ``road_network`` module)."""
    problems = []
    for entry, reason in allowlist.items():
        if not reason.startswith(("example", "benchmark")):
            continue
        paths = CALLER_PATH.findall(reason)
        if not paths:
            problems.append(f"names no caller path: {entry}")
        last = re.escape(entry.rpartition(".")[2])
        module = SRC.joinpath(*entry.split(".")).with_suffix(".py").is_file()
        name = re.compile(last if module else rf"\b{last}\b")
        for path in paths:
            caller = root / path
            if not caller.is_file():
                problems.append(f"names a missing caller: {entry} ({path})")
            elif not name.search(caller.read_text(encoding="utf-8")):
                problems.append(f"names a caller that does not mention it: {entry} ({path})")
    return problems


def lifecycle(directory: Path) -> dict:
    """The production path the trace covers; returns the counters that show
    the PMI pruned and the verifier sampled."""
    # imported here, under the profiler: what runs at import time counts too
    from repro import GraphCatalog, SearchConfig, VerificationConfig
    from repro.datasets import PPIDatasetConfig, generate_ppi_database, generate_query_workload
    from repro.pmi import BoundConfig, FeatureSelectionConfig
    from repro.service import QueryService, ServiceConfig, TcpServiceClient

    corpus = generate_ppi_database(PPIDatasetConfig(num_graphs=40, num_vertex_labels=3), rng=7)
    arrivals = generate_ppi_database(
        PPIDatasetConfig(num_graphs=2, num_vertex_labels=3), rng=8
    ).graphs
    queries = generate_query_workload(corpus.graphs, query_size=4, num_queries=3, rng=11).queries()
    config = SearchConfig(verification=VerificationConfig(method="sampling", num_samples=200))
    catalog = GraphCatalog.build(
        corpus.graphs,
        feature_config=FeatureSelectionConfig(max_vertices=3, max_features=16),
        bound_config=BoundConfig(num_samples=60),
        rng=7,
        directory=directory,
    )
    counters = {"pruned": 0, "sampled": 0}
    for delta in (0, 1):
        for epsilon in (0.3, 0.6):
            for result in catalog.query_many(queries, epsilon, delta, config, rng=4242):
                counters["pruned"] += result.statistics.pruned_by_upper_bound
                counters["sampled"] += result.statistics.sampled
        catalog.query_top_k(queries[0], 3, delta, config, rng=4242)
    added = catalog.add_graph(arrivals[0])
    catalog.update_graph(0, arrivals[1])
    catalog.remove_graph(added)
    catalog.query(queries[0], 0.3, 1, config, rng=4242)
    catalog.close()

    catalog = GraphCatalog.open(directory)
    catalog.query(queries[0], 0.3, 1, config, rng=4242)
    catalog.compact()

    async def round_trip() -> None:
        async with QueryService(catalog, ServiceConfig(search_config=config)) as service:
            host, port = await service.serve_tcp()
            client = await TcpServiceClient().connect(host, port)
            await client.query(queries[1], 0.3, 1, rng=5)
            await client.query(queries[1], 0.3, 1, rng=5)  # the answer cache's hit
            await client.query_top_k(queries[1], 2, 1, rng=5)
            await client.update_graph(1, arrivals[0])
            await client.stats()
            await client.close()

    asyncio.run(round_trip())
    catalog.close()
    return counters


def trace(out: Path) -> None:
    """Run :func:`lifecycle` under the profiler and write what it entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            counters = lifecycle(Path(scratch) / "catalog")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = set()
    for code in entered:
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(PACKAGE) and is_production(path):
            reached.add(f"{module_name(path)}.{code.co_qualname}")
    out.write_text(json.dumps({"reached": sorted(reached), **counters}))


def test_every_production_function_is_reached_or_allowlisted(tmp_path):
    out = tmp_path / "reached.json"
    # a fixed hash seed: set order must not decide what is reached either
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    run = subprocess.run(
        [sys.executable, __file__, str(out)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    traced = json.loads(out.read_text())
    assert traced["pruned"] > 0 and traced["sampled"] > 0, traced
    problems = reachability_problems(
        defined_functions(), set(traced["reached"]), read_allowlist()
    )
    assert not problems, "\n".join(problems)


def test_the_check_reports_each_kind_of_problem():
    defined = {"m.f", "m.g", "m.C.h", "m.C.i"}
    allowlist = {"m.g": "unreached", "m.C": "a class", "m.gone": "deleted"}
    assert reachability_problems(defined, {"m.f", "m.C.i"}, allowlist) == [
        "allowlisted but entered: m.C (m.C.i)",
        "allowlisted but not defined: m.gone",
    ]
    assert reachability_problems(defined, {"m.C.h", "m.C.i", "m.g"}, {"m.g": "x"}) == [
        "never entered and not allowlisted: m.f",
        "allowlisted but entered: m.g (m.g)",
    ]


OWNERS = (
    "item ",
    "oracle",
    "example",
    "benchmark",
    "option",
    "input-gated",
    "error path",
    "protocol",
)


def test_every_allowlist_reason_starts_with_its_owner():
    """The header's owners are the only ones: an entry no open item, oracle
    or public caller claims has no reason to stay."""
    unowned = [
        name for name, reason in read_allowlist().items() if not reason.startswith(OWNERS)
    ]
    assert not unowned, unowned


def test_the_allowlist_reader_refuses_a_bare_name_and_a_repeat(tmp_path):
    listing = tmp_path / "allowlist.txt"
    listing.write_text("# a comment\n\nm.f oracle: kept\nm.g\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="allowlist.txt:4: m.g gives no reason"):
        read_allowlist(listing)
    listing.write_text("m.f oracle: kept\nm.f example: again\n", encoding="utf-8")
    with pytest.raises(AssertionError, match="allowlist.txt:2: m.f is listed twice"):
        read_allowlist(listing)
    listing.write_text("# a comment\n\nm.f oracle: kept, for now\n", encoding="utf-8")
    assert read_allowlist(listing) == {"m.f": "oracle: kept, for now"}


def test_every_example_and_benchmark_reason_names_callers_that_mention_it():
    problems = caller_problems(read_allowlist())
    assert not problems, "\n".join(problems)


def test_the_caller_check_reports_each_kind_of_problem(tmp_path):
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("box.used()\nbox.used_too()\n", encoding="utf-8")
    allowlist = {
        "m.Box.used": "example: examples/demo.py",
        "m.Box.vague": "benchmark: the figure benches",
        "m.Box.gone": "example: examples/missing.py",
        "m.Box.used_t": "example: examples/demo.py calls used_too, not it",
        "m.Box.other": "option: not a caller claim",
    }
    assert caller_problems(allowlist, tmp_path) == [
        "names no caller path: m.Box.vague",
        "names a missing caller: m.Box.gone (examples/missing.py)",
        "names a caller that does not mention it: m.Box.used_t (examples/demo.py)",
    ]


def test_a_reason_naming_a_file_that_does_not_call_the_entry_fails():
    """The structural filter's old reason, "the Fig 10-13 benches", went stale
    when those benches moved onto ``filter_plan``; named by path, the check
    catches it."""
    entry = "repro.structural.similarity_filter.StructuralFilter.filter"
    stale = {entry: "benchmark: benchmarks/bench_fig10_probability_threshold.py"}
    assert caller_problems(stale) == [
        f"names a caller that does not mention it: {entry} "
        "(benchmarks/bench_fig10_probability_threshold.py)"
    ]
    assert caller_problems({entry: "benchmark: the Fig 10-13 benches"}) == [
        f"names no caller path: {entry}"
    ]
    assert not caller_problems({entry: "benchmark: benchmarks/e2e/layers.py"})


def test_an_entry_covers_its_members_not_its_namesakes():
    assert covers("m.C", "m.C") and covers("m.C", "m.C.h") and covers("m", "m.C.h")
    assert not covers("m.f", "m.fg") and not covers("m.C.h", "m.C")


def test_a_new_uncalled_function_is_found_and_reported(tmp_path, monkeypatch):
    """The walk finds a function nothing calls wherever it is nested, skips
    the oracles, and the check reports it."""
    package = tmp_path / "repro"
    (package / "reference").mkdir(parents=True)
    (package / "__init__.py").write_text("def entry():\n    pass\n", encoding="utf-8")
    (package / "reference" / "oracle.py").write_text("def slow():\n    pass\n", encoding="utf-8")
    (package / "tools.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        def helper():\n"
        "            pass\n"
        "    async def unused(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "SRC", tmp_path)
    monkeypatch.setattr(module, "PACKAGE", package)
    defined = defined_functions()
    assert defined == {
        "repro.entry",
        "repro.tools.Box.used",
        "repro.tools.Box.used.<locals>.helper",
        "repro.tools.Box.unused",
    }
    reached = {"repro.entry", "repro.tools.Box.used", "repro.tools.Box.used.<locals>.helper"}
    assert reachability_problems(defined, reached, {}) == [
        "never entered and not allowlisted: repro.tools.Box.unused"
    ]


def test_the_walk_names_functions_as_the_interpreter_does():
    """The names read from the source are the names the trace records."""
    from repro.core.catalog import GraphCatalog
    from repro.core.quadratic_program import solve_relaxed_qp
    from repro.graphs.io import load_graph_columns
    from repro.service.client import TcpServiceClient

    nested = next(
        c
        for c in solve_relaxed_qp.__code__.co_consts
        if inspect.iscode(c) and c.co_name == "negative_gradient"
    )
    codes = [
        (load_graph_columns.__module__, load_graph_columns.__code__),
        (GraphCatalog.__module__, GraphCatalog.open.__func__.__code__),
        (GraphCatalog.__module__, GraphCatalog.generation.fget.__code__),
        (TcpServiceClient.__module__, TcpServiceClient.connect.__code__),
        (solve_relaxed_qp.__module__, nested),
    ]
    defined = defined_functions()
    for module, code in codes:
        assert f"{module}.{code.co_qualname}" in defined, code.co_qualname
    assert not [name for name in defined if name.startswith(("repro.reference", "repro.analysis"))]


if __name__ == "__main__":
    trace(Path(sys.argv[1]))
