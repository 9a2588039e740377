"""``repro.reference`` (the VF2 matcher, the scalar sampler, the frozenset
event normaliser) is for tests and benchmarks to compare against: no library
module outside it imports it, and what moved there is defined nowhere else."""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro import reference

PACKAGE = Path(repro.__file__).parent


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


MOVED = {"normalize_events", "NormalizedEvents", "canonical_event_key"}


def test_the_frozenset_event_oracle_is_defined_only_in_the_reference_package():
    """Events are masks in production; their frozenset normaliser is the oracle."""
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef | ast.ClassDef) and node.name in MOVED:
                defined.setdefault(node.name, []).append(path.relative_to(PACKAGE).as_posix())
    assert defined == {name: ["reference/events.py"] for name in MOVED}
    assert MOVED <= set(reference.__all__)
