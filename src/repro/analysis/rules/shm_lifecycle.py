"""SHM0xx — shared-memory rules.

No module owns a ``multiprocessing.shared_memory`` segment: every query runs
in one process.  A segment needs an owner that unlinks it exactly once, also
when its process dies, and nothing here is that owner, so every use is a
finding.
"""

from __future__ import annotations

import ast

from ..engine import SourceFile
from ..findings import Finding
from .base import Rule

_SHM_MODULE = "multiprocessing.shared_memory"


class DirectSharedMemoryRule(Rule):
    rule_id = "SHM001"
    title = "multiprocessing.shared_memory use"
    invariant = (
        "Nothing touches multiprocessing.shared_memory: every query runs in "
        "one process, so no segment needs creating, attaching or unlinking."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name.startswith(_SHM_MODULE):
                        findings.append(self._finding(source, node, name.name))
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith(_SHM_MODULE):
                    findings.append(self._finding(source, node, node.module))
                elif node.module == "multiprocessing":
                    for name in node.names:
                        if name.name == "shared_memory":
                            findings.append(self._finding(source, node, _SHM_MODULE))
            elif isinstance(node, ast.Attribute):
                qualified = source.resolver.qualified_name(node)
                if qualified and qualified.startswith(_SHM_MODULE + "."):
                    findings.append(self._finding(source, node, qualified))
        return findings

    def _finding(self, source: SourceFile, node: ast.AST, what: str) -> Finding:
        return source.finding(
            self.rule_id,
            node,
            f"{what} used; no module owns a shared-memory segment",
        )
