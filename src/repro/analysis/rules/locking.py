"""LOCK0xx — lock-discipline rules.

The classes the query service shares across threads declare, in
``analysis/config.py``, which attributes their lock guards.  This rule
checks the declaration mechanically: inside a guarded class, every
``self.<guarded>`` access must sit lexically inside a ``with self.<lock>:``
block.  ``__init__`` is exempt (construction happens-before publication),
and a documented benign race opts out per line with
``# repro: allow[LOCK001] -- reason``.
"""

from __future__ import annotations

import ast

from ..engine import SourceFile
from ..findings import Finding
from .base import Rule


def _with_acquires(node: ast.With, lock_attribute: str) -> bool:
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr == lock_attribute
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return True
    return False


class GuardedAttributeRule(Rule):
    rule_id = "LOCK001"
    title = "guarded attribute touched outside its owning lock"
    invariant = (
        "Classes shared across threads (AnswerCache) declare "
        "lock-guarded attributes; every read or write of a guarded attribute "
        "happens inside `with self._lock:` (construction in __init__ exempt)."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            contract = self.config.lock_contracts.get(node.name)
            if contract is None:
                continue
            findings.extend(self._check_class(source, node, contract))
        return findings

    def _check_class(self, source: SourceFile, cls: ast.ClassDef, contract) -> list[Finding]:
        findings: list[Finding] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            findings.extend(self._check_method(source, method, contract))
        return findings

    def _check_method(self, source: SourceFile, method, contract) -> list[Finding]:
        findings: list[Finding] = []
        # every self.<guarded> attribute node, minus those under a lock With
        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With) and _with_acquires(node, contract.lock_attribute):
                for child in ast.iter_child_nodes(node):
                    visit(child, True)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in contract.guarded_attributes
                and not locked
            ):
                findings.append(
                    source.finding(
                        self.rule_id,
                        node,
                        f"self.{node.attr} is guarded by self."
                        f"{contract.lock_attribute} but accessed outside it "
                        f"in {method.name}()",
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        visit(method, False)
        return findings
