"""DET0xx — determinism rules.

The system's core promise is that answers are byte-identical across
sequential, batched, mutated-catalog, and crash-recovered
execution.  That holds only if every stochastic draw comes from the
``utils/rng.py`` stream registry, nothing derives entropy from the clock,
and nothing lets ``PYTHONHASHSEED``-dependent set iteration order or
filesystem enumeration order leak into an ordered result.
"""

from __future__ import annotations

import ast

from ..engine import SourceFile, infer_set_names
from ..findings import Finding
from .base import Rule

# functions that consume the ambient module-level RNG state regardless of
# their arguments
_AMBIENT_RANDOM_FUNCTIONS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.uniform",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.seed",
    "random.getrandbits",
    "random.gauss",
    "random.betavariate",
    "random.expovariate",
    "random.normalvariate",
}
# numpy's legacy global-state API: nondeterministic unless np.random.seed is
# called, and seeding the *global* state is itself a cross-module hazard
_NUMPY_GLOBAL_FUNCTIONS = {
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.seed",
}
# constructors that are ambient only when called with no seed argument
_SEEDABLE_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.SeedSequence",
}


class AmbientRngRule(Rule):
    rule_id = "DET001"
    title = "ambient or unseeded RNG outside utils/rng.py"
    invariant = (
        "Every stochastic draw derives from the utils/rng.py stream registry "
        "(derive_rng(root, STREAM, stable id)); module-level RNG state and "
        "unseeded generator construction are forbidden elsewhere."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if self.config.is_rng_owner(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            name = source.resolver.qualified_name(call.func)
            if name is None:
                continue
            if name in _AMBIENT_RANDOM_FUNCTIONS or name in _NUMPY_GLOBAL_FUNCTIONS:
                findings.append(
                    source.finding(
                        self.rule_id,
                        call,
                        f"{name}() uses ambient global RNG state; derive a stream "
                        "via repro.utils.rng instead",
                    )
                )
            elif name in _SEEDABLE_CONSTRUCTORS and not call.args and not call.keywords:
                findings.append(
                    source.finding(
                        self.rule_id,
                        call,
                        f"{name}() constructed without a seed; pass an explicit "
                        "seed or a repro.utils.rng-derived stream",
                    )
                )
        return findings


_WALL_CLOCK_FUNCTIONS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "uuid.uuid1": "host/time-derived uuid",
    "uuid.uuid4": "random uuid",
}


class WallClockEntropyRule(Rule):
    rule_id = "DET002"
    title = "clock or uuid entropy on the query path"
    invariant = (
        "Answer-producing modules never read wall-clock time or generate "
        "uuids: any value that could feed a seed, a tie-break, or an id must "
        "be a pure function of (inputs, rng root).  Monotonic duration "
        "measurement (perf_counter/monotonic) stays allowed."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if not self.config.on_query_path(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            name = source.resolver.qualified_name(call.func)
            if name is None:
                continue
            kind = _WALL_CLOCK_FUNCTIONS.get(name)
            if kind is None and name.endswith(".now") and name.startswith("datetime."):
                kind = "wall-clock time"
            if kind is not None:
                findings.append(
                    source.finding(
                        self.rule_id,
                        call,
                        f"{name}() injects {kind} into a query-path module; "
                        "answers must be pure functions of (inputs, rng root)",
                    )
                )
        return findings


# reducers whose result does not depend on iteration order
_ORDER_ERASING = {
    "sorted",
    "sum",
    "min",
    "max",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "Counter",
}
# accumulators that freeze iteration order into an ordered container
_ORDERED_ACCUMULATORS = {"append", "extend", "insert", "appendleft"}


class UnorderedSetIterationRule(Rule):
    rule_id = "DET003"
    title = "set iteration order leaking into ordered results"
    invariant = (
        "Iterating a set is PYTHONHASHSEED-dependent for str/tuple elements, "
        "so it differs across worker processes.  Set-typed values may only "
        "feed ordered accumulation (lists, generators, `next(iter(...))`, "
        "`set.pop()`) through an explicit sorted(...)."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        scopes: list[ast.AST] = [source.tree]
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            findings.extend(self._check_scope(source, scope))
        return findings

    def _scope_nodes(self, scope: ast.AST) -> list[ast.AST]:
        """Nodes belonging to ``scope`` but not to a nested function."""
        nodes: list[ast.AST] = []
        pending = list(ast.iter_child_nodes(scope))
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes.append(node)
            pending.extend(ast.iter_child_nodes(node))
        return nodes

    def _check_scope(self, source: SourceFile, scope: ast.AST) -> list[Finding]:
        from ..engine import _is_set_expression

        set_names = infer_set_names(scope)
        findings: list[Finding] = []
        for node in self._scope_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter, set_names) and self._orders(node.body):
                    findings.append(self._leak(source, node.iter, "for-loop"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if self.call_is_argument_of(source, node, _ORDER_ERASING):
                    continue
                for comp in node.generators:
                    if _is_set_expression(comp.iter, set_names):
                        findings.append(self._leak(source, comp.iter, "comprehension"))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(source, node, set_names))
        return findings

    def _check_call(
        self, source: SourceFile, call: ast.Call, set_names: set[str]
    ) -> list[Finding]:
        from ..engine import _is_set_expression

        # next(iter(s)) picks a hash-order-dependent "first" element
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "iter"
            and call.args
            and _is_set_expression(call.args[0], set_names)
        ):
            parent = source.parent(call)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "next"
            ):
                return [self._leak(source, call, "next(iter(...))")]
        # s.pop() removes a hash-order-dependent element
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "pop"
            and not call.args
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in set_names
        ):
            return [self._leak(source, call, "set.pop()")]
        return []

    @staticmethod
    def _orders(body: list[ast.stmt]) -> bool:
        """Does the loop body feed an ordered accumulator or yield?"""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDERED_ACCUMULATORS
                ):
                    return True
        return False

    def _leak(self, source: SourceFile, node: ast.AST, construct: str) -> Finding:
        return source.finding(
            self.rule_id,
            node,
            f"{construct} consumes set iteration order, which is hash-seed "
            "dependent across processes; wrap the set in sorted(...) or keep "
            "an insertion-ordered structure",
        )


_FS_ITERATORS = {"iterdir", "glob", "rglob"}
_FS_FUNCTIONS = {"os.listdir", "os.scandir"}


class FilesystemOrderRule(Rule):
    rule_id = "DET004"
    title = "unsorted filesystem enumeration"
    invariant = (
        "Directory listing order is filesystem-dependent; every "
        "iterdir()/glob()/rglob()/os.listdir()/os.scandir() result is "
        "consumed through sorted(...) so on-disk layout never changes "
        "behavior."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            is_fs = False
            label = ""
            if isinstance(call.func, ast.Attribute) and call.func.attr in _FS_ITERATORS:
                is_fs, label = True, f".{call.func.attr}()"
            else:
                name = source.resolver.qualified_name(call.func)
                if name in _FS_FUNCTIONS:
                    is_fs, label = True, f"{name}()"
            if not is_fs:
                continue
            if self.enclosed_by_call(source, call, {"sorted"}):
                continue
            findings.append(
                source.finding(
                    self.rule_id,
                    call,
                    f"{label} enumerates the filesystem in platform-dependent "
                    "order; wrap the call in sorted(...)",
                )
            )
        return findings
