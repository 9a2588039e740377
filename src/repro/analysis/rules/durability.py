"""IO0xx — durability rules.

Crash-safety rests on one discipline (LogBase-style): every persisted
artifact is written tmp + flush + fsync + ``os.replace`` + dir-fsync, and
the only module that composes those primitives is ``utils/atomic_io.py``.
A raw ``open(path, "w")`` anywhere else can leave a torn file a recovery
path will later trust, and so can a numpy writer handed a path instead of a
handle from ``atomic_writer``.  The write-ahead log's append-mode handle is the one
deliberate exception, carried as an inline suppression where it lives so
the justification sits next to the code.
"""

from __future__ import annotations

import ast

from ..engine import SourceFile
from ..findings import Finding
from .base import Rule

_OPEN_FUNCTIONS = {"open", "io.open", "os.fdopen"}
_WRITE_MODE_CHARS = set("wax+")
_PATH_WRITERS = {"write_text", "write_bytes"}
_NUMPY_WRITERS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
_ATOMIC_WRITER = "repro.utils.atomic_io.atomic_writer"
_COMMIT_PRIMITIVES = {
    "os.replace": "rename-over-live-path",
    "os.rename": "rename-over-live-path",
    "os.fsync": "fsync",
    "os.link": "hard-link commit",
}


def _mode_argument(call: ast.Call) -> ast.expr | None:
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_write_mode(mode: ast.expr | None) -> bool | None:
    """True/False for a literal mode; None when the mode is dynamic."""
    if mode is None:
        return False  # bare open(path) reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return None


class RawWriteOpenRule(Rule):
    rule_id = "IO001"
    title = "raw write-mode open() outside utils/atomic_io.py"
    invariant = (
        "Persisted artifacts are written only through utils/atomic_io.py "
        "(tmp + fsync + os.replace + dir-fsync); write/append-mode open() "
        "elsewhere can tear files across a crash."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if self.config.is_atomic_io_owner(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            name = source.resolver.qualified_name(call.func)
            if name not in _OPEN_FUNCTIONS:
                continue
            write_mode = _is_write_mode(_mode_argument(call))
            if write_mode is False:
                continue
            detail = (
                "opens a file in a write/append mode"
                if write_mode
                else "opens a file with a dynamic mode (cannot prove read-only)"
            )
            findings.append(
                source.finding(
                    self.rule_id,
                    call,
                    f"{name}() {detail}; route the write through "
                    "repro.utils.atomic_io so a crash cannot tear it",
                )
            )
        return findings


class RawPathWriteRule(Rule):
    rule_id = "IO002"
    title = "Path.write_text/write_bytes outside utils/atomic_io.py"
    invariant = (
        "Path.write_text()/write_bytes() truncate in place — a crash "
        "mid-write leaves a torn file; use atomic_write_text/atomic_write_bytes."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if self.config.is_atomic_io_owner(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            if isinstance(call.func, ast.Attribute) and call.func.attr in _PATH_WRITERS:
                findings.append(
                    source.finding(
                        self.rule_id,
                        call,
                        f".{call.func.attr}() truncates the target in place; use "
                        f"repro.utils.atomic_io.atomic_{call.func.attr} instead",
                    )
                )
        return findings


class CommitPrimitiveRule(Rule):
    rule_id = "IO003"
    title = "raw commit primitive outside utils/atomic_io.py"
    invariant = (
        "os.replace/os.rename/os.fsync are the atomic-commit building "
        "blocks; composing them ad hoc skips the fsync-before-rename and "
        "dir-fsync-after steps, so only utils/atomic_io.py may call them."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if self.config.is_atomic_io_owner(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            name = source.resolver.qualified_name(call.func)
            kind = _COMMIT_PRIMITIVES.get(name or "")
            if kind is None:
                continue
            findings.append(
                source.finding(
                    self.rule_id,
                    call,
                    f"{name}() is a raw {kind} primitive; use the "
                    "repro.utils.atomic_io helpers so the full "
                    "fsync/replace/dir-fsync sequence runs",
                )
            )
        return findings


class NumpyWriterRule(Rule):
    rule_id = "IO004"
    title = "numpy writer not handed an atomic_writer handle"
    invariant = (
        "numpy.save/savez/savez_compressed and ndarray.tofile write in place "
        "when given a path; they may only write to the handle of an enclosing "
        "`with atomic_writer(...) as handle`, so a crash cannot tear the file."
    )

    def check(self, source: SourceFile) -> list[Finding]:
        if self.config.is_atomic_io_owner(source.path):
            return []
        findings: list[Finding] = []
        for call in self.walk_calls(source):
            name = source.resolver.qualified_name(call.func)
            if name in _NUMPY_WRITERS:
                what = f"{name}()"
            elif isinstance(call.func, ast.Attribute) and call.func.attr == "tofile":
                what = ".tofile()"
            else:
                continue
            target = call.args[0] if call.args else _keyword(call, ("file", "fid"))
            if target is not None and self._is_atomic_handle(source, call, target):
                continue
            findings.append(
                source.finding(
                    self.rule_id,
                    call,
                    f"{what} does not write to an atomic_writer handle; write "
                    f"inside `with {_ATOMIC_WRITER}(path) as handle` and pass "
                    "the handle, so a crash cannot tear the file",
                )
            )
        return findings

    @staticmethod
    def _is_atomic_handle(source: SourceFile, call: ast.Call, target: ast.expr) -> bool:
        """True when ``target`` is the name an enclosing ``with`` bound to an
        ``atomic_writer(...)`` call."""
        if not isinstance(target, ast.Name):
            return False
        node = source.parent(call)
        while node is not None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    opener = item.context_expr
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == target.id
                        and isinstance(opener, ast.Call)
                        and _is_atomic_writer(source.resolver.qualified_name(opener.func))
                    ):
                        return True
            node = source.parent(node)
        return False


def _keyword(call: ast.Call, names: tuple[str, ...]) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg in names:
            return keyword.value
    return None


def _is_atomic_writer(name: str | None) -> bool:
    # a relative import (``from ..utils.atomic_io import atomic_writer``)
    # leaves the bare name, which the resolver cannot qualify
    return name in (_ATOMIC_WRITER, "atomic_writer")
