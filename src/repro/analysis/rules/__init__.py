"""The shipped rule pack and its registry.

Rule ids are stable API: suppression comments and baseline entries reference
them, so a rule may be retired but its id never reused.
"""

from __future__ import annotations

from ..config import DEFAULT_CONFIG, AnalysisConfig
from .base import Rule
from .determinism import (
    AmbientRngRule,
    FilesystemOrderRule,
    UnorderedSetIterationRule,
    WallClockEntropyRule,
)
from .durability import (
    CommitPrimitiveRule,
    NumpyWriterRule,
    RawPathWriteRule,
    RawWriteOpenRule,
)
from .exception_taxonomy import BuiltinRaiseRule
from .locking import GuardedAttributeRule
from .shm_lifecycle import DirectSharedMemoryRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    AmbientRngRule,
    WallClockEntropyRule,
    UnorderedSetIterationRule,
    FilesystemOrderRule,
    RawWriteOpenRule,
    RawPathWriteRule,
    CommitPrimitiveRule,
    NumpyWriterRule,
    DirectSharedMemoryRule,
    GuardedAttributeRule,
    BuiltinRaiseRule,
)


def default_rules(config: AnalysisConfig = DEFAULT_CONFIG) -> list[Rule]:
    return [rule_class(config) for rule_class in RULE_CLASSES]


def rule_table() -> dict[str, tuple[str, str]]:
    """``rule id -> (title, invariant)`` for reporters and docs."""
    return {cls.rule_id: (cls.title, cls.invariant) for cls in RULE_CLASSES}


__all__ = [
    "RULE_CLASSES",
    "Rule",
    "default_rules",
    "rule_table",
]
