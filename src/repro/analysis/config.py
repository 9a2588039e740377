"""The repo-specific contract data the rules check against.

This module is the machine-readable half of the determinism / durability /
concurrency contracts documented in ARCHITECTURE.md ("Contracts as lint
rules").  Rules never hard-code module names or attribute lists; they read
them from an :class:`AnalysisConfig`, so the contract surface lives in one
reviewable place and fixture tests can substitute a synthetic config.

Module classification is by posix path *suffix* ("repro/utils/rng.py"
matches both ``src/repro/utils/rng.py`` scanned from the repo root and an
installed ``site-packages/repro/utils/rng.py``), and package scopes use a
directory suffix with a trailing slash sentinel handled by
:meth:`AnalysisConfig.in_scope`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LockContract:
    """One class's concurrency contract: which attributes the lock guards.

    ``__init__`` is exempt (construction happens-before any sharing), and a
    method may opt out per line with ``# repro: allow[LOCK001]`` when a
    documented benign race makes an unlocked read correct.
    """

    lock_attribute: str
    guarded_attributes: frozenset[str]


def _suffix_match(path: str, suffixes: frozenset[str] | tuple[str, ...]) -> bool:
    return any(path == s or path.endswith("/" + s) for s in suffixes)


@dataclass(frozen=True)
class AnalysisConfig:
    """Scopes and ownership tables for the shipped rule pack."""

    # DET001: the one module allowed to construct ambient / unseeded RNG
    # state — everything else must derive streams via utils/rng.py.
    rng_owner_modules: frozenset[str] = frozenset({"repro/utils/rng.py"})

    # IO001/IO002/IO003: the one module allowed to open files for writing,
    # rename over live paths, and fsync — the atomic tmp+fsync+replace
    # recipe every persisted artifact must go through.
    atomic_io_owner_modules: frozenset[str] = frozenset({"repro/utils/atomic_io.py"})

    # DET002: packages whose code computes answers (so wall-clock time and
    # uuids must never feed seeds or ordering there).  Benchmarks stamp
    # trajectory points with time.time() by design, hence the src-only scope.
    query_path_packages: frozenset[str] = frozenset({"repro"})
    query_path_exempt_modules: frozenset[str] = frozenset({"repro/utils/timer.py"})

    # EXC001: packages that must raise the exceptions.py taxonomy.
    taxonomy_packages: frozenset[str] = frozenset({"repro"})

    # LOCK001: class name -> concurrency contract, for the classes the query
    # service shares across threads (dispatcher backend thread vs event loop
    # vs user threads) that guard state with a lock.  A catalog's planner
    # needs none (an immutable snapshot, replaced by reference); the plan
    # cache every planner of the catalog shares does.
    lock_contracts: dict[str, LockContract] = field(
        default_factory=lambda: {
            "AnswerCache": LockContract(
                lock_attribute="_lock",
                guarded_attributes=frozenset({"_entries", "stats"}),
            ),
            "PlanCache": LockContract(
                lock_attribute="_lock",
                guarded_attributes=frozenset({"_entries", "_hits", "_misses", "_evictions"}),
            ),
        }
    )

    def is_rng_owner(self, path: str) -> bool:
        return _suffix_match(path, self.rng_owner_modules)

    def is_atomic_io_owner(self, path: str) -> bool:
        return _suffix_match(path, self.atomic_io_owner_modules)

    def on_query_path(self, path: str) -> bool:
        if _suffix_match(path, self.query_path_exempt_modules):
            return False
        return self._in_packages(path, self.query_path_packages)

    def in_taxonomy_scope(self, path: str) -> bool:
        return self._in_packages(path, self.taxonomy_packages)

    @staticmethod
    def _in_packages(path: str, packages: frozenset[str]) -> bool:
        parts = path.split("/")
        return any(package in parts[:-1] for package in packages)


DEFAULT_CONFIG = AnalysisConfig()
