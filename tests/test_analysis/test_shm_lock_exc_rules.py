"""SHM001 / LOCK001 / EXC001 fixture tests."""

from __future__ import annotations

from .conftest import rule_ids


class TestDirectSharedMemory:
    def test_from_import_flagged(self, analyze):
        report = analyze(
            """
            from multiprocessing.shared_memory import SharedMemory

            def grab(name):
                return SharedMemory(name=name)
            """
        )
        assert "SHM001" in rule_ids(report)

    def test_plain_import_and_attribute_use_flagged(self, analyze):
        report = analyze(
            """
            import multiprocessing.shared_memory

            def grab(name):
                return multiprocessing.shared_memory.SharedMemory(name=name)
            """
        )
        assert rule_ids(report).count("SHM001") >= 2

    def test_from_multiprocessing_import_shared_memory_flagged(self, analyze):
        report = analyze(
            """
            from multiprocessing import shared_memory

            def grab(name):
                return shared_memory.SharedMemory(name=name)
            """
        )
        assert "SHM001" in rule_ids(report)

    def test_former_owner_module_is_not_exempt(self, analyze):
        report = analyze(
            """
            from multiprocessing.shared_memory import SharedMemory

            def create(name, size):
                return SharedMemory(name=name, create=True, size=size)
            """,
            relpath="repro/utils/shm.py",
        )
        assert "SHM001" in rule_ids(report)

    def test_code_without_shared_memory_clean(self, analyze):
        report = analyze(
            """
            from multiprocessing import Pipe

            def channel():
                return Pipe(duplex=False)
            """
        )
        assert report.findings == []


class TestGuardedAttributes:
    def test_unlocked_guarded_access_flagged(self, analyze):
        report = analyze(
            """
            class AnswerCache:
                def __init__(self):
                    self._lock = None
                    self._entries = {}

                def peek(self, key):
                    return self._entries.get(key)
            """
        )
        assert rule_ids(report) == ["LOCK001"]
        assert "peek" in report.findings[0].message

    def test_locked_access_clean_and_init_exempt(self, analyze):
        report = analyze(
            """
            import threading

            class AnswerCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def peek(self, key):
                    with self._lock:
                        return self._entries.get(key)
            """
        )
        assert report.findings == []

    def test_other_class_not_contracted(self, analyze):
        report = analyze(
            """
            class Unrelated:
                def peek(self, key):
                    return self._entries.get(key)
            """
        )
        assert report.findings == []

    def test_nested_with_does_not_leak_lock(self, analyze):
        report = analyze(
            """
            class AnswerCache:
                def size(self):
                    with self._lock:
                        entries = len(self._entries)
                    return entries + self.stats.hits
            """
        )
        assert rule_ids(report) == ["LOCK001"]
        assert "stats" in report.findings[0].message

    def test_every_guarded_attribute_is_checked(self, analyze):
        """Each attribute the contract names is guarded, read or written:
        a write of one and a read of the other outside the lock are two
        findings, each naming its attribute and its method."""
        report = analyze(
            """
            class AnswerCache:
                def reset(self, stats):
                    with self._lock:
                        self._entries.clear()
                    self.stats = stats

                def pending(self):
                    return len(self._entries)

                def hits(self):
                    with self._lock:
                        return self.stats.hits
            """
        )
        assert rule_ids(report) == ["LOCK001", "LOCK001"]
        messages = " ".join(finding.message for finding in report.findings)
        assert "self.stats" in messages and "reset" in messages
        assert "self._entries" in messages and "pending" in messages
        # ... and so in every class the default config contracts, the plan
        # cache's counters included: one finding per attribute touched unlocked
        from repro.analysis.config import DEFAULT_CONFIG

        assert {"AnswerCache", "PlanCache"} <= DEFAULT_CONFIG.lock_contracts.keys()
        for name, contract in DEFAULT_CONFIG.lock_contracts.items():
            guarded = sorted(contract.guarded_attributes)
            methods = "".join(
                f"\n    def touch{i}(self):\n        return self.{attribute}\n"
                f"\n    def locked{i}(self):\n        with self.{contract.lock_attribute}:"
                f"\n            return self.{attribute}\n"
                for i, attribute in enumerate(guarded)
            )
            report = analyze(f"class {name}:{methods}")
            assert rule_ids(report) == ["LOCK001"] * len(guarded), name
            for i, attribute in enumerate(guarded):
                assert any(
                    f"self.{attribute}" in finding.message and f"touch{i}" in finding.message
                    for finding in report.findings
                ), (name, attribute)

    def test_a_config_the_test_passes_is_read(self, tmp_path):
        """The contracts come from the config, not from the rule: a class
        the default config does not name is checked once a config names it."""
        from repro.analysis import run_analysis
        from repro.analysis.config import AnalysisConfig, LockContract

        path = tmp_path / "repro" / "registry.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "class Registry:\n    def peek(self):\n        return self._items\n",
            encoding="utf-8",
        )
        config = AnalysisConfig(
            lock_contracts={"Registry": LockContract("_lock", frozenset({"_items"}))}
        )
        assert rule_ids(run_analysis([str(path)], config)) == ["LOCK001"]
        assert rule_ids(run_analysis([str(path)])) == []


class TestBuiltinRaise:
    def test_bare_valueerror_flagged_in_scope(self, analyze):
        report = analyze(
            """
            def check(n):
                if n < 0:
                    raise ValueError("negative")
            """
        )
        assert rule_ids(report) == ["EXC001"]

    def test_taxonomy_types_allowed(self, analyze):
        report = analyze(
            """
            from repro.exceptions import ConfigurationError, StateError

            def check(n, started):
                if n < 0:
                    raise ConfigurationError("negative")
                if not started:
                    raise StateError("not started")
            """
        )
        assert report.findings == []

    def test_typeerror_and_notimplemented_allowed(self, analyze):
        report = analyze(
            """
            def check(n):
                if not isinstance(n, int):
                    raise TypeError("want int")
                raise NotImplementedError
            """
        )
        assert report.findings == []

    def test_bare_reraise_allowed(self, analyze):
        report = analyze(
            """
            def passthrough(fn):
                try:
                    return fn()
                except Exception:
                    raise
            """
        )
        assert report.findings == []

    def test_out_of_scope_module_not_flagged(self, analyze):
        report = analyze(
            """
            def check(n):
                if n < 0:
                    raise ValueError("negative")
            """,
            relpath="scripts/tool.py",
        )
        assert report.findings == []
