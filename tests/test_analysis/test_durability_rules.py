"""IO0xx fixture tests: write-mode opens, in-place path writes, commit
primitives, numpy writers."""

from __future__ import annotations

from .conftest import rule_ids


class TestRawWriteOpen:
    def test_write_mode_flagged(self, analyze):
        report = analyze(
            """
            def save(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
            """
        )
        assert rule_ids(report) == ["IO001"]

    def test_append_exclusive_and_update_modes_flagged(self, analyze):
        report = analyze(
            """
            def touch(path):
                open(path, "ab").close()
                open(path, "x").close()
                open(path, mode="r+b").close()
            """
        )
        assert rule_ids(report) == ["IO001", "IO001", "IO001"]

    def test_read_mode_allowed(self, analyze):
        report = analyze(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()

            def load_binary(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """
        )
        assert report.findings == []

    def test_dynamic_mode_flagged_as_unprovable(self, analyze):
        report = analyze(
            """
            def reopen(path, mode):
                return open(path, mode)
            """
        )
        assert rule_ids(report) == ["IO001"]
        assert "dynamic mode" in report.findings[0].message

    def test_atomic_io_owner_exempt(self, analyze):
        report = analyze(
            """
            import os

            def commit(path, tmp, payload):
                with open(tmp, "w") as handle:
                    handle.write(payload)
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """,
            relpath="repro/utils/atomic_io.py",
        )
        assert report.findings == []


class TestRawPathWrite:
    def test_write_text_flagged_with_atomic_hint(self, analyze):
        report = analyze(
            """
            def save(path, payload):
                path.write_text(payload)
            """
        )
        assert rule_ids(report) == ["IO002"]
        assert "atomic_write_text" in report.findings[0].message

    def test_write_bytes_flagged(self, analyze):
        report = analyze(
            """
            def save(path, payload):
                path.write_bytes(payload)
            """
        )
        assert rule_ids(report) == ["IO002"]
        assert "atomic_write_bytes" in report.findings[0].message

    def test_read_text_allowed(self, analyze):
        report = analyze(
            """
            def load(path):
                return path.read_text()
            """
        )
        assert report.findings == []


class TestCommitPrimitives:
    def test_os_replace_rename_fsync_flagged(self, analyze):
        report = analyze(
            """
            import os

            def swap(a, b, handle):
                os.replace(a, b)
                os.rename(b, a)
                os.fsync(handle.fileno())
            """
        )
        assert rule_ids(report) == ["IO003", "IO003", "IO003"]

    def test_shutil_move_not_in_scope(self, analyze):
        report = analyze(
            """
            import shutil

            def move(a, b):
                shutil.move(a, b)
            """
        )
        assert report.findings == []


class TestNumpyWriters:
    def test_writers_given_a_path_flagged(self, analyze):
        report = analyze(
            """
            import numpy as np
            from numpy import savez_compressed

            def save(path, array):
                np.save(path, array)
                np.savez(path / "arrays.npz", lower=array)
                savez_compressed(str(path), upper=array)
                array.tofile(path)
                np.save(file=path, arr=array)
            """
        )
        assert rule_ids(report) == ["IO004"] * 5
        assert "atomic_writer" in report.findings[0].message

    def test_a_handle_opened_elsewhere_flagged(self, analyze):
        report = analyze(
            """
            import numpy as np

            def save(path, array):
                with open(path, "rb") as handle:
                    np.save(handle, array)
                with other_writer(path) as handle:
                    np.savez(handle, array=array)
            """
        )
        assert rule_ids(report) == ["IO004", "IO004"]

    def test_the_handle_must_be_the_enclosing_one(self, analyze):
        report = analyze(
            """
            import numpy as np
            from repro.utils.atomic_io import atomic_writer

            def save(path, array, stream):
                with atomic_writer(path) as handle:
                    np.save(stream, array)
                np.save(handle, array)
            """
        )
        assert rule_ids(report) == ["IO004", "IO004"]

    def test_atomic_writer_handles_allowed(self, analyze):
        report = analyze(
            """
            import numpy
            import numpy as np
            from repro.utils import atomic_io
            from repro.utils.atomic_io import atomic_writer

            def save(path, array):
                with atomic_writer(path) as handle:
                    np.savez_compressed(handle, lower=array)
                with atomic_io.atomic_writer(path, "wb") as out, atomic_writer(path) as extra:
                    numpy.save(out, array)
                    array.tofile(extra)
                    np.savez(file=out, array=array)
            """
        )
        assert report.findings == []

    def test_relative_import_of_atomic_writer_allowed(self, analyze):
        report = analyze(
            """
            import numpy as np
            from ..utils.atomic_io import atomic_writer

            def save(path, array):
                with atomic_writer(path) as handle:
                    np.save(handle, array)
            """,
            relpath="repro/core/fixture_mod.py",
        )
        assert report.findings == []

    def test_loads_not_in_scope(self, analyze):
        report = analyze(
            """
            import numpy as np

            def load(path):
                return np.load(path), np.fromfile(path)
            """
        )
        assert report.findings == []

    def test_atomic_io_owner_exempt(self, analyze):
        report = analyze(
            """
            import numpy as np

            def dump(path, array):
                np.save(path, array)
            """,
            relpath="repro/utils/atomic_io.py",
        )
        assert report.findings == []
