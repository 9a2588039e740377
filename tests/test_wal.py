"""Unit tests for the write-ahead log: record format, torn-tail truncation,
and the damage conditions that must raise instead of silently losing data."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.wal import WAL_FORMAT_VERSION, WriteAheadLog, wal_filename
from repro.exceptions import CatalogError, WalError


def encode(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode() + body + b"\n"


class TestLifecycle:
    def test_create_append_open_roundtrip(self, tmp_path):
        path = tmp_path / wal_filename(0)
        wal = WriteAheadLog.create(path, 0)
        assert wal.next_lsn == 1  # the header
        assert wal.append({"op": "add", "external_id": 4}) == 1
        assert wal.append({"op": "remove", "external_id": 4}) == 2
        wal.close()

        reopened, records = WriteAheadLog.open(path, generation=0)
        assert [r["op"] for r in records] == ["add", "remove"]
        assert [r["lsn"] for r in records] == [1, 2]
        assert reopened.next_lsn == 3

    def test_append_after_open_continues_the_sequence(self, tmp_path):
        path = tmp_path / wal_filename(0)
        wal = WriteAheadLog.create(path, 0)
        wal.append({"op": "add", "external_id": 1})
        wal.close()
        reopened, _ = WriteAheadLog.open(path)
        assert reopened.append({"op": "add", "external_id": 2}) == 2
        reopened.close()
        _, records = WriteAheadLog.open(path)
        assert [r["lsn"] for r in records] == [1, 2]

    def test_create_truncates_debris_from_a_crashed_attempt(self, tmp_path):
        path = tmp_path / wal_filename(3)
        path.write_bytes(b"leftover garbage from a crashed compaction\n")
        wal = WriteAheadLog.create(path, 3)
        wal.close()
        _, records = WriteAheadLog.open(path, generation=3)
        assert records == []

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / wal_filename(0), 0)
        wal.close()
        wal.close()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WalError, match="cannot read"):
            WriteAheadLog.open(tmp_path / "nope.log")


class TestAppendValidation:
    def test_append_rejects_preset_lsn(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / wal_filename(0), 0)
        with pytest.raises(WalError):
            wal.append({"op": "add", "lsn": 9})
        wal.close()

    def test_append_requires_an_op(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / wal_filename(0), 0)
        with pytest.raises(WalError):
            wal.append({"external_id": 1})
        wal.close()


class TestCrashSemantics:
    """A crash mid-append can only tear the final record; anything else is
    damage and must raise rather than replay a hole."""

    def make_log(self, tmp_path, num_records=3):
        path = tmp_path / wal_filename(0)
        wal = WriteAheadLog.create(path, 0)
        for index in range(num_records):
            wal.append({"op": "add", "external_id": index})
        wal.close()
        return path

    def test_torn_unterminated_tail_is_truncated(self, tmp_path):
        path = self.make_log(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'deadbeef {"op":"add","ext')
        _, records = WriteAheadLog.open(path, generation=0)
        assert len(records) == 3
        assert path.read_bytes() == intact  # the torn bytes are gone
        # and a reopen sees a perfectly clean file
        _, records = WriteAheadLog.open(path, generation=0)
        assert len(records) == 3

    def test_torn_tail_with_bad_checksum_is_truncated(self, tmp_path):
        path = self.make_log(tmp_path)
        intact = path.read_bytes()
        good = encode({"op": "add", "external_id": 9, "lsn": 4})
        path.write_bytes(intact + b"00000000 " + good[9:])
        _, records = WriteAheadLog.open(path, generation=0)
        assert len(records) == 3
        assert path.read_bytes() == intact

    def test_corrupt_record_before_the_tail_raises(self, tmp_path):
        path = self.make_log(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"00000000 " + lines[2][9:]  # break a middle checksum
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError, match="damaged beyond crash semantics"):
            WriteAheadLog.open(path, generation=0)

    def test_lsn_gap_raises_even_at_the_tail(self, tmp_path):
        path = self.make_log(tmp_path, num_records=2)
        with open(path, "ab") as handle:
            handle.write(encode({"op": "add", "external_id": 9, "lsn": 7}))
        with pytest.raises(WalError, match="records are missing"):
            WriteAheadLog.open(path, generation=0)

    def test_deleted_middle_record_raises(self, tmp_path):
        path = self.make_log(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        del lines[2]
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError, match="records are missing"):
            WriteAheadLog.open(path, generation=0)


class TestHeaderValidation:
    def test_generation_mismatch_raises(self, tmp_path):
        path = tmp_path / wal_filename(0)
        WriteAheadLog.create(path, 0).close()
        with pytest.raises(WalError, match="belongs to generation"):
            WriteAheadLog.open(path, generation=5)

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "v.log"
        record = {
            "op": "header",
            "version": WAL_FORMAT_VERSION + 1,
            "generation": 0,
            "lsn": 0,
        }
        path.write_bytes(encode(record))
        with pytest.raises(WalError, match="unsupported WAL format version"):
            WriteAheadLog.open(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "h.log"
        path.write_bytes(encode({"op": "add", "external_id": 0, "lsn": 0}))
        with pytest.raises(WalError, match="no header record"):
            WriteAheadLog.open(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "e.log"
        path.write_bytes(b"")
        with pytest.raises(WalError, match="no header record"):
            WriteAheadLog.open(path)

    def test_wal_error_is_a_catalog_error(self):
        assert issubclass(WalError, CatalogError)
