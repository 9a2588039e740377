"""Write-ahead logging for the durable :class:`~repro.core.catalog.GraphCatalog`.

Every catalog mutation is made durable *before* it applies in memory by
appending one record to the active generation's log file and fsyncing it.
The format is LogBase-style compact and self-verifying — one record per
line::

    <crc32 of body, 8 hex digits> <body: canonical compact JSON>\\n

with the body carrying a monotonically increasing ``lsn`` (0 is the header
record stamping the format version and the generation number).  Three
properties make recovery trivial:

* **append-only + fsync per record** — the file is always a clean prefix of
  the mutation history; a record either survives whole or is the torn tail;
* **checksums** — a torn final record (crash mid-append) is detected and
  truncated away on open; corruption *before* the final record can only be
  real damage and raises :class:`~repro.exceptions.WalError`;
* **dense LSNs** — a gap means records vanished (a misdirected truncate or
  an aligned hole), also :class:`WalError`, never silent data loss.

One log file serves one snapshot *generation*: ``compact()`` folds the tail
into a fresh snapshot, starts ``wal_<gen+1>.log``, and retires the old pair.
The log stores mutations in replayable form (graph payloads as the JSON
dicts of :mod:`repro.graphs.io`), and replay drives the ordinary in-memory
mutation paths — the stable-external-id determinism contract then makes the
recovered catalog answer byte-identically to a from-scratch build over the
surviving database.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.exceptions import WalError
from repro.utils import atomic_io

__all__ = ["WriteAheadLog", "WAL_FORMAT_VERSION", "wal_filename"]

WAL_FORMAT_VERSION = 1
_HEADER_OP = "header"


def wal_filename(generation: int) -> str:
    """The log filename serving snapshot generation ``generation``."""
    return f"wal_{generation:08d}.log"


def _encode_record(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode("ascii") + body + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """The record on ``line``, or None when the line is torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        if int(line[:8], 16) != zlib.crc32(body) & 0xFFFFFFFF:
            return None
        record = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog:
    """One generation's append-only, checksummed, fsync-per-record log.

    Use :meth:`create` to start a fresh log (writes the header record) and
    :meth:`open` to attach to an existing one (verifies every record,
    truncates a torn tail, and returns the surviving mutation records for
    replay).  :meth:`append` returns only after the record is on disk.
    """

    def __init__(self, path: Path, generation: int, next_lsn: int) -> None:
        self.path = path
        self.generation = generation
        self.next_lsn = next_lsn  # records on disk, header included
        self._handle = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, generation: int) -> "WriteAheadLog":
        """Start a fresh log for ``generation``, header fsync'd to disk.

        Truncates any existing file at ``path``: a log is only created for a
        generation that has never been committed (the ``CURRENT`` swap), so
        an existing file can only be debris from a crashed earlier attempt.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        wal = cls(path, int(generation), next_lsn=0)
        # The WAL is the one append-only artifact: its durability comes from
        # fsync-per-record plus torn-tail truncation on open, not from the
        # tmp+rename recipe (which cannot append).
        # repro: allow[IO001] -- WAL append-only discipline, see module docstring
        wal._handle = open(path, "wb")
        wal._append_raw(
            {
                "op": _HEADER_OP,
                "version": WAL_FORMAT_VERSION,
                "generation": int(generation),
            }
        )
        atomic_io.fsync_directory(path.parent)
        return wal

    @classmethod
    def open(
        cls, path: str | Path, generation: int | None = None
    ) -> tuple["WriteAheadLog", list[dict]]:
        """Attach to an existing log; returns ``(wal, mutation_records)``.

        Verifies the checksum and LSN of every record.  A torn *final*
        record — the only damage a crash mid-append can cause — is truncated
        off the file (fsync'd) and recovery proceeds; any other inconsistency
        raises :class:`WalError`.  ``generation`` cross-checks the header
        when given.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as error:
            raise WalError(f"cannot read WAL {str(path)!r}: {error}") from error
        records, valid_bytes = cls._scan(data, path)
        if not records or records[0].get("op") != _HEADER_OP:
            raise WalError(f"WAL {str(path)!r} has no header record")
        header = records[0]
        if header.get("version") != WAL_FORMAT_VERSION:
            raise WalError(
                f"unsupported WAL format version {header.get('version')!r} in "
                f"{str(path)!r}; this build reads version {WAL_FORMAT_VERSION}"
            )
        if generation is not None and header.get("generation") != generation:
            raise WalError(
                f"WAL {str(path)!r} belongs to generation "
                f"{header.get('generation')!r}, expected {generation!r}"
            )
        if valid_bytes < len(data):
            # torn tail: drop the partial record so the next append starts
            # on a clean boundary (and reopening sees a fully valid file)
            # repro: allow[IO001] -- in-place truncate of the WAL's torn tail
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
                atomic_io.fsync_file(handle)
        wal = cls(path, int(header.get("generation", 0)), next_lsn=len(records))
        return wal, records[1:]

    @staticmethod
    def _scan(data: bytes, path: Path) -> tuple[list[dict], int]:
        """Parse ``data`` into records; returns them plus the valid-prefix size.

        Any undecodable or out-of-sequence record is only tolerated as the
        *last* thing in the file (the torn tail a crash mid-append leaves);
        bytes after it mean damage no crash can explain.
        """
        records: list[dict] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                # unterminated tail: torn by definition
                return records, offset
            line = data[offset : newline + 1]
            record = _decode_line(line[:-1])
            if record is None:
                if newline + 1 < len(data):
                    raise WalError(
                        f"corrupt WAL record {len(records)} in {str(path)!r} "
                        "with records after it; the log is damaged beyond "
                        "crash semantics (a crash can only tear the tail)"
                    )
                return records, offset
            if record.get("lsn") != len(records):
                # a checksum-valid record with the wrong sequence number is
                # never crash damage — records in between have vanished
                raise WalError(
                    f"WAL {str(path)!r} jumps from lsn {len(records) - 1} to "
                    f"{record.get('lsn')!r}; records are missing"
                )
            records.append(record)
            offset = newline + 1
        return records, offset

    def close(self) -> None:
        """Close the append handle (idempotent; :meth:`append` reopens)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> int:
        """Durably append one mutation record; returns its LSN.

        The record is checksummed, written, flushed, and fsync'd before this
        returns — only then may the caller apply the mutation in memory, so
        a crash at any instant leaves the log a superset of the applied
        state, never a subset.
        """
        if "lsn" in record or "op" not in record:
            raise WalError("records carry an 'op' and must not pre-set 'lsn'")
        return self._append_raw(dict(record))

    def _append_raw(self, record: dict) -> int:
        if self._handle is None or self._handle.closed:
            # repro: allow[IO001] -- WAL append-only discipline, see module docstring
            self._handle = open(self.path, "ab")
        record["lsn"] = self.next_lsn
        self._handle.write(_encode_record(record))
        atomic_io.fsync_file(self._handle)
        self.next_lsn += 1
        return record["lsn"]

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, generation={self.generation}, "
            f"records={self.next_lsn})"
        )
