"""Atomic file persistence: tmp file + flush + fsync + ``os.replace``.

Every on-disk artifact the library writes (graph databases, PMI npz/JSON
payloads, catalog snapshots, the durable catalog's CURRENT pointer) goes
through these helpers, so a crash at any instant leaves either the old
complete file or the new complete file — never a torn one.  The recipe is
the standard one:

1. write the full payload to a uniquely named temporary file *in the target
   directory* (same filesystem, so the final rename cannot cross devices),
2. flush and ``fsync`` the temporary file (the data is on disk, not just in
   the page cache),
3. ``os.replace`` it over the final path (atomic on POSIX),
4. ``fsync`` the containing directory (the rename itself is on disk).

A crash before step 3 leaves a stray ``*.tmp`` file next to an intact old
version; readers never look at temporary names, and
:func:`discard_stale_tmp_files` reclaims them on the next open.

``fsync_file`` / ``fsync_directory`` / ``replace_file`` are deliberately
module-level indirection points: the crash-injection test harness patches
them to simulate a power cut at every durability boundary.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "discard_stale_tmp_files",
    "fsync_directory",
    "fsync_file",
    "replace_file",
]

_TMP_SUFFIX = ".tmp"


def fsync_file(handle) -> None:
    """Flush ``handle`` and force its bytes to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(path: str | Path) -> None:
    """Force a directory entry update (a rename or create) to stable storage.

    Best-effort: platforms or filesystems that cannot ``fsync`` a directory
    (for example Windows) degrade to the rename-only guarantee.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def replace_file(source: str | Path, target: str | Path) -> None:
    """Atomically move ``source`` over ``target`` (the commit point)."""
    os.replace(source, target)


@contextmanager
def atomic_writer(path: str | Path, mode: str = "wb"):
    """Context manager yielding a handle whose contents atomically replace
    ``path`` on clean exit.

    The handle writes to a unique ``*.tmp`` sibling; on success the helper
    fsyncs it, renames it over ``path``, and fsyncs the directory.  On any
    exception the temporary file is removed and ``path`` is untouched.
    ``mode`` must be a write mode (``"wb"`` or ``"w"``).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=_TMP_SUFFIX
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            fsync_file(handle)
        replace_file(tmp_path, target)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    fsync_directory(target.parent)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically write ``data`` to ``path``."""
    with atomic_writer(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Atomically write ``text`` to ``path``."""
    atomic_write_bytes(path, text.encode(encoding))


def discard_stale_tmp_files(directory: str | Path) -> int:
    """Remove ``*.tmp`` leftovers of writes that crashed before their rename.

    Safe at any time on a directory no writer is concurrently mid-commit in
    (the durable catalog calls it while holding the catalog open); returns
    the number of files removed.  Missing directories count as clean.
    """
    root = Path(directory)
    if not root.is_dir():
        return 0
    removed = 0
    for stale in sorted(root.rglob(f"*{_TMP_SUFFIX}")):
        try:
            stale.unlink()
            removed += 1
        except OSError:
            continue
    return removed
