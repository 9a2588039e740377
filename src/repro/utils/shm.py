"""Shared-memory segments and the flat shard-arena layout.

This module is the storage half of the zero-copy shard plane
(:mod:`repro.core.sharding`).  It knows two kinds of
``multiprocessing.shared_memory`` segment:

* an **arena** (:class:`ShardArena` / :class:`AttachedArena`): the parent
  packs a shard's immutable base — its id column, its graphs' pickles with
  their offset table and digests — into one segment, and worker processes
  attach read-only and keep it mapped.  What
  crosses the process boundary is an :class:`ArenaDescriptor`: segment name,
  dtypes, shapes, and byte offsets — O(1) in the shard's size — instead of
  an O(shard-bytes) pickle.  Layout (offsets 64-byte aligned, recorded in
  the descriptor; the segment itself carries no header)::

      [ array 0 | pad | array 1 | pad | ... | blob 0 | pad | blob 1 | ... ]

* a **blob segment** (:func:`publish_blob` / :func:`read_blob`): an 8-byte
  length and then that many payload bytes, so the name alone is enough to
  read it.  A reader copies the payload out and detaches before it returns —
  nothing stays mapped — which is what lets a small, short-lived segment (a
  shard's delta) be replaced without any reader holding the old one.

Lifecycle rules, enforced here so callers cannot leak:

* **Creation** registers the segment in a module-level owner registry keyed
  by the creating pid; an ``atexit`` sweep unlinks everything the exiting
  process still owns.  Forked children inherit the registry but never pass
  the pid guard, so a worker can never unlink its parent's segments (pool
  workers exit via ``os._exit`` and skip ``atexit`` entirely anyway).
* **Attachment** never registers with ``multiprocessing.resource_tracker``:
  on Pythons without ``SharedMemory(track=False)`` the tracker registration
  is suppressed for the duration of the attach.  Without this, every worker
  attach would re-register the name and the tracker would unlink live
  segments (and warn about "leaks") at shutdown — the creator alone owns
  the segment's lifetime.
* **Unlink** is idempotent and also deregisters, so explicit ``close()``
  paths, ``weakref.finalize`` callbacks, and the ``atexit`` sweep can all
  race safely.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import secrets
import threading
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.exceptions import ShmError

__all__ = [
    "SEGMENT_PREFIX",
    "ArenaDescriptor",
    "ArenaField",
    "AttachedArena",
    "LazyGraphList",
    "ShardArena",
    "SegmentedGraphList",
    "attach_segment",
    "create_segment",
    "owned_segment_names",
    "publish_blob",
    "read_blob",
    "release_foreign_mappings",
    "resident_segment_names",
    "unlink_segment",
]

SEGMENT_PREFIX = "tpsshm"
_ALIGNMENT = 64

# name -> (SharedMemory, creating pid); only the creating pid may unlink
_OWNED: dict[str, tuple[shared_memory.SharedMemory, int]] = {}

# Attached (non-owner) segments are kept strongly referenced until released.
# Without this, a garbage cycle can finalize the ``SharedMemory`` before the
# numpy views into its buffer, and the stdlib ``__del__`` raises an
# unraisable ``BufferError`` trying to close an mmap with live exports.
_ATTACHED: dict[int, shared_memory.SharedMemory] = {}
_REGISTRY_LOCK = threading.Lock()
_ATTACH_LOCK = threading.Lock()


# ----------------------------------------------------------------------
# segment lifecycle
# ----------------------------------------------------------------------
def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh shared-memory segment owned by this process.

    The name is ``tpsshm_<pid:x>_<random>`` — short enough for macOS's
    31-char shm name limit, prefixed so leak checks can scan for strays.
    """
    if nbytes < 0:
        raise ShmError(f"segment size must be >= 0, got {nbytes!r}")
    for _ in range(16):
        name = f"{SEGMENT_PREFIX}_{os.getpid():x}_{secrets.token_hex(6)}"
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, nbytes)
            )
        except FileExistsError:
            continue
        with _REGISTRY_LOCK:
            _OWNED[name] = (segment, os.getpid())
        return segment
    raise ShmError("could not allocate a uniquely named shared-memory segment")


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment WITHOUT resource-tracker registration.

    The creator owns the segment's lifetime; an attach that registered with
    the tracker would cause spurious leak warnings — and, with a per-process
    tracker (spawn), an unlink of a live segment — when the attaching
    process exits.  ``track=False`` is used where it exists (3.13+); older
    Pythons get the registration suppressed around the attach call.
    """
    segment = None
    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    except FileNotFoundError:
        raise ShmError(f"shared-memory segment {name!r} does not exist") from None
    if segment is None:
        with _ATTACH_LOCK, _suppressed_tracking():
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise ShmError(
                    f"shared-memory segment {name!r} does not exist"
                ) from None
    with _REGISTRY_LOCK:
        _ATTACHED[id(segment)] = segment
    return segment


def release_segment(segment: shared_memory.SharedMemory) -> bool:
    """Close an attached segment's mapping (idempotent, GC-safe); False
    when the mapping had to stay.

    If numpy views into the buffer are still alive the close would raise
    ``BufferError``; in that case the segment stays in the keep-alive
    registry and the mapping is released at interpreter exit (or by a later
    call, once the views are gone) instead of letting the stdlib finalizer
    raise mid-session.
    """
    try:
        segment.close()
    except BufferError:
        return False
    with _REGISTRY_LOCK:
        _ATTACHED.pop(id(segment), None)
    return True


def release_foreign_mappings() -> int:
    """Close every mapping this process holds of a segment it did not
    create; returns how many had to stay (a live view still exports them).

    Those are its attaches and, in a forked child, the segments its parent
    had created before the fork: the child inherits the registry entries
    together with the mappings, and the pid guard keeps it from unlinking
    them, not from closing its own copy.  A pool worker that outlives the
    planner it served calls this, so it maps nothing while it waits.
    """
    pid = os.getpid()
    with _REGISTRY_LOCK:
        inherited = {name: entry for name, entry in _OWNED.items() if entry[1] != pid}
        attached = list(_ATTACHED.values())
    stayed = 0
    for name, (segment, _) in inherited.items():
        try:
            segment.close()
        except BufferError:
            stayed += 1
            continue
        with _REGISTRY_LOCK:
            _OWNED.pop(name, None)
    return stayed + sum(not release_segment(segment) for segment in attached)


@contextlib.contextmanager
def _suppressed_tracking():
    """No-op ``resource_tracker.register`` for shared memory, temporarily.

    ``shared_memory.SharedMemory.__init__`` looks the function up as a
    module attribute on every call, so swapping it out here is effective
    and safe to restore.
    """
    tracker = shared_memory.resource_tracker
    original = tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    tracker.register = register
    try:
        yield
    finally:
        tracker.register = original


def unlink_segment(name: str) -> None:
    """Close and unlink an owned segment (idempotent, owner-pid guarded)."""
    with _REGISTRY_LOCK:
        entry = _OWNED.pop(name, None)
    if entry is None:
        return
    segment, owner_pid = entry
    if owner_pid != os.getpid():
        # a forked child inherited the registry entry; the segment is not
        # ours to destroy (and the parent's sweep will handle it)
        return
    with contextlib.suppress(OSError, BufferError):
        segment.close()
    with contextlib.suppress(OSError, FileNotFoundError):
        segment.unlink()


def owned_segment_names() -> list[str]:
    """Names this process created and has not yet unlinked."""
    with _REGISTRY_LOCK:
        pid = os.getpid()
        return sorted(name for name, (_, owner) in _OWNED.items() if owner == pid)


def resident_segment_names() -> list[str]:
    """Every ``tpsshm_*`` segment resident on the system (leak-check probe).

    Scans ``/dev/shm`` where it exists (Linux); elsewhere falls back to this
    process's own registry, which still catches in-process leaks.
    """
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        return sorted(p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}_*"))
    return owned_segment_names()


@atexit.register
def _sweep_owned_segments() -> None:
    for name in owned_segment_names():
        unlink_segment(name)
    with _REGISTRY_LOCK:
        attached = list(_ATTACHED.values())
        _ATTACHED.clear()
    for segment in attached:
        with contextlib.suppress(OSError, BufferError):
            segment.close()


# ----------------------------------------------------------------------
# blob segments
# ----------------------------------------------------------------------
_BLOB_HEADER = 8  # little-endian payload length


def publish_blob(payload: bytes) -> str:
    """Copy ``payload`` into a fresh owned segment; return the segment's name.

    The segment describes itself (length, then bytes), so a reader needs the
    name and nothing else.  Retire it with :func:`unlink_segment`.
    """
    segment = create_segment(_BLOB_HEADER + len(payload))
    segment.buf[:_BLOB_HEADER] = len(payload).to_bytes(_BLOB_HEADER, "little")
    segment.buf[_BLOB_HEADER : _BLOB_HEADER + len(payload)] = payload
    return segment.name


def read_blob(name: str) -> bytes:
    """A private copy of a published blob; the mapping is gone on return.

    Copying out is the point: the caller holds no view into the segment, so
    the detach below always succeeds and the owner may unlink the segment as
    soon as no reader still has to *open* it.
    """
    segment = attach_segment(name)
    try:
        size = int.from_bytes(segment.buf[:_BLOB_HEADER], "little")
        if _BLOB_HEADER + size > segment.size:
            raise ShmError(
                f"blob segment {name!r} declares {size} bytes but holds "
                f"{segment.size - _BLOB_HEADER}"
            )
        return bytes(segment.buf[_BLOB_HEADER : _BLOB_HEADER + size])
    finally:
        release_segment(segment)


# ----------------------------------------------------------------------
# the flat arena layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArenaField:
    """One packed array or blob: where it lives inside the segment."""

    key: str
    kind: str  # "array" | "blob"
    dtype: str | None
    shape: tuple[int, ...] | None
    offset: int
    nbytes: int


@dataclass(frozen=True)
class ArenaDescriptor:
    """O(1) handle to a packed segment: everything attach needs, no data."""

    segment: str
    nbytes: int
    fields: tuple[ArenaField, ...]

    def field(self, key: str) -> ArenaField:
        for entry in self.fields:
            if entry.key == key:
                return entry
        raise ShmError(f"arena {self.segment!r} has no field {key!r}")

    def __contains__(self, key: str) -> bool:
        return any(entry.key == key for entry in self.fields)


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class ShardArena:
    """Owner side: one shard's arrays and blobs packed into one segment."""

    def __init__(
        self, segment: shared_memory.SharedMemory, descriptor: ArenaDescriptor
    ) -> None:
        self._segment = segment
        self.descriptor = descriptor

    @classmethod
    def pack(
        cls, arrays: dict[str, np.ndarray], blobs: dict[str, bytes]
    ) -> "ShardArena":
        """Copy ``arrays`` and ``blobs`` into a fresh segment, in one pass.

        Each array is stored C-contiguous at a 64-byte-aligned offset;
        zero-size arrays take no bytes and record offset 0.  This copy is
        the *single* shared copy every worker will map — the caller keeps
        (or drops) its private originals independently.
        """
        fields: list[ArenaField] = []
        cursor = 0
        plan: list[tuple[str, str, np.ndarray | bytes]] = []
        for key, value in arrays.items():
            array = np.ascontiguousarray(value)
            offset = 0 if array.nbytes == 0 else _align(cursor)
            fields.append(
                ArenaField(
                    key=key,
                    kind="array",
                    dtype=array.dtype.str,
                    shape=tuple(int(n) for n in array.shape),
                    offset=offset,
                    nbytes=int(array.nbytes),
                )
            )
            plan.append((key, "array", array))
            cursor = offset + array.nbytes if array.nbytes else cursor
        for key, payload in blobs.items():
            data = bytes(payload)
            offset = 0 if not data else _align(cursor)
            fields.append(
                ArenaField(
                    key=key,
                    kind="blob",
                    dtype=None,
                    shape=None,
                    offset=offset,
                    nbytes=len(data),
                )
            )
            plan.append((key, "blob", data))
            cursor = offset + len(data) if data else cursor
        segment = create_segment(cursor)
        descriptor = ArenaDescriptor(
            segment=segment.name, nbytes=max(cursor, 1), fields=tuple(fields)
        )
        for field, (_, kind, value) in zip(fields, plan):
            if field.nbytes == 0:
                continue
            if kind == "array":
                target = np.ndarray(
                    field.shape,
                    dtype=np.dtype(field.dtype),
                    buffer=segment.buf,
                    offset=field.offset,
                )
                target[...] = value
                del target  # drop the buffer export before anyone closes
            else:
                segment.buf[field.offset : field.offset + field.nbytes] = value
        return cls(segment, descriptor)

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def unlink(self) -> None:
        """Destroy the segment (idempotent).  Attached readers that already
        mapped it keep working — POSIX unlink removes the name, not the
        memory — but no new attach can find it."""
        unlink_segment(self.name)


class AttachedArena:
    """Reader side: zero-copy views into a packed segment.

    Arrays come back as read-only numpy views and blobs as read-only
    memoryviews; both alias the mapping, so the arena object must outlive
    every view taken from it.
    """

    def __init__(
        self,
        descriptor: ArenaDescriptor,
        segment: shared_memory.SharedMemory | None = None,
    ) -> None:
        self.descriptor = descriptor
        self._segment = segment or attach_segment(descriptor.segment)

    @property
    def nbytes(self) -> int:
        return self.descriptor.nbytes

    def _field(self, key: str, kind: str) -> ArenaField:
        """``key``'s field, checked against the mapping: a forged or stale
        descriptor raises :class:`ShmError`, never reads past the segment."""
        field = self.descriptor.field(key)
        if field.kind != kind:
            article = "an" if kind == "array" else "a"
            raise ShmError(f"field {key!r} is a {field.kind}, not {article} {kind}")
        if min(field.offset, field.nbytes) < 0 or field.offset + field.nbytes > self._segment.size:
            raise ShmError(
                f"field {key!r} ({field.nbytes} B at offset {field.offset}) lies outside "
                f"segment {self.descriptor.segment!r} ({self._segment.size} B)"
            )
        return field

    def array(self, key: str) -> np.ndarray:
        field = self._field(key, "array")
        try:
            dtype = np.dtype(field.dtype)
            fits = (
                not dtype.hasobject
                and min(field.shape, default=0) >= 0
                and dtype.itemsize * math.prod(field.shape) == field.nbytes
            )
        except TypeError:
            fits = False
        if not fits:
            raise ShmError(
                f"field {key!r}: dtype {field.dtype!r} x shape {field.shape!r} "
                f"is not its {field.nbytes} B"
            )
        if field.nbytes == 0:
            view = np.empty(field.shape, dtype=dtype)
        else:
            view = np.ndarray(field.shape, dtype=dtype, buffer=self._segment.buf, offset=field.offset)
        view.flags.writeable = False
        return view

    def blob(self, key: str) -> memoryview:
        field = self._field(key, "blob")
        return self._segment.buf[field.offset : field.offset + field.nbytes].toreadonly()

    def detach(self) -> bool:
        """Close this process's mapping; False if it had to stay.  Safe with
        live views: the release is deferred to interpreter exit (or a later
        ``detach``) if the buffer still has exports."""
        return release_segment(self._segment)


# ----------------------------------------------------------------------
# lazy graph materialization
# ----------------------------------------------------------------------
class LazyGraphList(Sequence):
    """Per-graph lazy unpickling over a concatenated pickle blob.

    The arena stores each graph pickled separately, back to back, with an
    ``int64`` offset table of ``n + 1`` entries.  A worker therefore pays
    deserialization (and private memory) only for the graphs its queries
    actually touch — pruned candidates stay as shared bytes.  Materialized
    graphs are cached, so repeated access is a dict hit.  ``digests`` (one
    row of bytes per graph, a hash of its pickle) name the graphs across
    lists: :meth:`adopt` takes over graphs another list had deserialized.
    """

    def __init__(self, buffer, offsets: np.ndarray, owner=None, digests=None) -> None:
        self._buffer = buffer
        self._offsets = np.asarray(offsets, dtype=np.int64)
        if self._offsets.ndim != 1 or self._offsets.size < 1:
            raise ShmError("graph offset table must be a 1-D array of n + 1 entries")
        if digests is not None and len(digests) != len(self):
            raise ShmError(f"{len(digests)} graph digests for {len(self)} graphs")
        self._digests = digests
        self._cache: dict[int, object] = {}
        # keeps the backing arena alive for as long as any graph may load
        self._owner = owner

    def __len__(self) -> int:
        return int(self._offsets.size - 1)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            # repro: allow[EXC001] -- the sequence protocol requires IndexError
            raise IndexError(f"graph index {index} out of range")
        graph = self._cache.get(index)
        if graph is None:
            start = int(self._offsets[index])
            stop = int(self._offsets[index + 1])
            graph = pickle.loads(self._buffer[start:stop])
            self._cache[index] = graph
        return graph

    def by_digest(self) -> dict[bytes, object]:
        """The graphs deserialized so far, keyed by their digest."""
        if self._digests is None:
            return {}
        return {self._digests[index].tobytes(): graph for index, graph in self._cache.items()}

    def adopt(self, held: dict[bytes, object]) -> None:
        """Take over every graph of ``held`` (digest → graph, as
        :meth:`by_digest` returns it) whose digest names a row of this list.

        Equal digests mean equal pickles, so the adopted object is the graph
        this row would deserialize to — and the caches hung on it (compiled
        edge tables, world models) survive the swap to the new list.
        """
        if not held or self._digests is None:
            return
        for index, digest in enumerate(self._digests):
            graph = held.get(digest.tobytes())
            if graph is not None:
                self._cache[index] = graph

    def materialized_count(self) -> int:
        """How many graphs this process has actually deserialized."""
        return len(self._cache)

    def materialized_bytes(self) -> int:
        """Serialized size of the graphs deserialized so far — the private
        per-worker memory the lazy design did *not* avoid (diagnostics)."""
        return sum(
            int(self._offsets[index + 1] - self._offsets[index])
            for index in self._cache
        )


class SegmentedGraphList(Sequence):
    """A shard's storage rows on a worker: base graphs, then delta graphs.

    Both halves are :class:`LazyGraphList`\\ s — the base over the mapped
    arena, the delta over a private copy — and row ``r`` resolves like a
    :class:`~repro.core.catalog.SegmentedPmiView` row does.  The counters sum
    the halves; ``base`` and ``delta`` stay readable on their own.
    """

    def __init__(self, base: LazyGraphList, delta: LazyGraphList) -> None:
        self.base = base
        self.delta = delta

    def __len__(self) -> int:
        return len(self.base) + len(self.delta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            # repro: allow[EXC001] -- the sequence protocol requires IndexError
            raise IndexError(f"graph index {index} out of range")
        base_rows = len(self.base)
        if index < base_rows:
            return self.base[index]
        return self.delta[index - base_rows]

    def materialized_count(self) -> int:
        return self.base.materialized_count() + self.delta.materialized_count()

    def materialized_bytes(self) -> int:
        return self.base.materialized_bytes() + self.delta.materialized_bytes()


def finalize_unlink(owner, names: list[str]):
    """A ``weakref.finalize`` that unlinks ``names`` when ``owner`` dies.

    ``names`` is held, not copied: the owner appends and removes names as it
    publishes and retires segments, and the callback unlinks whatever the
    list holds when it fires.  It runs at most once (GC, explicit call, or
    interpreter exit — whichever comes first), and :func:`unlink_segment`'s
    pid guard makes it inert in forked children.
    """
    return weakref.finalize(owner, _unlink_all, names)


def _unlink_all(names: list[str]) -> None:
    while names:
        unlink_segment(names.pop())
