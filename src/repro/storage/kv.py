"""Key-value stores: the Berkeley-DB stand-in of the reproduction.

The paper's system is "implemented in C++ on top of the Berkeley DB"
because its algorithms fetch postings by key at random.  Ours never do:
a stored database reads its file once, at open, and then writes one
commit per mutation.  So the persistent store is an append-only,
checksummed record log, behind the same small ordered-KV interface as
the in-memory one:

* :class:`MemoryStore` — a sorted-dict store for tests and benchmarks
  that should not measure disk overheads.
* :class:`FileStore` — the record log.

File layout (all integers little-endian)::

    "APXQLOG1"                                    magic
    frame*:   u32 payload length, u32 crc32(payload), payload
    payload:  record*: u32 key length, u32 value length, key, value

A value length of ``0xFFFFFFFF`` marks a delete (no value bytes follow).
:meth:`FileStore.commit` appends the pending records as one frame and
fsyncs it, so a commit is atomic.  :meth:`FileStore.checkpoint` (and a
fresh store's first commit) writes the live records as one frame, empty
or not, to ``<path>.tmp`` and renames it over the file, so the first
frame is never torn.  On open, a later frame that is short or fails its
checksum and runs to (or past) the end of the file is a torn commit and
is cut off before the next append; any other bad frame is corruption.

Logical namespaces (one per stored structure: the tree columns,
metadata, ...) share one store through :class:`Namespace`, which
prefixes keys with a table tag.
"""

from __future__ import annotations

import bisect
import os
import struct
import threading
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field

from ..errors import KeyNotFoundError, StorageError
from ..telemetry.collector import count as _telemetry_count

#: accepted values of ``durability``; both mean the same single mode
DURABILITY_MODES = ("none", "wal")
_MAGIC = b"APXQLOG1"
#: the paged B+tree store this log replaced
_PAGE_MAGIC = b"APXQPG01"
_FRAME = struct.Struct("<II")  # payload length, crc32 of the payload
_RECORD = struct.Struct("<II")  # key length, value length
_DELETED = 0xFFFFFFFF  # value length of a delete record


class CountedLock:
    """A lock that counts blocking acquisitions into ambient telemetry.

    The engine's lock-contention observability: entering the context is
    one non-blocking acquire on the fast (uncontended) path; only when
    the calling thread actually has to wait does the named counter tick
    — so a single-threaded run pays one C-level call and records
    nothing.  ``reentrant=True`` backs the lock with an :class:`RLock`
    for owners whose guarded methods call each other (the file store).
    """

    __slots__ = ("_lock", "_counter")

    def __init__(self, counter: str, reentrant: bool = False) -> None:
        self._lock = threading.RLock() if reentrant else threading.Lock()
        self._counter = counter

    def __enter__(self) -> "CountedLock":
        if not self._lock.acquire(blocking=False):
            _telemetry_count(self._counter)
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


class Store:
    """Abstract ordered key-value store.

    Every store carries a **generation** counter that advances on any
    mutation (``put`` / ``delete``).  Read-side caches — the best-n
    result cache above all — tag their entries with the generation they
    observed and treat a changed generation as an invalidation, so a
    write anywhere in the store can never serve stale answers.

    Concrete stores are **thread-safe**: every operation (including the
    mutation *together with* its generation bump) runs under one
    store-wide lock, so a reader can never observe a half-applied write
    or a generation that disagrees with the bytes it just read.
    """

    #: mutation counter; subclasses bump it on every write
    generation: int = 0

    def get(self, key: bytes) -> bytes:
        """Return the value under ``key``; raises KeyNotFoundError."""
        raise NotImplementedError

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace ``key`` -> ``value``."""
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises KeyNotFoundError when absent."""
        raise NotImplementedError

    def contains(self, key: bytes) -> bool:
        """Whether ``key`` is present."""
        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs with ``start <= key < end`` in order."""
        raise NotImplementedError

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield all pairs whose key starts with ``prefix``."""
        for key, value in self.scan(start=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def sync(self) -> None:
        """Make pending writes durable (no-op for memory stores)."""

    def close(self) -> None:
        """Release resources (no-op for memory stores)."""

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemoryStore(Store):
    """In-memory ordered store (sorted key list + dict).

    Single dict reads are already atomic under the interpreter, so
    ``get`` / ``contains`` stay lock-free; the lock covers the compound
    operations — a ``put``/``delete`` touches the dict, the sorted key
    list, *and* the generation, and ``scan`` snapshots a consistent
    (keys, values) view.  New keys are appended and the list is sorted
    when an ordered operation next needs it: a bulk build (tens of
    thousands of puts, then one scan) pays one sort instead of an
    insertion into the middle of the list per key.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._sorted_keys: list[bytes] = []
        self._keys_sorted = True
        self._lock = CountedLock("concurrency.store_lock_waits")
        self.generation = 0

    def get(self, key: bytes) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("store keys and values must be bytes")
        with self._lock:
            if key not in self._data:
                self._sorted_keys.append(key)
                self._keys_sorted = False
            self._data[key] = value
            self.generation += 1

    def _ordered_keys(self) -> list[bytes]:
        """The key list, sorted (call with the lock held)."""
        if not self._keys_sorted:
            self._sorted_keys.sort()
            self._keys_sorted = True
        return self._sorted_keys

    def delete(self, key: bytes) -> None:
        with self._lock:
            if key not in self._data:
                raise KeyNotFoundError(key)
            del self._data[key]
            keys = self._ordered_keys()
            del keys[bisect.bisect_left(keys, key)]
            self.generation += 1

    def contains(self, key: bytes) -> bool:
        return key in self._data

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        with self._lock:
            keys = self._ordered_keys()
            index = bisect.bisect_left(keys, start)
            # Snapshot a consistent view so mutation during iteration can
            # neither skip keys nor pair a key with a missing value.
            pairs = [(key, self._data[key]) for key in keys[index:]]
        for key, value in pairs:
            if end is not None and key >= end:
                return
            yield key, value

    def __len__(self) -> int:
        return len(self._data)


# ----------------------------------------------------------------------
# the record log
# ----------------------------------------------------------------------


def _default_opener(path: str, mode: str):
    return open(path, mode)


def _fsync(file) -> None:
    """Fsync through the file object when it offers ``fsync()`` (the
    fault-injection wrapper does), else through its descriptor."""
    fsync = getattr(file, "fsync", None)
    if fsync is not None:
        fsync()
    else:
        os.fsync(file.fileno())


def _record_size(key: bytes, length: "int | None") -> int:
    return _RECORD.size + len(key) + (length or 0)


def _encode_frame(records, base: int) -> tuple[bytes, list]:
    """One frame holding ``records`` ((key, value or None) pairs) to be
    written at offset ``base``, and its entries: (key, value offset,
    value length or None for a delete)."""
    parts: list[bytes] = []
    entries = []
    position = base + _FRAME.size
    for key, value in records:
        parts += (_RECORD.pack(len(key), _DELETED if value is None else len(value)), key)
        position += _RECORD.size + len(key)
        entries.append((key, position, None if value is None else len(value)))
        if value is not None:
            parts.append(value)
            position += len(value)
    payload = b"".join(parts)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload, entries


def _decode_frame(data: memoryview, offset: int) -> "tuple[list, int] | None":
    """The entries of the frame at ``offset`` (see :func:`_encode_frame`)
    and the offset past it, or ``None`` when the frame is short or fails
    its checksum."""
    if offset + _FRAME.size > len(data):
        return None
    length, crc = _FRAME.unpack_from(data, offset)
    position = offset + _FRAME.size
    end = position + length
    if end > len(data) or zlib.crc32(data[position:end]) != crc:
        return None
    entries = []
    while position + _RECORD.size <= end:
        key_length, value_length = _RECORD.unpack_from(data, position)
        position += _RECORD.size
        key = bytes(data[position : position + key_length])
        position += key_length
        if value_length == _DELETED:
            entries.append((key, position, None))
        else:
            entries.append((key, position, value_length))
            position += value_length
    if position != end:
        raise StorageError(f"malformed frame at offset {offset} (records overrun it)")
    return entries, end


def _walk(data: memoryview, path: str) -> tuple[list, int]:
    """Replay a log image: the entries of every valid frame, in order, and
    the offset past the last one.  Bytes beyond that offset are a torn
    commit: a bad frame that is not the first and whose header is short
    or declares an end at or past EOF.  Any other bad frame is corruption;
    the first frame is never torn, because it is written by a rename
    (:meth:`FileStore._rewrite`), never appended."""
    magic = bytes(data[: len(_MAGIC)])
    if magic == _PAGE_MAGIC:
        raise StorageError(
            f"{path}: page-format store (magic {magic!r}) is no longer "
            "supported; rebuild it from its XML"
        )
    if magic != _MAGIC:
        reason = (
            f"truncated header: {len(magic)} of {len(_MAGIC)} bytes"
            if len(magic) < len(_MAGIC)
            else f"bad magic {magic!r}"
        )
        raise StorageError(f"{path}: not a database file ({reason})")
    if len(data) == len(_MAGIC):
        raise StorageError(f"{path}: not a database file (no frame after the header)")
    frames = []
    offset = len(_MAGIC)
    while offset < len(data):
        decoded = _decode_frame(data, offset)
        if decoded is None:
            body = offset + _FRAME.size
            if offset == len(_MAGIC) or (
                body <= len(data) and body + _FRAME.unpack_from(data, offset)[0] < len(data)
            ):
                raise StorageError(f"{path}: corrupt frame at offset {offset}")
            break
        frames.append(decoded[0])
        offset = decoded[1]
    return frames, offset


def _fsync_directory(path: str) -> None:
    descriptor = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class FileStore(Store):
    """Persistent store: an append-only, checksummed record log.

    Opening replays the frames into a *keydir* of key -> (value offset,
    length); values stay on disk and :meth:`get` reads them at their
    offset.  Writes collect in memory until :meth:`commit` appends them
    as one fsynced frame.  A store whose file does not exist yet (or one
    opened with ``fresh=True``, which ignores the file's contents) writes
    its log at its first commit, through the same temp-and-rename path
    as :meth:`checkpoint`.  :meth:`close` commits, and compacts when the
    superseded bytes outweigh the live ones.

    ``opener`` (an ``open(path, mode)`` replacement for every file the
    store touches) is the fault-injection seam; ``must_exist`` turns a
    missing or empty file into a typed error instead of a new store.
    ``durability`` is accepted and ignored: ``"none"`` and ``"wal"`` both
    mean the one mode, an atomic fsync per commit.
    """

    def __init__(
        self,
        path: str,
        durability: str = "none",
        opener=None,
        must_exist: bool = False,
        fresh: bool = False,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability {durability!r}; expected one of {DURABILITY_MODES}"
            )
        self.path = path
        self._opener = opener or _default_opener
        # Reentrant because close/commit/checkpoint nest through each other.
        self._lock = CountedLock("concurrency.store_lock_waits", reentrant=True)
        self._keydir: dict[bytes, tuple[int, int]] = {}
        #: writes since the last commit (None marks a delete)
        self._pending: "dict[bytes, bytes | None]" = {}
        #: record bytes in the file that are live / superseded
        self._live = self._dead = 0
        self._file = None  # None until the log exists on disk
        self._end = len(_MAGIC)  # offset past the last valid frame
        self._torn = False
        self._failed = self._closed = False
        self.generation = 0
        if fresh:
            return
        try:
            size = os.path.getsize(path)
        except OSError:
            size = -1
        if size <= 0:
            if must_exist:
                reason = "no such file" if size < 0 else "file is empty"
                raise StorageError(f"{path}: not a database file ({reason})")
            return
        try:
            self._file = self._opener(path, "r+b")
        except OSError as error:
            raise StorageError(f"{path}: cannot open database file ({error})") from error
        try:
            data = self._file.read()
            if len(data) != size:
                raise StorageError(f"{path}: short read ({len(data)} of {size} bytes)")
            frames, self._end = _walk(memoryview(data), path)
        except BaseException:
            self._file.close()
            raise
        for entries in frames:
            self._apply(entries)
        if self._end < size:
            self._torn = True
            _telemetry_count("wal.recoveries")

    def _apply(self, entries) -> None:
        """Fold one frame's entries into the keydir and the byte counts."""
        keydir = self._keydir
        for key, offset, length in entries:
            old = keydir.pop(key, None)
            if old is not None:
                superseded = _record_size(key, old[1])
                self._live -= superseded
                self._dead += superseded
            if length is None:
                self._dead += _record_size(key, None)
            else:
                keydir[key] = (offset, length)
                self._live += _record_size(key, length)

    # -- reads ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: store is closed")

    def _read(self, key: bytes) -> "bytes | None":
        """The current value of ``key`` (None when absent); lock held."""
        self._check_open()
        if key in self._pending:
            return self._pending[key]
        location = self._keydir.get(key)
        if location is None:
            return None
        offset, length = location
        self._file.seek(offset)
        value = self._file.read(length)
        if len(value) != length:
            raise StorageError(
                f"{self.path}: short read at offset {offset} ({len(value)} of {length} bytes)"
            )
        return value

    def get(self, key: bytes) -> bytes:
        with self._lock:
            value = self._read(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def _contains(self, key: bytes) -> bool:
        if key in self._pending:
            return self._pending[key] is not None
        return key in self._keydir

    def contains(self, key: bytes) -> bool:
        with self._lock:
            self._check_open()
            return self._contains(key)

    def _keys(self) -> set:
        keys = set(self._keydir)
        for key, value in self._pending.items():
            if value is None:
                keys.discard(key)
            else:
                keys.add(key)
        return keys

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        with self._lock:
            self._check_open()
            keys = sorted(
                key for key in self._keys() if key >= start and (end is None or key < end)
            )
            return iter([(key, self._read(key)) for key in keys])

    # -- writes -----------------------------------------------------------

    def _check_writable(self) -> None:
        self._check_open()
        if self._failed:
            raise StorageError(
                f"{self.path}: an earlier write failed; reopen the store to "
                "recover its last commit"
            )

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("store keys and values must be bytes")
        with self._lock:
            self._check_writable()
            self._pending[key] = value
            self.generation += 1

    def delete(self, key: bytes) -> None:
        with self._lock:
            self._check_writable()
            if not self._contains(key):
                raise KeyNotFoundError(key)
            self._pending[key] = None
            self.generation += 1

    def commit(self) -> None:
        """Append every write since the last commit as one frame, then
        flush and fsync it: the batch survives a crash whole or not at
        all."""
        with self._lock:
            self._check_writable()
            if self._file is None:
                self._rewrite()
                return
            if not self._pending:
                return
            frame, entries = _encode_frame(self._pending.items(), self._end)
            try:
                if self._torn:
                    self._file.truncate(self._end)
                    self._torn = False
                self._file.seek(self._end)
                self._file.write(frame)
                self._file.flush()
                _fsync(self._file)
            except OSError as error:
                self._failed = True
                raise StorageError(f"{self.path}: commit failed ({error})") from error
            self._apply(entries)
            self._end += len(frame)
            self._pending.clear()
            _telemetry_count("wal.commits")
            _telemetry_count("wal.bytes_logged", len(frame))

    def sync(self) -> None:
        """Same as :meth:`commit`."""
        self.commit()

    def checkpoint(self) -> None:
        """Rewrite the file as one frame of the live records (pending
        writes included): write ``<path>.tmp``, fsync it, rename it over
        the file, fsync the directory.  A crash leaves the old or the new
        file, both complete."""
        with self._lock:
            self._check_writable()
            self._rewrite()

    def _rewrite(self) -> None:
        live = [(key, self._read(key)) for key in sorted(self._keys())]
        frame, entries = _encode_frame(live, len(_MAGIC))
        temporary = self.path + ".tmp"
        try:
            with self._opener(temporary, "w+b") as out:
                out.write(_MAGIC + frame)
                out.flush()
                _fsync(out)
            os.replace(temporary, self.path)
            _fsync_directory(self.path)
            replaced, self._file = self._file, self._opener(self.path, "r+b")
        except OSError as error:
            self._failed = True
            raise StorageError(f"{self.path}: checkpoint failed ({error})") from error
        if replaced is not None:
            replaced.close()
        self._keydir.clear()
        self._pending.clear()
        self._live = self._dead = 0
        self._apply(entries)
        self._end = len(_MAGIC) + len(frame)
        self._torn = False
        _telemetry_count("wal.checkpoints")

    def close(self) -> None:
        """Commit pending writes, compact when the superseded bytes exceed
        the live ones, and close the file.  Idempotent; after a failed
        write nothing more is written."""
        with self._lock:
            if self._closed:
                return
            try:
                if not self._failed:
                    self.commit()
                    if self._dead > self._live:
                        self._rewrite()
            finally:
                self._closed = True
                if self._file is not None:
                    try:
                        self._file.close()
                    except OSError:
                        pass


# ----------------------------------------------------------------------
# offline checking
# ----------------------------------------------------------------------


@dataclass
class VerifyReport:
    """What :func:`verify_store` found.  A torn tail is not a failure: it
    is the normal residue of a crash, cut off at the next commit."""

    path: str
    frames: int = 0
    records: int = 0
    live_keys: int = 0
    size: int = 0
    torn_bytes: int = 0
    failures: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        """Human-readable rendering for the CLI."""
        lines = [f"verify: {self.path}"]
        lines.extend(f"  FAIL ({reason})" for reason in self.failures)
        if not self.failures:
            lines.append(
                f"  frames: {self.frames} ({self.records} records, "
                f"{self.live_keys} live keys, {self.size} bytes)"
            )
            lines.append(
                f"  torn tail: {self.torn_bytes} bytes (cut off at the next commit)"
                if self.torn_bytes
                else "  torn tail: none"
            )
        lines.append(f"  result: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_store(path: str) -> VerifyReport:
    """Walk every frame of the log at ``path`` and check its checksum.

    Read-only, so it is safe on a store that just crashed.  Raises
    :class:`~repro.errors.StorageError` only when the file cannot be
    read; damage is reported in the returned :class:`VerifyReport`."""
    report = VerifyReport(path=path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise StorageError(f"{path}: cannot verify ({error})") from error
    report.size = len(data)
    try:
        frames, end = _walk(memoryview(data), path)
    except StorageError as error:
        report.failures.append(str(error))
        return report
    keys: dict[bytes, bool] = {}
    for entries in frames:
        keys.update((key, length is not None) for key, _, length in entries)
    report.frames = len(frames)
    report.records = sum(map(len, frames))
    report.live_keys = sum(keys.values())
    report.torn_bytes = len(data) - end
    return report


class Namespace(Store):
    """A logical table inside a shared store, realized by key prefixing."""

    def __init__(self, store: Store, tag: bytes) -> None:
        if b"\x00" in tag:
            raise StorageError("namespace tags must not contain NUL bytes")
        self._store = store
        self._prefix = tag + b"\x00"

    @property
    def generation(self) -> int:  # type: ignore[override]
        """The underlying store's mutation counter (namespaces share it)."""
        return self._store.generation

    def get(self, key: bytes) -> bytes:
        return self._store.get(self._prefix + key)

    def put(self, key: bytes, value: bytes) -> None:
        self._store.put(self._prefix + key, value)

    def delete(self, key: bytes) -> None:
        self._store.delete(self._prefix + key)

    def contains(self, key: bytes) -> bool:
        return self._store.contains(self._prefix + key)

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        prefix_len = len(self._prefix)
        scan_end = None if end is None else self._prefix + end
        for key, value in self._store.scan(start=self._prefix + start, end=scan_end):
            if not key.startswith(self._prefix):
                return
            yield key[prefix_len:], value

    def sync(self) -> None:
        self._store.sync()
