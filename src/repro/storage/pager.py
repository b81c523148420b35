"""Page-based file manager for the embedded storage engine.

The pager owns a single file divided into fixed-size pages.  Page 0 is a
header page holding the magic number, the page size, the total page count,
and the head of the free list.  Freed pages are chained through their first
eight bytes and reused before the file grows.

Every page is checksummed (CRC32 over the payload) so torn or corrupted
reads surface as :class:`~repro.errors.CorruptPageError` instead of silent
garbage — the same contract Berkeley DB gives the paper's implementation.

An **LRU page cache** (the role of Berkeley DB's buffer pool in the
paper's §8 setup) sits in front of the file: hot pages — B+tree root and
internal nodes above all — are served from memory without a seek, a read,
or a CRC check.  The cache is write-through, so a cached page is always
byte-identical to the file, and ``cache_pages=0`` disables it entirely
(every read then hits the file exactly as before).

**Durability** is selected per pager (``durability="none"`` or
``"wal"``).  In WAL mode every page write is appended to a checksummed
write-ahead log (:mod:`repro.storage.wal`) instead of the main file;
:meth:`commit` makes a batch of writes atomically durable, and the log
is folded back into the main file by size-triggered checkpoints.  A
store killed mid-write reopens in exactly its last committed state —
recovery runs automatically on open, in every mode.  With
``durability="none"`` the write path is byte-identical to the engine
before the WAL existed.

The pager is **thread-safe**: one coarse reentrant lock guards the file
handle (a seek+read pair must not interleave), the LRU cache, and the
free-list/header bookkeeping.  Blocking acquisitions are counted as
``concurrency.pager_lock_waits``, so lock contention is observable per
query rather than guessed at.

Page reads and writes report into the ambient telemetry collector
(``storage.pages_read`` / ``storage.pages_written`` count page I/O;
``cache.page_*`` account for the cache; the ``wal.*`` family — frames
written, bytes logged, commits, checkpoints, recoveries, frames
replayed — accounts for the log), so a query against a stored database
accounts for every page it touches.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import OrderedDict

from ..errors import CorruptPageError, StorageError
from ..telemetry.collector import count as _telemetry_count
from .wal import (
    DEFAULT_CHECKPOINT_BYTES,
    WAL_SUFFIX,
    WriteAheadLog,
    default_opener,
    fsync_file,
    recover,
)


class CountedLock:
    """A lock that counts blocking acquisitions into ambient telemetry.

    The engine's lock-contention observability: entering the context is
    one non-blocking acquire on the fast (uncontended) path; only when
    the calling thread actually has to wait does the named counter tick
    — so a single-threaded run pays one C-level call and records
    nothing.  ``reentrant=True`` backs the lock with an :class:`RLock`
    for owners whose guarded methods call each other (the pager).
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


DEFAULT_PAGE_SIZE = 4096
#: default page-cache capacity in pages (256 KiB at the default page
#: size): reads answer from memory, so the cache serves ``open`` and the
#: B+tree descents of writes, whose interior pages it holds many times over
DEFAULT_CACHE_PAGES = 64
#: the two durability modes of the pager
DURABILITY_MODES = ("none", "wal")
_MAGIC = b"APXQPG01"
_HEADER_FMT = "<8sIIQ"  # magic, page_size, page_count, free_list_head
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_PAGE_PREFIX_FMT = "<I"  # crc32 of the payload
_PAGE_PREFIX_SIZE = struct.calcsize(_PAGE_PREFIX_FMT)
_FREE_LINK_FMT = "<Q"
_FREE_LINK_SIZE = struct.calcsize(_FREE_LINK_FMT)
_NO_PAGE = 0  # page 0 is the header, so 0 doubles as "null"


class Pager:
    """Fixed-size page manager over a single file.

    Parameters
    ----------
    path:
        File to open or create.
    page_size:
        Size of each page in bytes (only consulted when creating a new
        file; an existing file dictates its own page size).
    cache_pages:
        Capacity of the LRU page cache in pages; ``0`` disables caching.
    durability:
        ``"none"`` (writes go straight to the file, durable at
        :meth:`sync`/:meth:`close` only if the process survives) or
        ``"wal"`` (writes go through the write-ahead log; :meth:`commit`
        batches are atomic and survive a kill at any I/O boundary).
    wal_checkpoint_bytes:
        Log size that triggers a checkpoint at the next commit
        (WAL mode only).
    opener:
        ``open(path, mode)`` replacement for every file the pager
        touches — the fault-injection hook
        (:meth:`repro.storage.faults.FaultInjector.opener`).
    must_exist:
        Refuse to create a missing or empty file; raise a typed
        :class:`~repro.errors.StorageError` instead (what
        ``Database.open`` wants: opening a database is not creating one).
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        durability: str = "none",
        wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        opener=None,
        must_exist: bool = False,
    ) -> None:
        if page_size < 128:
            raise StorageError(f"page size {page_size} too small (min 128)")
        if cache_pages < 0:
            raise StorageError(f"cache_pages must be >= 0, got {cache_pages}")
        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability {durability!r}; expected one of {DURABILITY_MODES}"
            )
        if wal_checkpoint_bytes <= 0:
            raise StorageError(
                f"wal_checkpoint_bytes must be > 0, got {wal_checkpoint_bytes}"
            )
        self.path = path
        self.durability = durability
        self._opener = opener or default_opener
        self._closed = False
        self._io_failed = False
        # One coarse reentrant lock over the whole pager: the file handle
        # (seek+read is a two-step critical section), the LRU cache, and
        # the free-list/header bookkeeping all share it.  Reads are
        # memory- or page-sized, so a reader/writer split measured within
        # noise of the single lock; contention is observable through the
        # concurrency.pager_lock_waits counter.
        self._lock = CountedLock("concurrency.pager_lock_waits", reentrant=True)
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._cache_capacity = cache_pages
        self._wal: "WriteAheadLog | None" = None
        self._wal_checkpoint_bytes = wal_checkpoint_bytes
        #: pages replayed from the log on open (0 when no recovery ran)
        self.recovered_frames = 0

        # A crashed WAL-mode store must reopen committed in *every*
        # durability mode, so recovery runs before the header is read.
        if os.path.exists(path + WAL_SUFFIX):
            self.recovered_frames = recover(path, self._opener)

        try:
            size = os.path.getsize(path)
        except OSError:
            size = -1
        exists = size > 0
        if must_exist and not exists:
            reason = "no such file" if size < 0 else "file is empty"
            raise StorageError(f"{path}: not a database file ({reason})")
        try:
            self._file = self._opener(path, "r+b" if exists else "w+b")
        except OSError as error:
            raise StorageError(f"{path}: cannot open database file ({error})") from error
        try:
            if exists:
                self._read_header()
            else:
                self.page_size = page_size
                self.page_count = 1  # the header page
                self._free_list_head = _NO_PAGE
                # make creation itself crash-safe: a killed build leaves
                # at worst a valid empty store, never a headerless file
                try:
                    self._write_header()
                    self._file.flush()
                    if durability == "wal":
                        fsync_file(self._file)
                except OSError as error:
                    raise StorageError(
                        f"{path}: cannot initialize database file ({error})"
                    ) from error
            if durability == "wal":
                self._wal = WriteAheadLog(path + WAL_SUFFIX, self.page_size, self._opener)
        except BaseException:
            self._file.close()
            raise

    # ------------------------------------------------------------------
    # header management
    # ------------------------------------------------------------------

    def _header_bytes(self) -> bytes:
        return struct.pack(
            _HEADER_FMT, _MAGIC, self.page_size, self.page_count, self._free_list_head
        )

    def _read_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_HEADER_SIZE)
        if len(raw) < _HEADER_SIZE:
            raise CorruptPageError(
                f"{self.path}: not a database file (truncated header: "
                f"{len(raw)} of {_HEADER_SIZE} bytes)"
            )
        magic, page_size, page_count, free_head = struct.unpack(_HEADER_FMT, raw)
        if magic != _MAGIC:
            raise CorruptPageError(f"{self.path}: not a database file (bad magic {magic!r})")
        if page_size < 128 or page_count < 1:
            raise CorruptPageError(
                f"{self.path}: corrupt header (page_size={page_size}, "
                f"page_count={page_count})"
            )
        self.page_size = page_size
        self.page_count = page_count
        self._free_list_head = free_head

    def _write_header(self) -> None:
        self._file.seek(0)
        self._file.write(self._header_bytes())

    # ------------------------------------------------------------------
    # page allocation
    # ------------------------------------------------------------------

    @property
    def payload_size(self) -> int:
        """Number of usable bytes per page (page size minus checksum)."""
        return self.page_size - _PAGE_PREFIX_SIZE

    def allocate(self) -> int:
        """Return the number of a fresh (or recycled) page.

        Allocation is pure bookkeeping: growing the file updates only the
        in-memory page count (the header is persisted on :meth:`sync` /
        :meth:`close`), and the page's contents are undefined until its
        first :meth:`write` — callers always write an allocated page
        before reading it.  This keeps bulk-load-style allocation storms
        at one page write per page instead of three.
        """
        with self._lock:
            self._check_open()
            if self._free_list_head != _NO_PAGE:
                page_no = self._free_list_head
                payload = self.read(page_no)
                (next_free,) = struct.unpack_from(_FREE_LINK_FMT, payload, 0)
                self._free_list_head = next_free
                return page_no
            page_no = self.page_count
            self.page_count += 1
            return page_no

    def free(self, page_no: int) -> None:
        """Return ``page_no`` to the free list for reuse.

        Like :meth:`allocate`, the header update is deferred to
        :meth:`sync` / :meth:`close`; only the free-list link is written.
        """
        with self._lock:
            self._check_open()
            self._validate_page_no(page_no)
            link = struct.pack(_FREE_LINK_FMT, self._free_list_head)
            self.write(page_no, link)
            self._free_list_head = page_no

    # ------------------------------------------------------------------
    # page IO
    # ------------------------------------------------------------------

    def _decode_page(self, page_no: int, raw: bytes) -> bytes:
        """Checksum-verify one raw page image and return its payload."""
        if len(raw) < _PAGE_PREFIX_SIZE:
            raise CorruptPageError(f"{self.path}: short read on page {page_no}")
        (stored_crc,) = struct.unpack_from(_PAGE_PREFIX_FMT, raw, 0)
        payload = raw[_PAGE_PREFIX_SIZE : self.page_size]
        if zlib.crc32(payload) != stored_crc:
            raise CorruptPageError(f"{self.path}: checksum mismatch on page {page_no}")
        return payload

    def read(self, page_no: int) -> bytes:
        """Return the payload of ``page_no`` — from the page cache when
        resident, then from the write-ahead log (WAL mode), otherwise
        read from the file and CRC-verified."""
        with self._lock:
            self._check_open()
            self._validate_page_no(page_no)
            cache = self._cache
            cached = cache.get(page_no)
            if cached is not None:
                cache.move_to_end(page_no)
                _telemetry_count("cache.page_hits")
                return cached
            if self._cache_capacity:
                _telemetry_count("cache.page_misses")
            if self._wal is not None:
                image = self._wal.read_page(page_no)
                if image is not None:
                    payload = self._decode_page(page_no, image)
                    self._cache_store(page_no, payload)
                    return payload
            _telemetry_count("storage.pages_read")
            self._file.seek(page_no * self.page_size)
            raw = self._file.read(self.page_size)
            payload = self._decode_page(page_no, raw)
            self._cache_store(page_no, payload)
            return payload

    def write(self, page_no: int, payload: bytes) -> None:
        """Write ``payload`` (padded with zeros) to ``page_no``.

        In WAL mode the page image is appended to the log (the main
        file is untouched until a checkpoint); otherwise it is written
        through to the file.  Either way a cached copy of the page is
        refreshed so subsequent reads stay coherent.
        """
        with self._lock:
            self._check_open()
            if page_no <= 0 or page_no > self.page_count:
                raise StorageError(
                    f"page {page_no} out of range (count {self.page_count})"
                )
            if len(payload) > self.payload_size:
                raise StorageError(
                    f"payload of {len(payload)} bytes exceeds page capacity "
                    f"{self.payload_size}"
                )
            _telemetry_count("storage.pages_written")
            padded = payload.ljust(self.payload_size, b"\x00")
            crc = zlib.crc32(padded)
            image = struct.pack(_PAGE_PREFIX_FMT, crc) + padded
            if self._wal is not None:
                self._wal.append(page_no, image)
            else:
                self._file.seek(page_no * self.page_size)
                self._file.write(image)
            self._cache_store(page_no, padded)

    @property
    def cache_bytes(self) -> int:
        """Bytes of page payload the LRU page cache holds right now."""
        return len(self._cache) * self.payload_size

    def _cache_store(self, page_no: int, payload: bytes) -> None:
        capacity = self._cache_capacity
        if not capacity:
            return
        cache = self._cache
        cache[page_no] = payload
        cache.move_to_end(page_no)
        if len(cache) > capacity:
            cache.popitem(last=False)
            _telemetry_count("cache.page_evictions")

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Make every write since the last commit atomically durable.

        WAL mode: append the commit frame (the header page image) and
        fsync the log; a crash from now on replays the batch, a crash
        before now rolls it back entirely.  When the log has grown past
        ``wal_checkpoint_bytes`` it is folded into the main file.

        In ``durability="none"`` mode this is :meth:`sync` (flush +
        fsync, with no atomicity across the batch).
        """
        with self._lock:
            self._check_open()
            wal = self._wal
            if wal is None:
                self.sync()
                return
            if wal.pending_frames == 0 and wal.size == 0:
                return  # nothing logged since the last checkpoint
            try:
                wal.commit(self._header_bytes().ljust(self.page_size, b"\x00"))
            except OSError as error:
                self._io_failed = True
                raise StorageError(f"{self.path}: commit failed ({error})") from error
            if wal.size >= self._wal_checkpoint_bytes:
                self._checkpoint()

    def checkpoint(self) -> None:
        """Commit pending writes, then fold the whole log back into the
        main file (WAL mode; a no-op sync otherwise)."""
        with self._lock:
            self._check_open()
            if self._wal is None:
                self.sync()
                return
            self.commit()
            if self._wal.size:
                self._checkpoint()

    def _checkpoint(self) -> None:
        """Fold every committed frame into the main file, fsync it, then
        reset the log.  Only called with no pending (uncommitted) frames.
        Crash-safe: the log is truncated only after the main file is
        durable, so recovery simply redoes an interrupted fold."""
        wal = self._wal
        assert wal is not None and wal.pending_frames == 0
        try:
            pages = 0
            for page_no, image in wal.pages():
                self._file.seek(page_no * self.page_size)
                self._file.write(image)
                pages += 1
            self._file.flush()
            fsync_file(self._file)
            wal.reset()
        except OSError as error:
            self._io_failed = True
            raise StorageError(f"{self.path}: checkpoint failed ({error})") from error
        _telemetry_count("wal.checkpoints")
        _telemetry_count("wal.checkpoint_pages", pages)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush buffered writes and the header to the OS.

        In WAL mode this is :meth:`commit` — the header travels inside
        the commit frame and the main file is left to the checkpoint.
        """
        with self._lock:
            self._check_open()
            if self._wal is not None:
                self.commit()
                return
            try:
                self._write_header()
                self._file.flush()
                fsync_file(self._file)
            except OSError as error:
                self._io_failed = True
                raise StorageError(f"{self.path}: sync failed ({error})") from error

    def close(self) -> None:
        """Flush and close the underlying file(s).

        Idempotent (a second close is a no-op) and exception-safe: the
        files are closed and the pager marked closed even when the final
        flush fails, and after a failed :meth:`sync`/:meth:`commit` no
        re-flush is attempted — the error was already reported once.

        In WAL mode, closing commits pending writes and checkpoints the
        log, so a cleanly closed store has an empty log and is readable
        in any durability mode.
        """
        with self._lock:
            if self._closed:
                return
            try:
                if not self._io_failed:
                    if self._wal is not None:
                        self.commit()
                        if self._wal.size:
                            self._checkpoint()
                    else:
                        self._write_header()
                        self._file.flush()
            except OSError as error:
                self._io_failed = True
                raise StorageError(f"{self.path}: close failed ({error})") from error
            finally:
                self._closed = True
                if self._wal is not None:
                    try:
                        self._wal.close()
                    except OSError:
                        pass
                try:
                    self._file.close()
                except OSError:
                    pass
                self._cache.clear()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: pager is closed")

    def _validate_page_no(self, page_no: int) -> None:
        if page_no <= 0 or page_no >= self.page_count:
            raise StorageError(f"page {page_no} out of range (count {self.page_count})")
