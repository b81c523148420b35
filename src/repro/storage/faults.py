"""Fault injection for the storage engine's file I/O.

The durability guarantees of the record log (:class:`repro.storage.kv.FileStore`)
are claims about what survives a crash at an *arbitrary* I/O boundary — a
kill between two writes, in the middle of a write (a torn frame), or
right before an fsync.  This module makes those boundaries drivable from
tests: a :class:`FaultyFile` wraps a real file object and a shared
:class:`FaultInjector` decides, per operation, whether it completes,
completes partially, or dies.

Faults on offer:

* **kill-after-N** — the first ``kill_after_ops`` *mutating* operations
  (write / flush / fsync / truncate) succeed, the next one raises
  :class:`SimulatedCrash` exactly once; every later operation on any
  file of the injector raises :class:`~repro.errors.StorageError`
  (the process is "dead", nothing more reaches disk).
* **torn writes** — when the killed operation is a write, only the first
  ``torn_write_bytes`` bytes of the buffer land in the file before the
  crash (default: half the buffer), modelling a power cut mid-frame.
* **fsync failure** — ``fail_fsync=True`` makes every fsync raise
  ``OSError(EIO)`` without crashing the injector, modelling a dying
  disk whose error the engine must propagate, not swallow.
* **short reads** — ``short_read_bytes`` caps how many bytes any read
  returns, modelling a truncated file or a filesystem that returns
  partial data; the engine must turn this into a typed error, never a
  ``struct.error``.

The injector also runs in pure *counting* mode (no faults configured):
:attr:`FaultInjector.mutating_ops` then reports how many I/O boundaries
a workload has, which is exactly what the crash matrix
(``tools/crashmatrix.py``) needs to enumerate kill points.

Reads never count as kill boundaries: a crash during a read does not
change the bytes on disk, so killing there cannot create new states.
"""

from __future__ import annotations

import errno
import os
from typing import Callable

from ..errors import StorageError

#: operations that advance the kill counter (they can change disk state)
MUTATING_OPS = ("write", "flush", "fsync", "truncate")


class SimulatedCrash(Exception):
    """The injected process kill.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the engine
    must never catch and recover from it in-process — only a harness
    that re-opens the store afterwards may handle it.
    """


class FaultInjector:
    """Shared fault policy for every file opened through :meth:`opener`.

    One injector models one process run: the operation counter and the
    crashed state are shared across the database file and its
    checkpoint temporary, so "kill at boundary k" means the k-th mutating operation
    *anywhere*, matching what a real ``kill -9`` does.

    Parameters
    ----------
    kill_after_ops:
        Number of mutating operations allowed to complete; the next one
        raises :class:`SimulatedCrash`.  ``None`` disables the kill
        (counting mode).
    torn_write_bytes:
        When the killed operation is a write, how many leading bytes
        still reach the file.  ``None`` tears at half the buffer.
    fail_fsync:
        Every fsync raises ``OSError(EIO)`` (no crash, no dead state).
    short_read_bytes:
        Cap on the byte count any single read returns; ``None`` reads
        normally.
    """

    def __init__(
        self,
        kill_after_ops: "int | None" = None,
        torn_write_bytes: "int | None" = None,
        fail_fsync: bool = False,
        short_read_bytes: "int | None" = None,
    ) -> None:
        if kill_after_ops is not None and kill_after_ops < 0:
            raise StorageError(f"kill_after_ops must be >= 0, got {kill_after_ops}")
        self.kill_after_ops = kill_after_ops
        self.torn_write_bytes = torn_write_bytes
        self.fail_fsync = fail_fsync
        self.short_read_bytes = short_read_bytes
        #: mutating operations that completed (or tore) so far
        self.mutating_ops = 0
        #: whether the simulated kill already fired
        self.crashed = False
        #: operation index the kill fired at (None until it does)
        self.crashed_at: "int | None" = None

    # ------------------------------------------------------------------
    # policy hooks called by FaultyFile
    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.crashed:
            raise StorageError("simulated crash: file is dead, nothing reaches disk")

    def _next_op_crashes(self) -> bool:
        """Account for one mutating operation; True when it is the one
        that dies (fires at most once per injector)."""
        self._check_alive()
        if self.kill_after_ops is not None and self.mutating_ops >= self.kill_after_ops:
            self.crashed = True
            self.crashed_at = self.mutating_ops
            return True
        self.mutating_ops += 1
        return False

    def opener(self) -> "Callable[[str, str], FaultyFile]":
        """An ``open(path, mode)`` replacement wiring files to this
        injector — pass as the store's ``opener``.

        Files open unbuffered so that every :meth:`FaultyFile.write`
        reaches the OS immediately: the crash model is a process kill,
        where completed writes survive (they are in the OS page cache)
        and nothing else does.  A userspace buffer would make survival
        depend on flush timing instead of on the injected boundary.
        """

        def _open(path: str, mode: str) -> FaultyFile:
            return FaultyFile(open(path, mode, buffering=0), self)

        return _open


class FaultyFile:
    """File-object proxy routing every operation through the injector.

    Implements the subset of the file protocol the storage engine uses
    (seek/read/write/flush/truncate/close/fileno) plus an explicit
    :meth:`fsync` method — the store syncs through the file object when
    one is offered, so the injector sees fsyncs too (``os.fsync`` on a
    raw descriptor would bypass it).
    """

    def __init__(self, file, injector: FaultInjector) -> None:
        self._file = file
        self._injector = injector

    # -- non-mutating ---------------------------------------------------

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._injector._check_alive()
        return self._file.seek(offset, whence)

    def tell(self) -> int:
        self._injector._check_alive()
        return self._file.tell()

    def read(self, size: int = -1) -> bytes:
        injector = self._injector
        injector._check_alive()
        limit = injector.short_read_bytes
        if limit is not None and (size < 0 or size > limit):
            size = limit
        return self._file.read(size)

    def fileno(self) -> int:
        return self._file.fileno()

    # -- mutating (kill boundaries) -------------------------------------

    def write(self, data: bytes) -> int:
        injector = self._injector
        if injector._next_op_crashes():
            torn = injector.torn_write_bytes
            if torn is None:
                torn = len(data) // 2
            torn = min(torn, len(data))
            if torn:
                self._file.write(data[:torn])
                self._file.flush()  # the torn prefix is what hit the disk
            raise SimulatedCrash(
                f"killed at op {injector.crashed_at}: torn write "
                f"({torn}/{len(data)} bytes landed)"
            )
        return self._file.write(data)

    def flush(self) -> None:
        injector = self._injector
        if injector._next_op_crashes():
            raise SimulatedCrash(f"killed at op {injector.crashed_at}: flush lost")
        self._file.flush()

    def fsync(self) -> None:
        injector = self._injector
        if injector.fail_fsync:
            injector._check_alive()
            raise OSError(errno.EIO, "injected fsync failure")
        if injector._next_op_crashes():
            raise SimulatedCrash(f"killed at op {injector.crashed_at}: fsync lost")
        os.fsync(self._file.fileno())

    def truncate(self, size: "int | None" = None) -> int:
        injector = self._injector
        if injector._next_op_crashes():
            raise SimulatedCrash(f"killed at op {injector.crashed_at}: truncate lost")
        return self._file.truncate(size)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        # closing never faults: a dead process's descriptors are closed
        # by the OS without writing anything
        self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
