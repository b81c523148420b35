"""Tests for the page-based file manager."""

import os

import pytest

from repro.errors import CorruptPageError, StorageError
from repro.storage.pager import Pager
from repro.telemetry.collector import Telemetry, collecting


@pytest.fixture
def pager(tmp_path):
    with Pager(str(tmp_path / "test.db"), page_size=512) as pager:
        yield pager


class TestAllocation:
    def test_fresh_file_has_header_page_only(self, pager):
        assert pager.page_count == 1

    def test_allocate_returns_increasing_pages(self, pager):
        assert pager.allocate() == 1
        assert pager.allocate() == 2
        assert pager.page_count == 3

    def test_freed_page_is_reused(self, pager):
        first = pager.allocate()
        second = pager.allocate()
        pager.free(first)
        assert pager.allocate() == first
        assert pager.allocate() == second + 1

    def test_free_list_is_lifo(self, pager):
        pages = [pager.allocate() for _ in range(3)]
        for page in pages:
            pager.free(page)
        assert pager.allocate() == pages[-1]
        assert pager.allocate() == pages[-2]


class TestReadWrite:
    def test_roundtrip(self, pager):
        page = pager.allocate()
        pager.write(page, b"hello world")
        assert pager.read(page).startswith(b"hello world")

    def test_payload_padded_to_payload_size(self, pager):
        page = pager.allocate()
        pager.write(page, b"x")
        assert len(pager.read(page)) == pager.payload_size

    def test_oversized_payload_rejected(self, pager):
        page = pager.allocate()
        with pytest.raises(StorageError):
            pager.write(page, b"x" * (pager.payload_size + 1))

    def test_full_payload_accepted(self, pager):
        page = pager.allocate()
        payload = bytes(range(256)) * (pager.payload_size // 256 + 1)
        payload = payload[: pager.payload_size]
        pager.write(page, payload)
        assert pager.read(page) == payload

    def test_read_out_of_range_rejected(self, pager):
        with pytest.raises(StorageError):
            pager.read(99)

    def test_read_header_page_rejected(self, pager):
        with pytest.raises(StorageError):
            pager.read(0)


class TestPersistence:
    def test_reopen_preserves_pages(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with Pager(path, page_size=512) as pager:
            page = pager.allocate()
            pager.write(page, b"durable")
        with Pager(path) as pager:
            assert pager.page_size == 512
            assert pager.read(page).startswith(b"durable")

    def test_reopen_preserves_free_list(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with Pager(path, page_size=512) as pager:
            first = pager.allocate()
            pager.allocate()
            pager.free(first)
        with Pager(path) as pager:
            assert pager.allocate() == first

    def test_corrupted_page_detected(self, tmp_path):
        path = str(tmp_path / "corrupt.db")
        with Pager(path, page_size=512) as pager:
            page = pager.allocate()
            pager.write(page, b"payload")
        with open(path, "r+b") as handle:
            handle.seek(page * 512 + 100)
            handle.write(b"\xff\xff\xff")
        with Pager(path) as pager:
            with pytest.raises(CorruptPageError):
                pager.read(page)

    def test_bad_magic_detected(self, tmp_path):
        path = str(tmp_path / "magic.db")
        with Pager(path, page_size=512):
            pass
        with open(path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        with pytest.raises(CorruptPageError):
            Pager(path)


class TestLifecycle:
    def test_use_after_close_rejected(self, tmp_path):
        pager = Pager(str(tmp_path / "closed.db"))
        pager.close()
        with pytest.raises(StorageError):
            pager.allocate()

    def test_double_close_is_noop(self, tmp_path):
        pager = Pager(str(tmp_path / "closed.db"))
        pager.close()
        pager.close()

    def test_tiny_page_size_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Pager(str(tmp_path / "tiny.db"), page_size=16)

    def test_sync_flushes(self, pager):
        page = pager.allocate()
        pager.write(page, b"synced")
        pager.sync()
        assert pager.read(page).startswith(b"synced")


def _corrupt_page_on_disk(path, page_size, page_no):
    """Flip payload bytes of ``page_no`` directly in the file, bypassing
    the pager — a subsequent *file* read must fail the CRC check, while
    a *cached* read cannot notice."""
    with open(path, "r+b") as handle:
        handle.seek(page_no * page_size + 100)
        handle.write(b"\xde\xad\xbe\xef")


class TestPageCache:
    def test_negative_capacity_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Pager(str(tmp_path / "bad.db"), page_size=512, cache_pages=-1)

    def test_lru_eviction_order(self, tmp_path):
        """Touching a page must protect it from eviction: with capacity
        2, writing a third page evicts the *least recently used* page,
        not the oldest-written one."""
        path = str(tmp_path / "lru.db")
        with Pager(path, page_size=512, cache_pages=2) as pager:
            one, two, three = pager.allocate(), pager.allocate(), pager.allocate()
            pager.write(one, b"one")
            pager.write(two, b"two")  # cache: [one, two]
            pager.read(one)  # cache: [two, one]
            pager.write(three, b"three")  # over capacity: evict two
            pager.sync()
            for page in (one, two, three):
                _corrupt_page_on_disk(path, 512, page)
            # one and three are served from the cache, untouched by the
            # on-disk corruption; two must go to the file and fail CRC
            assert pager.read(one).startswith(b"one")
            assert pager.read(three).startswith(b"three")
            with pytest.raises(CorruptPageError):
                pager.read(two)

    def test_cache_disabled_reads_always_hit_the_file(self, tmp_path):
        path = str(tmp_path / "nocache.db")
        with Pager(path, page_size=512, cache_pages=0) as pager:
            page = pager.allocate()
            pager.write(page, b"payload")
            pager.sync()
            _corrupt_page_on_disk(path, 512, page)
            with pytest.raises(CorruptPageError):
                pager.read(page)

    def test_write_through_keeps_cache_coherent(self, tmp_path):
        with Pager(str(tmp_path / "wt.db"), page_size=512, cache_pages=4) as pager:
            page = pager.allocate()
            pager.write(page, b"before")
            assert pager.read(page).startswith(b"before")
            pager.write(page, b"after")
            assert pager.read(page).startswith(b"after")

    def test_telemetry_counters(self, tmp_path):
        with Pager(str(tmp_path / "tele.db"), page_size=512, cache_pages=1) as pager:
            one, two = pager.allocate(), pager.allocate()
            pager.write(one, b"one")
            pager.write(two, b"two")  # capacity 1: only two stays cached
            telemetry = Telemetry()
            with collecting(telemetry):
                pager.read(two)  # hit
                pager.read(one)  # miss: file read, caches one, evicts two
            assert telemetry.counters["cache.page_hits"] == 1
            assert telemetry.counters["cache.page_misses"] == 1
            assert telemetry.counters["storage.pages_read"] == 1
            assert telemetry.counters["cache.page_evictions"] == 1

    def test_disabled_cache_emits_no_cache_counters(self, tmp_path):
        """With the cache off, telemetry must be byte-identical to the
        uncached engine: pages_read only, no cache.* noise."""
        with Pager(str(tmp_path / "off.db"), page_size=512, cache_pages=0) as pager:
            page = pager.allocate()
            pager.write(page, b"x")
            telemetry = Telemetry()
            with collecting(telemetry):
                pager.read(page)
                pager.read(page)
            assert telemetry.counters == {"storage.pages_read": 2}


class TestAllocationCoalescing:
    def test_grow_allocation_does_no_page_io(self, tmp_path):
        """Growing the file is pure bookkeeping: no dummy page write, no
        header write per allocation (satellite of the caching PR)."""
        with Pager(str(tmp_path / "grow.db"), page_size=512) as pager:
            telemetry = Telemetry()
            with collecting(telemetry):
                for _ in range(10):
                    pager.allocate()
            assert telemetry.counters.get("storage.pages_written", 0) == 0
            assert telemetry.counters.get("storage.pages_read", 0) == 0

    def test_file_grows_only_on_first_write(self, tmp_path):
        path = str(tmp_path / "size.db")
        with Pager(path, page_size=512) as pager:
            pager.sync()
            before = os.path.getsize(path)
            page = pager.allocate()
            pager.sync()
            assert os.path.getsize(path) == before
            pager.write(page, b"x")
            pager.sync()
            assert os.path.getsize(path) > before

    def test_page_count_persisted_on_close(self, tmp_path):
        path = str(tmp_path / "count.db")
        with Pager(path, page_size=512) as pager:
            pages = [pager.allocate() for _ in range(5)]
            for page in pages:
                pager.write(page, b"p")
        with Pager(path) as reopened:
            assert reopened.page_count == 6
            assert reopened.allocate() == 6

    def test_free_defers_header_but_persists_via_close(self, tmp_path):
        path = str(tmp_path / "freelist.db")
        with Pager(path, page_size=512) as pager:
            first = pager.allocate()
            second = pager.allocate()
            pager.write(first, b"a")
            pager.write(second, b"b")
            telemetry = Telemetry()
            with collecting(telemetry):
                pager.free(first)
            # exactly one page write: the free-list link, no header churn
            assert telemetry.counters["storage.pages_written"] == 1
        with Pager(path) as reopened:
            assert reopened.allocate() == first


class TestTypedOpenErrors:
    """Opening something that is not a healthy database must raise a
    typed StorageError naming the path and the reason — never a raw
    OSError or struct.error."""

    def test_missing_file_with_must_exist(self, tmp_path):
        path = str(tmp_path / "absent.db")
        with pytest.raises(StorageError, match="no such file") as excinfo:
            Pager(path, must_exist=True)
        assert path in str(excinfo.value)

    def test_empty_file_with_must_exist(self, tmp_path):
        path = tmp_path / "empty.db"
        path.touch()
        with pytest.raises(StorageError, match="file is empty") as excinfo:
            Pager(str(path), must_exist=True)
        assert str(path) in str(excinfo.value)

    def test_truncated_header_names_path_and_reason(self, tmp_path):
        path = tmp_path / "stub.db"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(CorruptPageError, match="truncated header") as excinfo:
            Pager(str(path))
        assert str(path) in str(excinfo.value)

    def test_non_database_file_names_path(self, tmp_path):
        path = tmp_path / "readme.db"
        path.write_bytes(b"This is a text file, not a page store at all.")
        with pytest.raises(CorruptPageError, match="bad magic") as excinfo:
            Pager(str(path))
        assert str(path) in str(excinfo.value)

    def test_implausible_geometry_rejected(self, tmp_path):
        import struct

        path = tmp_path / "geom.db"
        path.write_bytes(struct.pack("<8sIIQ", b"APXQPG01", 4, 0, 0))
        with pytest.raises(CorruptPageError, match="corrupt header"):
            Pager(str(path))

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        # a directory can exist but never open as a file: the OSError
        # must come back typed, with the path in the message
        path = tmp_path / "actually-a-dir"
        path.mkdir()
        (path / "page").write_bytes(b"x")  # non-empty so open is attempted
        with pytest.raises(StorageError, match="cannot open database file"):
            Pager(str(path))

    def test_creation_io_failure_raises_typed_error(self, tmp_path):
        from repro.storage.faults import FaultInjector

        injector = FaultInjector(fail_fsync=True)
        with pytest.raises(StorageError, match="cannot initialize"):
            Pager(
                str(tmp_path / "new.db"),
                page_size=512,
                durability="wal",
                opener=injector.opener(),
            )

    def test_failed_open_leaks_no_handle(self, tmp_path):
        """A constructor that raises must close the file it opened —
        otherwise every failed open leaks a descriptor."""
        path = tmp_path / "stub.db"
        path.write_bytes(b"short")
        with pytest.raises(CorruptPageError):
            Pager(str(path))
        # the file is not held open: an exclusive rename/unlink works
        os.replace(path, tmp_path / "moved.db")


class TestCloseSafety:
    def test_close_after_failed_sync_does_not_reraise(self, tmp_path):
        """After sync() already reported an I/O error, close() must not
        run into the same failure again — the error was surfaced once."""
        from repro.storage.faults import FaultInjector

        injector = FaultInjector(fail_fsync=True)
        pager = Pager(str(tmp_path / "db.apxq"), page_size=512, opener=injector.opener())
        page = pager.allocate()
        pager.write(page, b"payload")
        with pytest.raises(StorageError):
            pager.sync()
        pager.close()  # must not raise
        pager.close()  # and stays a no-op afterwards

    def test_close_after_failed_wal_commit_does_not_reraise(self, tmp_path):
        from repro.storage.faults import FaultInjector

        path = str(tmp_path / "db.apxq")
        Pager(path, page_size=512).close()  # create cleanly first
        injector = FaultInjector(fail_fsync=True)
        pager = Pager(path, durability="wal", opener=injector.opener())
        page = pager.allocate()
        pager.write(page, b"payload")
        with pytest.raises(StorageError):
            pager.commit()
        pager.close()
        pager.close()

    def test_double_close_in_wal_mode_is_noop(self, tmp_path):
        pager = Pager(str(tmp_path / "db.apxq"), page_size=512, durability="wal")
        pager.write(pager.allocate(), b"data")
        pager.close()
        pager.close()

    def test_close_is_safe_inside_context_manager_after_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with Pager(str(tmp_path / "db.apxq"), page_size=512) as pager:
                pager.write(pager.allocate(), b"data")
                raise RuntimeError("caller failure mid-transaction")
        with Pager(str(tmp_path / "db.apxq")) as reopened:
            assert reopened.page_count == 2


class TestCountedLock:
    def test_contended_lock_reports_waits(self, pager):
        """CountedLock observability: a thread that actually blocks on the
        pager's lock ticks concurrency.pager_lock_waits in its own
        collection; the uncontended path records nothing."""
        import threading
        import time

        page = pager.allocate()
        pager.write(page, b"locked")
        telemetry = Telemetry()
        entered = threading.Event()

        def blocked_reader():
            entered.wait()
            with collecting(telemetry):
                pager.read(page)

        thread = threading.Thread(target=blocked_reader)
        raw_lock = pager._lock._lock
        raw_lock.acquire()
        try:
            thread.start()
            entered.set()
            time.sleep(0.05)  # let the reader hit the held lock
        finally:
            raw_lock.release()
        thread.join()
        assert telemetry.counters.get("concurrency.pager_lock_waits") == 1
        uncontended = Telemetry()
        with collecting(uncontended):
            pager.read(page)
        assert "concurrency.pager_lock_waits" not in uncontended.counters
