"""Tests for the KV store façade and namespaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError, StorageError
from repro.storage.kv import FileStore, MemoryStore, Namespace
from repro.telemetry.collector import Telemetry, collecting


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        with FileStore(str(tmp_path / "store.db")) as file_store:
            yield file_store


class TestStoreContract:
    def test_get_missing(self, store):
        with pytest.raises(KeyNotFoundError):
            store.get(b"nope")

    def test_put_get_delete(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.delete(b"k")
        assert not store.contains(b"k")

    def test_delete_missing(self, store):
        with pytest.raises(KeyNotFoundError):
            store.delete(b"nope")

    def test_scan_order(self, store):
        for key in [b"b", b"a", b"c"]:
            store.put(key, key)
        assert [k for k, _ in store.scan()] == [b"a", b"b", b"c"]

    def test_scan_range(self, store):
        for key in [b"a", b"b", b"c", b"d"]:
            store.put(key, key)
        assert [k for k, _ in store.scan(start=b"b", end=b"d")] == [b"b", b"c"]

    def test_scan_prefix(self, store):
        store.put(b"x:1", b"1")
        store.put(b"x:2", b"2")
        store.put(b"y:1", b"3")
        assert [k for k, _ in store.scan_prefix(b"x:")] == [b"x:1", b"x:2"]

    def test_non_bytes_rejected(self, store):
        with pytest.raises((StorageError, TypeError)):
            store.put("string", b"v")


class TestMemoryStore:
    def test_len(self):
        store = MemoryStore()
        store.put(b"a", b"1")
        store.put(b"a", b"2")
        store.put(b"b", b"1")
        assert len(store) == 2

    def test_delete_keeps_sorted_keys_consistent(self):
        store = MemoryStore()
        for key in [b"a", b"b", b"c"]:
            store.put(key, key)
        store.delete(b"b")
        assert [k for k, _ in store.scan()] == [b"a", b"c"]


class TestFileStorePersistence:
    def test_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with FileStore(path) as store:
            store.put(b"durable", b"yes")
            store.sync()
        with FileStore(path) as store:
            assert store.get(b"durable") == b"yes"

    def test_reopen_large_values(self, tmp_path):
        path = str(tmp_path / "big.db")
        with FileStore(path) as store:
            store.put(b"big", b"x" * 10_000)
        with FileStore(path) as store:
            assert store.get(b"big") == b"x" * 10_000


class TestCountedLock:
    def test_contended_lock_reports_waits(self, tmp_path):
        """CountedLock observability: a thread that actually blocks on the
        store's lock ticks concurrency.store_lock_waits in its own
        collection; the uncontended path records nothing."""
        import threading
        import time

        store = FileStore(str(tmp_path / "locked.db"))
        store.put(b"k", b"locked")
        store.commit()
        telemetry = Telemetry()
        entered = threading.Event()

        def blocked_reader():
            entered.wait()
            with collecting(telemetry):
                store.get(b"k")

        thread = threading.Thread(target=blocked_reader)
        raw_lock = store._lock._lock
        raw_lock.acquire()
        try:
            thread.start()
            entered.set()
            time.sleep(0.05)  # let the reader hit the held lock
        finally:
            raw_lock.release()
        thread.join()
        assert telemetry.counters.get("concurrency.store_lock_waits") == 1
        uncontended = Telemetry()
        with collecting(uncontended):
            store.get(b"k")
        assert "concurrency.store_lock_waits" not in uncontended.counters
        store.close()


class TestNamespace:
    def test_isolated_tables(self):
        backing = MemoryStore()
        first = Namespace(backing, b"one")
        second = Namespace(backing, b"two")
        first.put(b"k", b"1")
        second.put(b"k", b"2")
        assert first.get(b"k") == b"1"
        assert second.get(b"k") == b"2"

    def test_scan_within_namespace(self):
        backing = MemoryStore()
        table = Namespace(backing, b"t")
        other = Namespace(backing, b"u")
        table.put(b"a", b"1")
        table.put(b"b", b"2")
        other.put(b"c", b"3")
        assert [k for k, _ in table.scan()] == [b"a", b"b"]

    def test_scan_range_within_namespace(self):
        table = Namespace(MemoryStore(), b"t")
        for key in [b"a", b"b", b"c"]:
            table.put(key, key)
        assert [k for k, _ in table.scan(start=b"b")] == [b"b", b"c"]

    def test_nul_in_tag_rejected(self):
        with pytest.raises(StorageError):
            Namespace(MemoryStore(), b"bad\x00tag")

    def test_delete_through_namespace(self):
        table = Namespace(MemoryStore(), b"t")
        table.put(b"k", b"v")
        table.delete(b"k")
        assert not table.contains(b"k")


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.dictionaries(
        st.binary(min_size=0, max_size=16), st.binary(min_size=0, max_size=64), max_size=40
    )
)
def test_memory_store_scan_matches_sorted_dict(pairs):
    store = MemoryStore()
    for key, value in pairs.items():
        store.put(key, value)
    assert list(store.scan()) == sorted(pairs.items())
