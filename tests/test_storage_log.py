"""Durability and integrity of the record log behind ``FileStore``.

Each test states one behaviour of the store as a user sees it: what a
reopen returns after a crash, a torn write, a failed fsync or a damaged
byte.  The exhaustive kill-at-every-boundary sweep is
``tests/test_storage_faults.py::TestCrashMatrix``.
"""

import errno
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError, StorageError
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.kv import FileStore, verify_store
from repro.telemetry.collector import Telemetry, collecting


def _abandon(store):
    """Drop a store the way a killed process does: nothing is flushed."""
    store._file.close()


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.apxq")


def _committed(path, pairs):
    with FileStore(path) as store:
        for key, value in pairs:
            store.put(key, value)
        store.commit()


class TestCommit:
    def test_committed_writes_survive_a_kill(self, path):
        _committed(path, [(b"a", b"1")])
        store = FileStore(path)
        store.put(b"b", b"2")
        store.commit()
        _abandon(store)
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) == {b"a": b"1", b"b": b"2"}

    def test_uncommitted_batch_rolls_back(self, path):
        _committed(path, [(b"a", b"1")])
        store = FileStore(path)
        store.put(b"a", b"changed")
        store.put(b"b", b"2")
        store.delete(b"a")
        _abandon(store)
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) == {b"a": b"1"}

    def test_reads_see_pending_writes(self, path):
        with FileStore(path) as store:
            store.put(b"a", b"1")
            store.commit()
            store.put(b"b", b"2")
            store.delete(b"a")
            assert not store.contains(b"a")
            assert store.get(b"b") == b"2"
            assert list(store.scan()) == [(b"b", b"2")]

    def test_commit_without_writes_appends_nothing(self, path):
        _committed(path, [(b"a", b"1")])
        size = os.path.getsize(path)
        telemetry = Telemetry()
        with collecting(telemetry), FileStore(path) as store:
            store.commit()
        assert os.path.getsize(path) == size
        assert "wal.commits" not in telemetry.counters

    def test_each_commit_is_one_counted_frame(self, path):
        _committed(path, [(b"a", b"1")])
        telemetry = Telemetry()
        with collecting(telemetry), FileStore(path) as store:
            store.put(b"b", b"2")
            store.put(b"c", b"3")
            store.commit()
        assert telemetry.counters["wal.commits"] == 1
        assert telemetry.counters["wal.bytes_logged"] > 0
        assert verify_store(path).frames == 2

    def test_unknown_durability_rejected(self, path):
        with pytest.raises(StorageError, match="unknown durability"):
            FileStore(path, durability="sometimes")

    def test_both_durability_spellings_open_the_same_store(self, path):
        _committed(path, [(b"a", b"1")])
        for durability in ("none", "wal"):
            with FileStore(path, durability=durability) as store:
                assert store.get(b"a") == b"1"

    def test_wal_and_none_mode_reads_agree(self, tmp_path):
        pairs = [(b"key%04d" % i, bytes([i % 250 or 1]) * (i % 400)) for i in range(120)]
        paths = {mode: str(tmp_path / f"{mode}.apxq") for mode in ("wal", "none")}
        for mode, mode_path in paths.items():
            with FileStore(mode_path, durability=mode) as store:
                for key, value in pairs:
                    store.put(key, value)
                store.sync()
        with FileStore(paths["wal"], must_exist=True) as first:
            with FileStore(paths["none"], must_exist=True) as second:
                assert dict(first.scan()) == dict(second.scan()) == dict(pairs)
        with open(paths["wal"], "rb") as first, open(paths["none"], "rb") as second:
            assert first.read() == second.read()  # one mode, one file format

    def test_put_reads_back_before_and_after_commit(self, path):
        with FileStore(path) as store:
            store.put(b"key", b"value")
            assert store.get(b"key") == b"value"
            store.commit()
            assert store.get(b"key") == b"value"
        with FileStore(path) as reopened:
            assert reopened.get(b"key") == b"value"

    def test_last_committed_put_wins_after_reopen(self, path):
        with FileStore(path) as store:
            store.put(b"key", b"first")
            store.commit()
            store.put(b"key", b"second")
            store.commit()
            store.put(b"key", b"third")
            store.put(b"key", b"fourth")  # overwritten before its commit
            assert store.get(b"key") == b"fourth"
            store.commit()
        with FileStore(path) as reopened:
            assert reopened.get(b"key") == b"fourth"
            assert list(reopened.scan()) == [(b"key", b"fourth")]

    def test_committed_delete_survives_reopen(self, path):
        _committed(path, [(b"key", b"value"), (b"other", b"x")])
        store = FileStore(path)
        store.delete(b"key")
        assert not store.contains(b"key")
        store.commit()
        _abandon(store)
        with FileStore(path) as reopened:
            assert not reopened.contains(b"key")
            assert dict(reopened.scan()) == {b"other": b"x"}

    def test_sync_makes_pending_writes_survive_a_kill(self, path):
        _committed(path, [(b"a", b"1")])
        store = FileStore(path)
        store.put(b"synced", b"payload")
        store.sync()
        assert store.get(b"synced") == b"payload"
        _abandon(store)
        with FileStore(path) as reopened:
            assert reopened.get(b"synced") == b"payload"


class TestTornTail:
    def _torn(self, path):
        """A store whose last commit was killed halfway through its write."""
        _committed(path, [(b"a", b"1")])
        injector = FaultInjector(kill_after_ops=0)
        store = FileStore(path, opener=injector.opener())
        store.put(b"b", b"x" * 100)
        with pytest.raises(SimulatedCrash):
            store.commit()
        _abandon(store)

    def test_torn_tail_frame_is_discarded(self, path):
        self._torn(path)
        assert verify_store(path).torn_bytes > 0
        telemetry = Telemetry()
        with collecting(telemetry), FileStore(path) as store:
            assert dict(store.scan()) == {b"a": b"1"}
        assert telemetry.counters["wal.recoveries"] == 1

    def test_a_commit_after_reopening_survives_the_next_reopen(self, path):
        self._torn(path)
        store = FileStore(path)
        store.put(b"c", b"3")
        store.commit()
        _abandon(store)
        report = verify_store(path)
        assert report.ok and report.torn_bytes == 0
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) == {b"a": b"1", b"c": b"3"}

    def test_a_bad_checksum_at_the_end_is_a_torn_commit(self, path):
        _committed(path, [(b"a", b"1")])
        _committed(path, [(b"b", b"2")])
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\xff")
        with FileStore(path) as store:
            assert dict(store.scan()) == {b"a": b"1"}

    def test_a_torn_tail_is_not_a_verify_failure(self, path):
        self._torn(path)
        report = verify_store(path)
        assert report.ok
        assert "torn tail" in report.format()

    def test_reopen_replays_every_committed_frame(self, path):
        for index in range(3):
            _committed(path, [(b"batch %d" % index, b"value %d" % index)])
        injector = FaultInjector(kill_after_ops=0)
        store = FileStore(path, opener=injector.opener())
        store.put(b"batch 3", b"never committed")
        with pytest.raises(SimulatedCrash):
            store.commit()
        _abandon(store)
        report = verify_store(path)
        assert (report.frames, report.torn_bytes > 0) == (3, True)
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) == {b"batch %d" % i: b"value %d" % i for i in range(3)}

    def test_recovery_runs_in_none_mode_too(self, path):
        self._torn(path)
        telemetry = Telemetry()
        with collecting(telemetry), FileStore(path, durability="none") as store:
            assert dict(store.scan()) == {b"a": b"1"}
            store.put(b"c", b"3")
        assert telemetry.counters["wal.recoveries"] == 1
        assert verify_store(path).torn_bytes == 0
        with FileStore(path, durability="none") as reopened:
            assert dict(reopened.scan()) == {b"a": b"1", b"c": b"3"}


class TestCorruption:
    def test_flipped_byte_mid_file_raises_a_typed_error(self, path):
        _committed(path, [(b"a", b"v" * 200)])
        _committed(path, [(b"b", b"2")])
        with open(path, "r+b") as handle:
            handle.seek(100)  # inside the first frame's value
            handle.write(b"\x00")
        with pytest.raises(StorageError, match="corrupt frame") as caught:
            FileStore(path)
        assert path in str(caught.value)
        report = verify_store(path)
        assert not report.ok
        assert "FAIL" in report.format()

    def test_flipped_length_mid_file_raises_a_typed_error(self, path):
        _committed(path, [(b"a", b"1")])
        _committed(path, [(b"b", b"2")])
        with open(path, "r+b") as handle:
            handle.seek(8)  # the first frame's length field
            handle.write(struct.pack("<I", 1 << 30))
        with pytest.raises(StorageError, match="corrupt frame"):
            FileStore(path)

    def test_flipped_checksum_mid_file_raises_a_typed_error(self, path):
        _committed(path, [(b"a", b"payload")])
        _committed(path, [(b"b", b"2")])
        with open(path, "r+b") as handle:
            handle.seek(12)  # the first frame's checksum field
            handle.write(b"\xff\xff\xff")
        with pytest.raises(StorageError, match="corrupt frame") as caught:
            FileStore(path)
        assert path in str(caught.value)

    def test_damage_to_a_single_frame_store_is_corruption(self, path):
        """The first frame is written by a temp-file rename, so it is never
        a torn commit, even when it is also the last frame."""
        _committed(path, [(b"a", b"v" * 200)])
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        with pytest.raises(StorageError, match="corrupt frame at offset 8"):
            FileStore(path)
        with pytest.raises(StorageError, match="corrupt frame"):
            FileStore(path, must_exist=True).checkpoint()
        assert not verify_store(path).ok

    def test_a_bad_middle_frame_is_corruption(self, path):
        _committed(path, [(b"a", b"1")])
        _committed(path, [(b"b", b"v" * 200)])
        _committed(path, [(b"c", b"3")])
        with open(path, "r+b") as handle:
            handle.seek(-40, os.SEEK_END)  # inside the second frame's value
            handle.write(b"\x00")
        with pytest.raises(StorageError, match="corrupt frame"):
            FileStore(path)

    def test_a_header_without_a_frame_is_refused(self, path):
        _committed(path, [(b"a", b"1")])
        with open(path, "r+b") as handle:
            handle.truncate(8)
        with pytest.raises(StorageError, match="no frame after the header"):
            FileStore(path)

    def test_an_empty_store_is_written_as_one_empty_frame(self, path):
        FileStore(path).close()
        report = verify_store(path)
        assert (report.ok, report.frames, report.size) == (True, 1, 16)
        with FileStore(path) as store:
            store.put(b"a", b"1")
        with FileStore(path, must_exist=True) as reopened:
            assert dict(reopened.scan()) == {b"a": b"1"}

    def test_overwritten_magic_is_refused(self, path):
        _committed(path, [(b"a", b"1")])
        with open(path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        with pytest.raises(StorageError, match="bad magic") as caught:
            FileStore(path)
        assert path in str(caught.value)

    def test_foreign_header_is_refused_and_left_untouched(self, path):
        foreign = b"NOTAWAL!" + bytes(100)
        with open(path, "wb") as handle:
            handle.write(foreign)
        with pytest.raises(StorageError, match="bad magic"):
            FileStore(path)
        assert not verify_store(path).ok
        with open(path, "rb") as handle:
            assert handle.read() == foreign  # nothing was cut off as a torn tail

    def test_page_format_store_is_refused_by_name(self, path):
        with open(path, "wb") as handle:
            handle.write(b"APXQPG01" + bytes(4088))
        with pytest.raises(StorageError, match="page-format store") as caught:
            FileStore(path)
        assert path in str(caught.value)


class TestTypedOpenErrors:
    def test_missing_file_with_must_exist(self, path):
        with pytest.raises(StorageError, match="no such file") as caught:
            FileStore(path, must_exist=True)
        assert path in str(caught.value)

    def test_empty_file_with_must_exist(self, path):
        open(path, "wb").close()
        with pytest.raises(StorageError, match="file is empty") as caught:
            FileStore(path, must_exist=True)
        assert path in str(caught.value)

    def test_truncated_header_names_path_and_reason(self, path):
        with open(path, "wb") as handle:
            handle.write(b"APX")
        with pytest.raises(StorageError, match="truncated header") as caught:
            FileStore(path, must_exist=True)
        assert path in str(caught.value)

    def test_non_database_file_names_path(self, path):
        with open(path, "wb") as handle:
            handle.write(b"This is a text file, not a store at all.")
        with pytest.raises(StorageError, match="bad magic") as caught:
            FileStore(path)
        assert path in str(caught.value)

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        directory = tmp_path / "actually-a-dir"
        directory.mkdir()
        (directory / "page").write_bytes(b"x")
        with pytest.raises(StorageError, match="cannot open database file"):
            FileStore(str(directory))

    def test_failed_open_leaks_no_handle(self, path):
        with open(path, "wb") as handle:
            handle.write(b"short")
        with pytest.raises(StorageError):
            FileStore(path)
        os.replace(path, path + ".moved")

    def test_short_read_is_a_typed_error(self, path):
        _committed(path, [(b"a", b"v" * 500)])
        injector = FaultInjector(short_read_bytes=16)
        with pytest.raises(StorageError, match="short read"):
            FileStore(path, opener=injector.opener())

    def test_short_value_read_is_a_typed_error(self, path):
        _committed(path, [(b"a", b"v" * 500)])
        store = FileStore(path, opener=FaultInjector().opener())
        store._file._injector.short_read_bytes = 16
        with pytest.raises(StorageError, match="short read"):
            store.get(b"a")
        store.close()


class TestFsyncFailure:
    def test_eio_raises_poisons_and_refuses_later_writes(self, path):
        _committed(path, [(b"a", b"1")])
        injector = FaultInjector(fail_fsync=True)
        store = FileStore(path, opener=injector.opener())
        store.put(b"b", b"2")
        with pytest.raises(StorageError, match="commit failed") as caught:
            store.commit()
        assert isinstance(caught.value.__cause__, OSError)
        assert caught.value.__cause__.errno == errno.EIO
        with pytest.raises(StorageError, match="earlier write failed"):
            store.put(b"c", b"3")
        with pytest.raises(StorageError, match="earlier write failed"):
            store.commit()
        assert store.get(b"a") == b"1"
        store.close()  # does not try to write again
        store.close()

    def test_eio_in_checkpoint_raises_and_poisons(self, path):
        _committed(path, [(b"a", b"1")])
        store = FileStore(path, opener=FaultInjector(fail_fsync=True).opener())
        with pytest.raises(StorageError, match="checkpoint failed"):
            store.checkpoint()
        with pytest.raises(StorageError, match="earlier write failed"):
            store.put(b"b", b"2")
        store.close()
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) == {b"a": b"1"}

    def test_close_after_failed_sync_does_not_reraise(self, path):
        _committed(path, [(b"a", b"1")])
        store = FileStore(path, opener=FaultInjector(fail_fsync=True).opener())
        store.put(b"b", b"payload")
        with pytest.raises(StorageError, match="commit failed"):
            store.sync()
        store.close()  # the error was surfaced once; close does not retry
        store.close()
        assert verify_store(path).ok
        with FileStore(path) as reopened:  # the failed frame may or may not have landed
            assert reopened.get(b"a") == b"1"


class TestCheckpoint:
    def test_checkpoint_writes_one_frame_of_the_live_records(self, path):
        with FileStore(path) as store:
            for round_ in range(5):
                store.put(b"k", b"%d" % round_ * 50)
                store.put(b"gone", b"x")
                store.commit()
                store.delete(b"gone")
                store.commit()
            before = os.path.getsize(path)
            store.checkpoint()
            assert os.path.getsize(path) < before
            assert store.get(b"k") == b"4" * 50
        report = verify_store(path)
        assert (report.frames, report.live_keys) == (1, 1)

    @pytest.mark.parametrize("boundary", [0, 1, 2])
    def test_a_kill_inside_checkpoint_reopens_old_or_new(self, path, boundary):
        _committed(path, [(b"a", b"1"), (b"b", b"2")])
        injector = FaultInjector(kill_after_ops=boundary)
        store = FileStore(path, opener=injector.opener())
        store.delete(b"b")
        with pytest.raises(SimulatedCrash):
            store.checkpoint()
        _abandon(store)
        with FileStore(path) as reopened:
            assert dict(reopened.scan()) in ({b"a": b"1", b"b": b"2"}, {b"a": b"1"})
        assert verify_store(path).ok

    def test_close_compacts_only_when_dead_bytes_dominate(self, path):
        with FileStore(path) as store:
            store.put(b"big", b"v" * 1000)
            store.commit()
            store.put(b"small", b"s")
        assert verify_store(path).frames == 2  # nothing superseded
        with FileStore(path) as store:
            store.put(b"big", b"w" * 1000)
            store.commit()
            store.put(b"big", b"z" * 1000)
        assert verify_store(path).frames == 1  # most bytes were dead

    def test_fresh_store_replaces_the_file_at_its_first_commit(self, path):
        _committed(path, [(b"old", b"1")])
        with FileStore(path, fresh=True) as store:
            assert not store.contains(b"old")
            store.put(b"new", b"2")
            with FileStore(path) as other:  # nothing written yet
                assert other.get(b"old") == b"1"
        with FileStore(path) as store:
            assert dict(store.scan()) == {b"new": b"2"}


class TestLifecycle:
    def test_close_is_idempotent(self, path):
        store = FileStore(path)
        store.put(b"a", b"1")
        store.close()
        store.close()
        with FileStore(path) as reopened:
            assert reopened.get(b"a") == b"1"

    def test_use_after_close_rejected(self, path):
        store = FileStore(path)
        store.close()
        with pytest.raises(StorageError, match="closed"):
            store.get(b"a")
        with pytest.raises(StorageError, match="closed"):
            store.put(b"a", b"1")

    def test_delete_missing_raises(self, path):
        with FileStore(path) as store:
            store.put(b"a", b"1")
            store.commit()
            store.delete(b"a")
            with pytest.raises(KeyNotFoundError):
                store.delete(b"a")

    def test_empty_key_and_value(self, path):
        with FileStore(path) as store:
            store.put(b"", b"")
        with FileStore(path) as store:
            assert store.get(b"") == b""

    def test_get_missing_raises(self, path):
        with FileStore(path) as store:
            with pytest.raises(KeyNotFoundError):
                store.get(b"absent")
            store.put(b"gone", b"1")
            store.commit()
            store.delete(b"gone")
            with pytest.raises(KeyNotFoundError):
                store.get(b"gone")
        with FileStore(path) as reopened:
            with pytest.raises(KeyNotFoundError):
                reopened.get(b"gone")

    def test_contains_sees_committed_and_pending_keys(self, path):
        _committed(path, [(b"present", b"x")])
        with FileStore(path) as store:
            store.put(b"pending", b"y")
            assert store.contains(b"present")
            assert store.contains(b"pending")
            assert not store.contains(b"absent")

    def test_large_value_roundtrip(self, path):
        value = bytes(range(256)) * 64  # 16 KiB
        with FileStore(path) as store:
            store.put(b"big", value)
            store.put(b"small", b"s")
            store.commit()
            assert store.get(b"big") == value
        with FileStore(path) as reopened:
            assert reopened.get(b"big") == value
            assert reopened.get(b"small") == b"s"

    def test_reopen_reads_back_a_hundred_keys(self, path):
        with FileStore(path) as store:
            for index in range(100):
                store.put(b"k%03d" % index, b"v%d" % index)
                if index % 10 == 9:
                    store.commit()
        with FileStore(path, must_exist=True) as reopened:
            assert reopened.get(b"k042") == b"v42"
            assert len(list(reopened.scan())) == 100

    def test_close_commits_pending_writes(self, path):
        store = FileStore(path)
        store.put(b"durable", b"payload")
        store.close()
        with FileStore(path) as reopened:
            assert reopened.get(b"durable") == b"payload"

    def test_roundtrip_and_clean_close(self, path):
        with FileStore(path, durability="wal") as store:
            for index in range(50):
                store.put(b"k%03d" % index, bytes([index]) * 64)
            store.sync()
        report = verify_store(path)
        assert report.ok and report.torn_bytes == 0
        with FileStore(path, must_exist=True) as store:
            assert store.get(b"k007") == bytes([7]) * 64
            assert len(dict(store.scan())) == 50

    def test_double_close_with_wal_durability_is_noop(self, path):
        store = FileStore(path, durability="wal")
        store.put(b"a", b"1")
        store.close()
        size = os.path.getsize(path)
        store.close()
        assert os.path.getsize(path) == size
        with FileStore(path, durability="wal") as reopened:
            assert reopened.get(b"a") == b"1"


class TestScans:
    def test_scan_is_in_key_order_across_frames(self, path):
        keys = [b"%04d" % index for index in range(50)]
        with FileStore(path) as store:
            for key in reversed(keys):
                store.put(key, key)
                store.commit()  # the log holds the keys in reverse order
        with FileStore(path) as reopened:
            reopened.put(b"0025x", b"pending")
            assert [key for key, _ in reopened.scan()] == sorted(keys + [b"0025x"])

    def test_scan_range_over_committed_and_pending(self, path):
        _committed(path, [(b"%02d" % index, b"v") for index in range(20)])
        with FileStore(path) as store:
            store.delete(b"07")
            store.put(b"08x", b"pending")
            keys = [key for key, _ in store.scan(start=b"05", end=b"10")]
        assert keys == [b"05", b"06", b"08", b"08x", b"09"]

    def test_scan_prefix_after_reopen(self, path):
        _committed(path, [(b"a:1", b"x"), (b"b:1", b"z")])
        _committed(path, [(b"a:2", b"y")])
        with FileStore(path) as store:
            store.put(b"a:3", b"w")
            assert [key for key, _ in store.scan_prefix(b"a:")] == [b"a:1", b"a:2", b"a:3"]


class TestVerify:
    def test_clean_store_verifies(self, path):
        _committed(path, [(b"a", b"1"), (b"b", b"2")])
        _committed(path, [(b"a", b"3")])
        report = verify_store(path)
        assert report.ok
        assert (report.frames, report.records, report.live_keys) == (2, 3, 2)
        assert "result: ok" in report.format()

    def test_non_database_fails_header_check(self, path):
        with open(path, "wb") as handle:
            handle.write(b"not a store")
        report = verify_store(path)
        assert not report.ok
        assert "bad magic" in report.format()

    def test_missing_file_raises_typed_error(self, path):
        with pytest.raises(StorageError, match="cannot verify"):
            verify_store(path)

    def test_verify_stops_at_a_corrupt_frame(self, path):
        _committed(path, [(b"a", b"v" * 50)])
        _committed(path, [(b"b", b"2")])
        with open(path, "r+b") as handle:
            handle.seek(40)  # inside the first frame's value
            handle.write(b"\xff\xff")
        report = verify_store(path)
        assert not report.ok
        assert (report.frames, report.live_keys) == (0, 0)  # no frame past the damage counts
        assert "corrupt frame at offset 8" in report.format()


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.sampled_from(b"abcdef"), st.none() | st.binary(max_size=40)),
            max_size=6,
        ),
        min_size=1,
        max_size=6,
    ),
    reopen_every=st.integers(min_value=1, max_value=3),
)
def test_file_store_matches_dict_model(tmp_path_factory, batches, reopen_every):
    """Puts and deletes committed in batches, with reopens and a final
    checkpoint in between, read back exactly what a dict holds."""
    path = str(tmp_path_factory.mktemp("model") / "model.apxq")
    model: dict = {}
    store = FileStore(path)
    for number, batch in enumerate(batches, 1):
        for key_byte, value in batch:
            key = bytes([key_byte])
            if value is None:
                if key in model:
                    store.delete(key)
                    del model[key]
            else:
                store.put(key, value)
                model[key] = value
        store.commit()
        if number % reopen_every == 0:
            store.close()
            store = FileStore(path, must_exist=True)
        assert dict(store.scan()) == model
    store.checkpoint()
    store.close()
    with FileStore(path, must_exist=True) as reopened:
        assert dict(reopened.scan()) == model


@settings(max_examples=30, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get", "commit"]),
            st.binary(max_size=20),
            st.binary(max_size=200),
        ),
        max_size=120,
    )
)
def test_random_operations_match_a_dict(tmp_path_factory, operations):
    """Random puts, deletes, gets and commits over arbitrary binary keys
    behave exactly like a dict, before and after a reopen."""
    path = str(tmp_path_factory.mktemp("ops-model") / "model.apxq")
    model: dict = {}
    with FileStore(path) as store:
        for op, key, value in operations:
            if op == "put":
                store.put(key, value)
                model[key] = value
            elif op == "delete":
                if key in model:
                    store.delete(key)
                    del model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        store.delete(key)
            elif op == "get":
                if key in model:
                    assert store.get(key) == model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        store.get(key)
            else:
                store.commit()
        assert list(store.scan()) == sorted(model.items())
    with FileStore(path) as reopened:
        assert list(reopened.scan()) == sorted(model.items())


def test_concurrent_readers_see_whole_values_while_a_writer_commits(path):
    """Readers racing a committing writer only ever see a complete value
    that was written (a `get`'s seek and read never interleave with an
    append), and every commit survives the reopen."""
    import sys
    import threading

    values = [bytes([n % 250 + 1]) * (100 + n) for n in range(200)]
    _committed(path, [(b"k", values[0])])
    store = FileStore(path)
    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            value = store.get(b"k")
            if value not in values:
                torn.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for number, value in enumerate(values[1:], 1):
            store.put(b"k", value)
            store.put(b"n%03d" % number, b"x")
            store.commit()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not torn
    store.close()
    with FileStore(path) as reopened:
        assert reopened.get(b"k") == values[-1]
        assert len(list(reopened.scan_prefix(b"n"))) == len(values) - 1
