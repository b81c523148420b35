"""Fault injection for the persistence layer."""

import struct

import pytest

from repro import Database
from repro.errors import ReproError, StorageError
from repro.storage.kv import FileStore, MemoryStore, Namespace
from repro.core.persist import FORMAT_VERSION, load_tree, save_tree
from repro.approxql.costs import CostModel
from repro.xmltree.builder import tree_from_xml


@pytest.fixture
def saved_db(tmp_path):
    db = Database.from_xml("<cd><title>piano</title></cd>")
    path = str(tmp_path / "db.apxq")
    db.save(path)
    return path


class TestCorruption:
    def test_truncated_file(self, saved_db):
        with open(saved_db, "r+b") as handle:
            handle.truncate(100)
        with pytest.raises(ReproError):
            Database.open(saved_db)

    def test_flipped_bytes_detected(self, saved_db):
        import os

        # flip a byte inside every page, so whatever the load path reads
        # first trips a checksum — corruption is detected, never silently
        # decoded
        size = os.path.getsize(saved_db)
        with open(saved_db, "r+b") as handle:
            for offset in range(2000, size, 4096):
                handle.seek(offset)
                original = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([original[0] ^ 0xFF]))
        with pytest.raises(ReproError):
            loaded = Database.open(saved_db)
            loaded.query("cd", n=None)
            loaded.query('cd[title["piano"]]', n=None)

    def test_wrong_version_rejected(self, tmp_path):
        store = MemoryStore()
        tree = tree_from_xml("<a>x</a>")
        save_tree(tree, store, CostModel())
        meta = Namespace(store, b"meta")
        meta.put(b"version", struct.pack("<I", FORMAT_VERSION + 9))
        with pytest.raises(StorageError):
            load_tree(store)

    def test_inconsistent_columns_rejected(self):
        store = MemoryStore()
        tree = tree_from_xml("<a>x</a>")
        save_tree(tree, store, CostModel())
        columns = Namespace(store, b"tree")
        columns.put(b"types", b"\x00")  # wrong length
        with pytest.raises(StorageError):
            load_tree(store)

    def test_label_with_separator_rejected(self):
        from repro.xmltree.model import TreeBuilder

        builder = TreeBuilder()
        builder.start_struct("bad\x00label")
        builder.end_struct()
        tree = builder.finish()
        with pytest.raises(StorageError):
            save_tree(tree, MemoryStore(), CostModel())


class TestRoundTripFidelity:
    def test_insert_cost_table_restored(self, tmp_path):
        costs = CostModel(default_insert_cost=2)
        costs.set_insert_cost("wrapper", 5)
        db = Database.from_xml("<a><wrapper><b>x</b></wrapper></a>", default_costs=costs)
        path = str(tmp_path / "weighted.apxq")
        db.save(path)
        loaded = Database.open(path)
        results = loaded.query('a[b["x"]]', n=None)
        assert [r.cost for r in results] == [5.0]

    def test_load_twice(self, saved_db):
        first = Database.open(saved_db)
        second = Database.open(saved_db)
        assert first.query("cd", n=None) == second.query("cd", n=None)

    def test_file_size_reasonable(self, saved_db):
        import os

        # a 10-node collection must not produce a megabyte file
        assert os.path.getsize(saved_db) < 256 * 1024
