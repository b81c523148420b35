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
        # 1: a store that still carries I_sec and the statistics segment
        # is refused, not migrated
        for version in (1, FORMAT_VERSION + 9):
            meta.put(b"version", struct.pack("<I", version))
            message = f"unsupported database format version {version}"
            with pytest.raises(StorageError, match=message):
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


class TestDamagedTreeNamespace:
    """A damaged tree namespace is reported as a typed error naming the
    reason — never a bare ``KeyError``/``ValueError``/``IndexError``."""

    XML = "<cd><title>piano concerto</title><composer>bach</composer></cd>"

    def saved(self):
        store = MemoryStore()
        tree = tree_from_xml(self.XML)
        save_tree(tree, store, CostModel())
        return store, Namespace(store, b"tree"), tree

    @pytest.mark.parametrize("column", ["labels", "types", "parents", "bounds"])
    def test_missing_column_is_a_storage_error_naming_it(self, column):
        store, columns, _ = self.saved()
        columns.delete(column.encode())
        with pytest.raises(StorageError, match=f"tree column '{column}' is missing") as caught:
            load_tree(store)
        assert not isinstance(caught.value, KeyError)

    @pytest.mark.parametrize("key", ["insertcosts", "insertfp"])
    def test_missing_cost_metadata_is_a_storage_error(self, key):
        store, _, _ = self.saved()
        Namespace(store, b"meta").delete(key.encode())
        with pytest.raises(StorageError, match=f"'{key}' is missing") as caught:
            load_tree(store)
        assert not isinstance(caught.value, KeyError)

    def test_bad_type_byte_is_a_storage_error(self):
        store, columns, tree = self.saved()
        types = bytearray(tree.types)
        types[2] = 7
        columns.put(b"types", bytes(types))
        with pytest.raises(StorageError, match="not a node type"):
            load_tree(store)

    def test_undecodable_labels_are_a_storage_error(self):
        store, columns, _ = self.saved()
        columns.put(b"labels", b"\xff\xfe")
        with pytest.raises(StorageError, match="labels column"):
            load_tree(store)

    def test_bad_type_byte_in_a_segment(self, tmp_path):
        path = str(tmp_path / "db.apxq")
        Database.from_xml(self.XML).save(path)
        with Database.open(path) as db:
            start = db.node_count
            db.insert_document("<cd><title>cello</title></cd>")
        with FileStore(path) as store:
            columns = Namespace(store, b"tree")
            key = b"seg%016d" % start
            value = bytearray(columns.get(key))
            # the types blob follows the labels blob; both are length-prefixed
            (labels_length,) = struct.unpack_from("<I", value, 0)
            value[4 + labels_length + 4] = 9
            columns.put(key, bytes(value))
            store.sync()
        with pytest.raises(StorageError, match="tree segment .*not a node type"):
            Database.open(path)

    @pytest.mark.parametrize(
        "column, values",
        [
            ("parents", [0, 1, 6, 3, 3, 2, 6]),  # shifted by one: node 2 -> parent 5
            ("parents", [0, 1, 2, 3, 4, 2, 6]),  # a child under a text node
            ("bounds", [6, 6, 4, 3, 9, 6, 6]),  # a bound past the last node
            ("bounds", [6, 6, 2, 3, 4, 6, 6]),  # a child outside its parent
        ],
    )
    def test_bulk_checks_reject_inconsistent_columns(self, column, values):
        from repro.storage.varint import encode_delta_list

        store, columns, tree = self.saved()
        assert len(values) == len(tree)
        columns.put(column.encode(), encode_delta_list(values))
        with pytest.raises(ReproError):
            load_tree(store)

    def test_every_tree_the_builder_makes_reloads(self):
        store, _, tree = self.saved()
        loaded, _, _ = load_tree(store)
        for name in ("labels", "types", "parents", "bounds", "inscosts", "pathcosts",
                     "_first_child", "_next_sibling"):
            assert getattr(loaded, name) == getattr(tree, name), name
