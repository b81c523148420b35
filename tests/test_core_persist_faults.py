"""Fault injection for the persistence layer."""

import struct

import pytest

from repro import Database
from repro.errors import ReproError, StorageError
from repro.storage.kv import FileStore, MemoryStore, Namespace
from repro.core.persist import FORMAT_VERSION, load_tree, save_tree
from repro.approxql.costs import CostModel
from repro.xmltree.builder import tree_from_xml

#: the key of the segment a save writes: the whole tree, from pre 0
SAVED_SEGMENT = b"seg%016d" % 0
COLUMN_INDEX = {"labels": 0, "types": 1, "parents": 2, "bounds": 3}


def segment_columns(value: bytes) -> list[bytes]:
    """The four length-prefixed column blobs of one tree segment."""
    blobs, offset = [], 0
    while offset < len(value):
        (length,) = struct.unpack_from("<I", value, offset)
        blobs.append(value[offset + 4 : offset + 4 + length])
        offset += 4 + length
    return blobs


def with_column(store, column: str, blob: bytes) -> None:
    """Replace one column of the saved segment in ``store``."""
    columns = Namespace(store, b"tree")
    blobs = segment_columns(columns.get(SAVED_SEGMENT))
    blobs[COLUMN_INDEX[column]] = blob
    columns.put(SAVED_SEGMENT, b"".join(struct.pack("<I", len(b)) + b for b in blobs))


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

        # flip a byte inside the saved frame: its checksum trips, so the
        # damage is detected, never silently decoded
        size = os.path.getsize(saved_db)
        with open(saved_db, "r+b") as handle:
            handle.seek(size // 2)
            original = handle.read(1)
            handle.seek(size // 2)
            handle.write(bytes([original[0] ^ 0xFF]))
        with pytest.raises(StorageError, match="corrupt frame"):
            Database.open(saved_db)

    def test_wrong_version_rejected(self, tmp_path):
        store = MemoryStore()
        tree = tree_from_xml("<a>x</a>")
        save_tree(tree, store, CostModel())
        meta = Namespace(store, b"meta")
        # 1: a store that still carries I_sec and the statistics segment,
        # 2: one that still carries the I_struct / I_text node postings,
        # 3: one that stores the saved tree as four column keys;
        # all are refused, not migrated
        for version in (1, 2, 3, FORMAT_VERSION + 9):
            meta.put(b"version", struct.pack("<I", version))
            message = f"unsupported database format version {version}"
            with pytest.raises(StorageError, match=message):
                load_tree(store)

    def test_page_format_store_rejected(self, tmp_path):
        """A store written by the paged B+tree engine (magic APXQPG01)
        is refused with a typed error naming the path, not misread."""
        path = str(tmp_path / "paged.apxq")
        with open(path, "wb") as handle:
            handle.write(struct.pack("<8sIIQ", b"APXQPG01", 4096, 2, 0).ljust(8192, b"\0"))
        with pytest.raises(StorageError, match="page-format store") as caught:
            Database.open(path)
        assert path in str(caught.value)

    def test_inconsistent_columns_rejected(self):
        store = MemoryStore()
        tree = tree_from_xml("<a>x</a>")
        save_tree(tree, store, CostModel())
        with_column(store, "types", b"\x00")  # wrong length
        with pytest.raises(StorageError, match="inconsistent column lengths"):
            load_tree(store)

    def test_label_with_separator_rejected(self):
        from repro.xmltree.model import TreeBuilder

        builder = TreeBuilder()
        builder.start_struct("bad\x00label")
        builder.end_struct()
        tree = builder.finish()
        with pytest.raises(StorageError):
            save_tree(tree, MemoryStore(), CostModel())


class TestSaveOverAnExistingStore:
    def test_save_replaces_the_old_store(self, saved_db):
        Database.from_xml("<lp><title>organ</title></lp>").save(saved_db)
        with Database.open(saved_db) as loaded:
            assert len(loaded.query('lp[title["organ"]]', n=None)) == 1
            assert not loaded.query("cd", n=None)

    def test_a_failing_encode_leaves_the_old_store(self, saved_db, monkeypatch):
        from repro.core import database as database_module

        def failing_save_tree(*args, **kwargs):
            raise RuntimeError("interrupted while encoding")

        monkeypatch.setattr(database_module, "save_tree", failing_save_tree)
        with pytest.raises(RuntimeError, match="interrupted"):
            Database.from_xml("<lp><title>organ</title></lp>").save(saved_db)
        with Database.open(saved_db) as loaded:
            assert len(loaded.query('cd[title["piano"]]', n=None)) == 1

    def test_an_unencodable_label_leaves_the_old_store(self, saved_db):
        from repro.xmltree.model import TreeBuilder

        builder = TreeBuilder()
        builder.start_struct("bad\x00label")
        builder.end_struct()
        with pytest.raises(StorageError, match="column separator"):
            Database.from_tree(builder.finish()).save(saved_db)
        with Database.open(saved_db) as loaded:
            assert len(loaded.query('cd[title["piano"]]', n=None)) == 1


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

    def test_saved_store_holds_no_node_postings(self, tmp_path):
        """Only the tree and its metadata are stored — no I_struct /
        I_text key, neither after save nor after a write."""
        path = str(tmp_path / "tree-only.apxq")
        Database.from_xml("<cd><title>piano</title></cd>").save(path)
        with Database.open(path) as loaded:
            loaded.insert_document("<cd><title>organ</title></cd>")
            loaded.delete_document(loaded.documents()[0])
        with FileStore(path) as store:
            namespaces = {key.split(b"\x00", 1)[0] for key, _ in store.scan()}
        assert namespaces == {b"meta", b"tree"}

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
        value = columns.get(SAVED_SEGMENT)
        blobs = segment_columns(value)
        cut = sum(4 + len(blob) for blob in blobs[: COLUMN_INDEX[column]])
        columns.put(SAVED_SEGMENT, value[:cut])  # the segment ends before the column
        with pytest.raises(StorageError, match=f"tree column '{column}' is missing") as caught:
            load_tree(store)
        assert not isinstance(caught.value, KeyError)

    def test_truncated_column_is_a_storage_error_naming_it(self):
        store, columns, _ = self.saved()
        value = columns.get(SAVED_SEGMENT)
        columns.put(SAVED_SEGMENT, value[:-1])  # the bounds column lost a byte
        with pytest.raises(StorageError, match="tree column 'bounds' is truncated"):
            load_tree(store)

    def test_missing_saved_segment_is_a_storage_error(self):
        store, columns, _ = self.saved()
        columns.delete(SAVED_SEGMENT)
        with pytest.raises(StorageError, match="tree segment at 0 is missing"):
            load_tree(store)

    @pytest.mark.parametrize("key", ["insertcosts"])
    def test_missing_cost_metadata_is_a_storage_error(self, key):
        store, _, _ = self.saved()
        Namespace(store, b"meta").delete(key.encode())
        with pytest.raises(StorageError, match=f"'{key}' is missing") as caught:
            load_tree(store)
        assert not isinstance(caught.value, KeyError)

    def test_bad_type_byte_is_a_storage_error(self):
        store, _, tree = self.saved()
        types = bytearray(tree.types)
        types[2] = 7
        with_column(store, "types", bytes(types))
        with pytest.raises(StorageError, match="not a node type"):
            load_tree(store)

    def test_undecodable_labels_are_a_storage_error(self):
        store, _, _ = self.saved()
        with_column(store, "labels", b"\xff\xfe")
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

        store, _, tree = self.saved()
        assert len(values) == len(tree)
        with_column(store, column, encode_delta_list(values))
        with pytest.raises(ReproError):
            load_tree(store)

    def test_every_tree_the_builder_makes_reloads(self):
        store, _, tree = self.saved()
        loaded, _ = load_tree(store)
        for name in ("labels", "types", "parents", "bounds", "inscosts", "pathcosts",
                     "_first_child", "_next_sibling"):
            assert getattr(loaded, name) == getattr(tree, name), name
