"""The typed-column layout, pinned as properties rather than numbers:
what opening a store allocates per node, that no per-node container is
left behind for the garbage collector to walk, that a pinned reader is
undisturbed while the columns grow, and that ``describe()`` accounts for
the bytes from outside."""

import gc
import tracemalloc

import pytest

from repro import Database
from repro.core.memory import STRUCTURES
from repro.datagen import GeneratorConfig, generate_collection

CONFIG = GeneratorConfig(
    num_elements=2_000,
    num_element_names=40,
    num_terms=600,
    num_term_occurrences=18_000,
    mode="dtd",
    dtd_size=40,
    seed=11,
)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("layout") / "generated.apxq")
    Database.from_tree(generate_collection(CONFIG).tree).save(path)
    # once, unmeasured: imports and caches that the first open fills
    Database.open(path).close()
    return path


def test_open_allocates_a_bounded_number_of_bytes_per_node(store_path):
    gc.collect()
    tracemalloc.start()
    try:
        database = Database.open(store_path, page_cache_pages=0, posting_cache_bytes=0)
        gc.collect()
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = database.node_count
    assert 15_000 < nodes < 30_000
    # tree (8 columns) + schema (class_of, instance and term columns) come
    # to about 85 bytes per node; boxed values and tuples were about 420
    assert allocated / nodes <= 160
    database.close()


def test_open_leaves_no_per_node_container(store_path):
    gc.collect()
    before = len(gc.get_objects())
    database = Database.open(store_path)
    gc.collect()
    grown = len(gc.get_objects()) - before
    schema = database.schema
    labels = len(set(database.tree.labels))
    # GC-tracked objects grow with the classes and the distinct labels
    # (posting objects, per-term class lists), never with the nodes
    assert grown <= 4 * (len(schema) + labels) + 500
    assert grown < database.node_count // 10
    database.close()


def test_pinned_reader_is_undisturbed_while_the_columns_grow(store_path):
    """No buffer of the tree is exported across a graft: ``array.append``
    raises ``BufferError`` under a live ``memoryview``, and a reader
    pinned before the insert keeps its node count and its answers."""
    with Database.open(store_path) as database:
        root_label = database.tree.label(database.documents()[0])
        with database.snapshot() as reader:
            pinned_nodes = reader.node_count
            pinned_answer = [(r.root, r.cost) for r in reader.query(root_label, n=None)]
            for _ in range(3):
                report = database.insert_document(f"<{root_label}><e1>t1 t2</e1></{root_label}>")
                assert report.nodes_added == 4
                assert reader.node_count == pinned_nodes
                assert [(r.root, r.cost) for r in reader.query(root_label, n=None)] == pinned_answer
            assert database.node_count == pinned_nodes + 12
            assert len(database.query(root_label, n=None)) == len(pinned_answer) + 3


def test_in_memory_reader_survives_grafts_too():
    database = Database.from_xml("<cd><title>piano</title></cd>")
    with database.snapshot() as reader:
        before = [(r.root, r.cost) for r in reader.query("cd", n=None)]
        database.insert_document("<cd><title>cello</title></cd>")
        assert reader.node_count == 4
        assert [(r.root, r.cost) for r in reader.query("cd", n=None)] == before
    assert len(database.query("cd", n=None)) == 2


def test_describe_accounts_for_every_structure(store_path):
    with Database.open(store_path) as database:
        database.query(database.tree.label(database.documents()[0]), n=5)
        usage = database.resident_bytes()
        assert tuple(usage) == STRUCTURES
        nodes = database.node_count
        # eight columns: 4 x int64, 2 x float64, 1 type byte, 1 label pointer
        assert 57 * nodes <= usage["tree columns"] <= 58 * nodes + 200
        assert usage["label table"] < usage["tree columns"] // 4
        # class_of, then each node once as a (pre, bound) row — a text
        # node only in its class's per-term split — plus the term offsets
        offsets = sum(len(terms.offsets) for terms in database.schema.term_instances.values())
        assert usage["schema instance columns"] == 8 * nodes + 16 * nodes + 8 * offsets
        assert usage["node-index pre lists"] == 0  # postings live in the store
        assert usage["page cache"] > 0
        line = database.describe().splitlines()[1]
        for name in STRUCTURES:
            assert f"{name} {usage[name]:,}" in line
    memory = Database.from_tree(generate_collection(CONFIG).tree)
    memory.query("e1", n=5, method="direct")
    usage = memory.resident_bytes()
    assert usage["node-index pre lists"] == 8 * memory.node_count
    assert usage["schema instance columns"] == 0  # direct evaluation builds no schema
    assert usage["page cache"] == usage["posting cache"] == 0
