"""Snapshot reads: generation-pinned views under concurrent mutation.

A :meth:`Database.snapshot` must keep answering against its pinned
generation no matter what insert/delete/replace traffic lands after the
pin.  Memory and stored databases pin the same thing, the generation's
immutable engine state, whose node index a writer evolves copy-on-write
and never changes; no read touches the store.  Includes the
writer-vs-reader stress required by the mutation acceptance: a snapshot
reader verifying pinned answers while a writer thread mutates, with the
final state checked against a rebuild.
"""

import os
import random
import sys
import threading

import pytest

from repro.core import database as database_module
from repro.core.database import Database
from repro.errors import EvaluationError
from repro.xmltree.indexes import MemoryNodeIndexes
from repro.xmltree.model import ROOT_LABEL, NodeType
from repro.xmltree.serialize import subtree_to_xml

from .strategies import generated_case, random_query
from .test_mutation_oracle import (
    answer,
    apply_mutation,
    check_equivalent,
    random_document_xml,
    random_mutation,
)

DOCS = [
    "<cd><title>disc one</title><artist>ann</artist></cd>",
    "<cd><title>disc two</title><artist>bob</artist></cd>",
    "<cd><title>disc three</title><artist>ann</artist></cd>",
]
NEW_DOC = "<cd><title>piano works</title><genre>classical</genre></cd>"


def _pairs(results):
    return sorted((r.cost, r.xml()) for r in results)


@pytest.fixture(params=["memory", "stored"])
def database(request, tmp_path):
    if request.param == "memory":
        yield Database.from_documents(DOCS)
        return
    path = os.path.join(tmp_path, "snap.apxq")
    Database.from_documents(DOCS).save(path, durability="wal")
    db = Database.open(path, durability="wal")
    yield db
    db._store.close()


class TestPinSemantics:
    def test_snapshot_survives_insert(self, database):
        before = _pairs(database.query("cd[title]", n=None))
        with database.snapshot() as snap:
            database.insert_document(NEW_DOC)
            assert snap.generation == 0
            assert database.generation == 1
            assert _pairs(snap.query("cd[title]", n=None)) == before
            assert len(database.query("cd[title]", n=None)) == 4
            assert len(snap.documents) == 3
            assert len(database.documents()) == 4

    def test_snapshot_survives_delete_and_replace(self, database):
        with database.snapshot() as snap:
            expected_artist = _pairs(snap.query("cd[artist]", n=None))
            database.delete_document(database.documents()[0])
            database.replace_document(database.documents()[0], NEW_DOC)
            assert _pairs(snap.query("cd[artist]", n=None)) == expected_artist
            assert snap.count_results("cd[title]") == 3
            assert database.count_results("cd[title]") == 2

    def test_snapshot_pins_schema_renumbering(self, database):
        # NEW_DOC introduces a 'genre' class: the schema is rebuilt and
        # renumbers; the pinned reader keeps its own schema and sees none of it
        with database.snapshot() as snap:
            report = database.insert_document(NEW_DOC)
            assert report.schema_renumbered
            assert snap.query("cd[genre]", n=None, method="schema") == []
            assert _pairs(snap.query("cd[title]", n=None, method="schema")) == _pairs(
                snap.query("cd[title]", n=None, method="direct")
            )

    def test_two_snapshots_pin_different_generations(self, database):
        first = database.snapshot()
        database.insert_document(NEW_DOC)
        second = database.snapshot()
        try:
            assert (first.generation, second.generation) == (0, 1)
            assert first.count_results("cd[title]") == 3
            assert second.count_results("cd[title]") == 4
        finally:
            first.close()
            second.close()

    def test_snapshot_methods_match_database_when_idle(self, database):
        # one result-cache entry serves both methods: each must evaluate
        database.set_query_cache(result_entries=0)
        with database.snapshot() as snap:
            for method in ("direct", "schema"):
                assert _pairs(snap.query("cd[title]", n=None, method=method)) == _pairs(
                    database.query("cd[title]", n=None, method=method)
                )
            assert snap.count_results("cd[artist]") == database.count_results("cd[artist]")
            assert [e.format() for e in snap.explain("cd[title]")] == [
                e.format() for e in database.explain("cd[title]")
            ]
            assert snap.plan("cd[title]").method == database.plan("cd[title]").method

    def test_snapshot_plans_on_its_pinned_generation(self, database):
        with database.snapshot() as snap:
            database.insert_document(NEW_DOC)
            plan = snap.plan("cd[title]", n=2)
            ran = snap.query("cd[title]", n=2, collect="counters")
            assert plan.method == ran.report.method
            assert plan.estimates.stats_generation == snap.generation == 0
            assert plan.estimates.candidate_roots == 3
            assert ran.report.get("planner.predicted_candidates") == 3
            assert database.plan("cd[title]", n=2).estimates.candidate_roots == 4

    def test_snapshot_stream_keeps_pin_across_mutations(self, database):
        with database.snapshot() as snap:
            expected = _pairs(snap.query("cd[title]", n=None))
            stream = snap.stream("cd[title]")
            first = next(stream)
            database.delete_document(database.documents()[0])
            database.insert_document(NEW_DOC)
            rest = list(stream)
            assert _pairs([first] + rest) == expected

    def test_database_query_is_stable_per_call(self, database):
        # a plain query (no explicit snapshot) still runs against one
        # generation: the stream pinned before the mutation is unaffected
        stream = database.stream("cd[title]")
        first = next(stream)
        database.insert_document(NEW_DOC)
        remaining = list(stream)
        assert len([first] + remaining) == 3


class TestLifecycle:
    def test_closed_snapshot_raises_typed_error(self, database):
        snap = database.snapshot()
        snap.close()
        for call in (
            lambda: snap.query("cd[title]"),
            lambda: snap.count_results("cd[title]"),
            lambda: snap.stream("cd[title]"),
            lambda: snap.explain("cd[title]"),
            lambda: snap.plan("cd[title]"),
            lambda: snap.describe(),
        ):
            with pytest.raises(EvaluationError, match="closed"):
                call()

    def test_close_is_idempotent(self, database):
        snap = database.snapshot()
        snap.close()
        snap.close()
        assert "closed" in repr(snap)

    def test_stream_outlives_its_snapshot(self, database):
        # the stream holds the pinned engine state itself
        with database.snapshot() as snap:
            expected = _pairs(snap.query("cd[title]", n=None))
            stream = snap.stream("cd[title]")
        database.delete_document(database.documents()[0])
        assert _pairs(stream) == expected

    def test_describe_names_the_generation(self, database):
        database.insert_document(NEW_DOC)
        with database.snapshot() as snap:
            assert snap.describe().startswith("Snapshot of generation 1")

    def test_snapshot_refused_on_poisoned_database(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "poison.apxq")
        Database.from_documents(DOCS).save(path)
        db = Database.open(path)
        monkeypatch.setattr(
            database_module,
            "append_tree_segment",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            db.insert_document(NEW_DOC)
        monkeypatch.undo()
        with pytest.raises(EvaluationError, match="unusable"):
            db.snapshot()


class TestStoredPin:
    def test_pinned_reader_served_pre_write_postings(self, tmp_path):
        path = os.path.join(tmp_path, "pinned.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        db = Database.open(path, durability="wal", posting_cache_bytes=0)
        try:
            with db.snapshot() as snap:
                # the writer grows the 'cd'/'title' postings; the pinned
                # reader must be served the pre-write values
                db.insert_document(NEW_DOC)
                result = snap.query("cd[title]", n=None, collect="counters")
                assert len(result) == 3
                fresh = db.query("cd[title]", n=None, collect="counters")
                assert len(fresh) == 4
        finally:
            db._store.close()

    def test_snapshot_pinned_mid_generation_sees_old_view(self, tmp_path):
        # pinning after a mutation committed but while its pre-write
        # values are still pending is exercised by the writer thread in
        # the stress test; here: pin between two mutations
        path = os.path.join(tmp_path, "mid.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        db = Database.open(path, durability="wal")
        try:
            db.insert_document(NEW_DOC)
            with db.snapshot() as snap:
                db.delete_document(db.documents()[0])
                assert snap.count_results("cd[title]") == 4
                assert db.count_results("cd[title]") == 3
        finally:
            db._store.close()


class TestWriterReaderStress:
    @pytest.mark.parametrize("flavor", ["memory", "stored", "stored-uncached"])
    def test_snapshot_reader_stable_while_writer_mutates(self, flavor, tmp_path):
        """The acceptance stress: a reader verifying pinned answers on a
        snapshot while a writer thread applies a random mutation batch;
        afterwards the mutated database must equal a rebuild.  The
        uncached stored flavour opens with ``posting_cache_bytes=0``,
        which is accepted and ignored: it must behave as the other."""
        rng = random.Random({"memory": 4242, "stored": 4243}.get(flavor, 4244))
        mirror = [random_document_xml(rng) for _ in range(3)]
        if flavor == "memory":
            db = Database.from_documents(mirror)
        else:
            path = os.path.join(tmp_path, "stress.apxq")
            Database.from_documents(mirror).save(path, durability="wal")
            cache_bytes = 0 if flavor == "stored-uncached" else None
            db = Database.open(path, durability="wal", posting_cache_bytes=cache_bytes)
        queries = [random_query(rng) for _ in range(3)]
        ops = []
        op_mirror = list(mirror)
        for _ in range(10):
            op = random_mutation(rng, op_mirror)
            # track indices against the evolving list without mutating db yet
            if op[0] == "insert":
                op_mirror.append(op[1])
            elif op[0] == "delete":
                del op_mirror[op[1]]
            else:
                del op_mirror[op[1]]
                op_mirror.append(op[2])
            ops.append(op)

        snap = db.snapshot()
        expected = {i: _pairs(snap.query(q, n=None)) for i, q in enumerate(queries)}
        errors = []

        def write():
            try:
                for op in ops:
                    apply_mutation(db, mirror, op)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        writer = threading.Thread(target=write)
        writer.start()
        mismatches = 0
        while writer.is_alive():
            for i, query in enumerate(queries):
                for method in ("direct", "schema"):
                    if _pairs(snap.query(query, n=None, method=method)) != expected[i]:
                        mismatches += 1
        writer.join()
        assert errors == []
        assert mismatches == 0
        # one more full pass after the writer finished
        for i, query in enumerate(queries):
            assert _pairs(snap.query(query, n=None)) == expected[i]
        snap.close()
        check_equivalent(db, mirror, rng, f"stress flavor={flavor}")
        if flavor != "memory":
            db._store.close()

    def test_pinned_readers_match_their_generation(self, tmp_path):
        """Four snapshot readers on two cores against a writer, with the
        interpreter switching threads every 10 µs: every snapshot answers
        exactly what a memory twin answered at the snapshot's generation,
        however its reads interleave with the writer's writes."""
        rng = random.Random(4245)
        mirror = [random_document_xml(rng) for _ in range(3)]
        queries = [random_query(rng) for _ in range(2)]
        twin, twin_mirror = Database.from_documents(mirror), list(mirror)

        def answers(handle):
            return [_pairs(handle.query(query, n=None, method="direct")) for query in queries]

        ops, expected = [], [answers(twin)]
        for _ in range(8):
            ops.append(random_mutation(rng, twin_mirror))
            apply_mutation(twin, twin_mirror, ops[-1])
            expected.append(answers(twin))
        path = os.path.join(tmp_path, "readers.apxq")
        Database.from_documents(mirror).save(path)
        db = Database.open(path, posting_cache_bytes=0, result_cache_entries=0)
        done = threading.Event()
        failures = []

        def read():
            while not done.is_set():
                with db.snapshot() as snap:
                    got = answers(snap)
                if got != expected[snap.generation]:
                    failures.append(snap.generation)

        def write():
            try:
                for op in ops:
                    apply_mutation(db, mirror, op)
            finally:
                done.set()

        readers = [threading.Thread(target=read) for _ in range(4)]
        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + [writer]:
                thread.start()
            for thread in [writer] + readers:
                thread.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in readers + [writer])
            assert db.generation == len(ops)
            assert failures == []
        finally:
            db.close()


# ---------------------------------------------------------------------------
# a write landing inside a pinned read
# ---------------------------------------------------------------------------

QUERY = "cd[title]"
WRITES = {
    "delete": lambda db: db.delete_document(db.documents()[0]),
    "insert": lambda db: db.insert_document(NEW_DOC),
    "replace": lambda db: db.replace_document(db.documents()[0], NEW_DOC),
}
#: the pinned entry points: a snapshot, the per-call pin of a plain
#: query (both at each method), and a stream pulled after the write
ENTRIES = [
    ("snapshot", "direct"),
    ("snapshot", "auto"),
    ("query", "direct"),
    ("query", "auto"),
    ("stream", None),
]


def _rows(results):
    return [(result.root, result.cost) for result in results]


def _saved(tmp_path):
    path = os.path.join(tmp_path, "pinned.apxq")
    Database.from_documents(DOCS).save(path)
    with Database.open(path) as before:
        expected = _rows(before.query(QUERY, n=None))
    return path, expected


class TestPinnedReadAcrossAWrite:
    """A write that completes between a pinned read's start and its
    evaluation stays invisible to that read: the read answers exactly
    what the handle answered before the write (``cache_bytes`` is the
    ignored ``posting_cache_bytes``: both settings must agree)."""

    @pytest.mark.parametrize("cache_bytes", [0, None], ids=["uncached", "cached"])
    @pytest.mark.parametrize(
        "entry, method", ENTRIES, ids=[f"{entry}-{method}" for entry, method in ENTRIES]
    )
    @pytest.mark.parametrize("action", sorted(WRITES))
    def test_answer_is_the_pinned_generations(
        self, action, entry, method, cache_bytes, tmp_path, monkeypatch
    ):
        path, expected = _saved(tmp_path)
        db = Database.open(path, posting_cache_bytes=cache_bytes)
        outcomes = []

        def write():
            # on a second thread, run to completion before returning
            def run():
                try:
                    outcomes.append(WRITES[action](db))
                except BaseException as error:  # pragma: no cover - surfaced below
                    outcomes.append(error)

            worker = threading.Thread(target=run)
            worker.start()
            worker.join()

        try:
            if entry == "stream":
                stream = db.stream(QUERY)
                write()
                got = _rows(stream)
            else:
                original = database_module._PinnedView.execute
                armed = [True]

                def execute(view, *args):
                    if armed:
                        armed.clear()
                        write()
                    return original(view, *args)

                monkeypatch.setattr(database_module._PinnedView, "execute", execute)
                if entry == "snapshot":
                    with db.snapshot() as snap:
                        got = _rows(snap.query(QUERY, n=None, method=method))
                else:
                    got = _rows(db.query(QUERY, n=None, method=method))
                monkeypatch.undo()
            assert len(outcomes) == 1 and not isinstance(outcomes[0], BaseException), outcomes
            assert db.generation == 1
            assert got == expected
        finally:
            db.close()


class TestPinMidMutation:
    @pytest.mark.parametrize(
        "action, live_count", [("delete", 2), ("insert", 4), ("replace", 3)]
    )
    def test_snapshot_taken_inside_a_write_serves_the_old_generation(
        self, action, live_count, tmp_path, monkeypatch
    ):
        """A snapshot pinned after the writer's first store write and
        before its commit holds the superseded state: it answers the old
        generation, before and after the publish."""
        path, expected = _saved(tmp_path)
        db = Database.open(path, posting_cache_bytes=0)
        pinned = []

        def seen(snap):
            return {
                method: sorted(_rows(snap.query(QUERY, n=None, method=method)))
                for method in ("direct", "schema")
            }, snap.count_results(QUERY)

        def pinning(write):
            def written(*args):
                keys = write(*args)
                if not pinned:
                    snap = db.snapshot()
                    pinned.append((snap, seen(snap)))
                return keys

            return written

        for name in ("append_tree_segment", "save_dead_roots"):
            monkeypatch.setattr(database_module, name, pinning(getattr(database_module, name)))
        try:
            WRITES[action](db)
            monkeypatch.undo()
            snap, during = pinned[0]
            old = {"direct": sorted(expected), "schema": sorted(expected)}, len(expected)
            assert snap.generation == 0
            assert during == old
            assert seen(snap) == old
            assert db.generation == 1
            assert db.count_results(QUERY) == len(db.query(QUERY, n=None)) == live_count
            snap.close()
        finally:
            db.close()


# ---------------------------------------------------------------------------
# pinned node indexes over a write walk
# ---------------------------------------------------------------------------


def _postings(indexes):
    """Every ``(type, label)`` posting ``indexes`` hold right now."""
    return {
        (node_type, label): indexes.fetch(label, node_type)
        for node_type in (NodeType.STRUCT, NodeType.TEXT)
        for label in indexes.labels(node_type)
    }


def _snapshot_answers(snap, case):
    return {
        (position, method, n): _rows(
            snap.query(generated.query, n=n, costs=generated.costs, method=method)
        )
        for position, generated in enumerate(case.queries)
        for method in ("direct", "schema")
        for n in (1, None)
    }


def _walk_write(db, rng, copies):
    action = rng.choice(("insert", "delete", "replace"))
    live = db.documents()
    if action != "insert" and len(live) < 2:
        action = "insert"
    if action == "insert":
        db.insert_document(rng.choice(copies))
    elif action == "delete":
        db.delete_document(rng.choice(live))
    else:
        db.replace_document(rng.choice(live), rng.choice(copies))


class TestRetiredView:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_snapshot_keeps_its_generation(self, seed, tmp_path):
        """A snapshot per generation of a seeded write walk: each answers
        at the end what it answered when pinned, and a view over its
        documents holds the postings its state's node index held when
        pinned — all but the super-root's bound, which grows with the
        shared tree."""
        case = generated_case(seed, num_elements=60)
        copies = [subtree_to_xml(case.tree, root) for root in case.tree.document_roots()]
        path = os.path.join(tmp_path, "walk.apxq")
        Database.from_tree(case.tree).save(path)
        db = Database.open(path)
        rng = random.Random(seed)
        pins = []
        try:
            for step in range(7):
                if step:
                    _walk_write(db, rng, copies)
                snap = db.snapshot()
                postings = _postings(snap._state.ensure_node_indexes())
                pins.append((snap, _snapshot_answers(snap, case), postings))
            tree = db.tree
            for snap, answers, postings in pins:
                assert _snapshot_answers(snap, case) == answers, (snap, case.describe())
                rows = _postings(MemoryNodeIndexes(tree, snap.documents))
                super_root = (NodeType.STRUCT, ROOT_LABEL)
                [(pre, bound, *costs)] = postings.pop(super_root)
                assert bound <= tree.bounds[0]
                assert rows.pop(super_root) == [(pre, tree.bounds[0], *costs)]
                assert rows == postings, snap
                snap.close()
        finally:
            db.close()
