"""Snapshot reads: generation-pinned views under concurrent mutation.

A :meth:`Database.snapshot` must keep answering against its pinned
generation no matter what insert/delete/replace traffic lands after the
pin — for in-memory databases by holding the immutable engine state, for
stored databases through the writer's copy-on-write into the snapshot's
overlay.  Includes the writer-vs-reader stress required by the mutation
acceptance: a snapshot reader verifying pinned answers while a writer
thread mutates, with the final state checked against a rebuild.
"""

import os
import random
import threading

import pytest

from repro.core.database import Database
from repro.errors import EvaluationError

from .strategies import random_query
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

    def test_describe_names_the_generation(self, database):
        database.insert_document(NEW_DOC)
        with database.snapshot() as snap:
            assert snap.describe().startswith("Snapshot of generation 1")

    def test_snapshot_refused_on_poisoned_database(self, tmp_path, monkeypatch):
        from repro.core import database as database_module

        path = os.path.join(tmp_path, "poison.apxq")
        Database.from_documents(DOCS).save(path)
        db = Database.open(path)
        monkeypatch.setattr(
            database_module.StoreMutator,
            "update_node_postings",
            lambda self, *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            db.insert_document(NEW_DOC)
        monkeypatch.undo()
        with pytest.raises(EvaluationError, match="unusable"):
            db.snapshot()


class TestOverlay:
    def test_overlay_hits_count_preserved_postings(self, tmp_path):
        path = os.path.join(tmp_path, "overlay.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        db = Database.open(path, durability="wal", posting_cache_bytes=0)
        try:
            with db.snapshot() as snap:
                # the writer rewrites 'cd'/'title' postings; the pinned
                # reader must be served the preserved pre-write values
                db.insert_document(NEW_DOC)
                result = snap.query("cd[title]", n=None, collect="counters")
                assert len(result) == 3
                assert result.report.overlay_hits > 0
                fresh = db.query("cd[title]", n=None, collect="counters")
                assert len(fresh) == 4
                assert fresh.report.overlay_hits == 0
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
    @pytest.mark.parametrize("flavor", ["memory", "stored"])
    def test_snapshot_reader_stable_while_writer_mutates(self, flavor, tmp_path):
        """The acceptance stress: a reader verifying pinned answers on a
        snapshot while a writer thread applies a random mutation batch;
        afterwards the mutated database must equal a rebuild."""
        rng = random.Random(4242 if flavor == "memory" else 4243)
        mirror = [random_document_xml(rng) for _ in range(3)]
        if flavor == "memory":
            db = Database.from_documents(mirror)
        else:
            path = os.path.join(tmp_path, "stress.apxq")
            Database.from_documents(mirror).save(path, durability="wal")
            db = Database.open(path, durability="wal")
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
        if flavor == "stored":
            db._store.close()
