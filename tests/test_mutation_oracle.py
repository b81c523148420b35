"""Randomized mutation oracle: a mutated database ≡ a rebuilt one.

Interleaved insert / delete / replace sequences are applied to a live
:class:`Database` while a mirror list of document strings tracks what
the collection *should* contain.  After every step the incrementally
maintained database must answer exactly like a database rebuilt from the
mirror — across the direct and the schema-driven algorithms — and the
final state must also match the naive closure-enumeration oracle.
Every case is keyed by an integer seed named in the assertion message.
"""

import os
import random

import pytest

from repro.core.database import Database
from repro.transform.naive import evaluate_naive
from repro.xmltree.serialize import subtree_to_xml

from .strategies import STRUCT_LABELS, TEXT_LABELS, generated_case, random_query

QUERIES_PER_CHECK = 2


def random_document_xml(rng: random.Random, max_nodes: int = 12, max_depth: int = 3) -> str:
    """A random one-document XML string over the closed test alphabet."""
    parts = []
    count = 0

    def gen(depth: int) -> None:
        nonlocal count
        label = rng.choice(STRUCT_LABELS)
        parts.append(f"<{label}>")
        count += 1
        for _ in range(rng.randint(0, 3)):
            if count >= max_nodes:
                break
            if depth < max_depth and rng.random() < 0.5:
                gen(depth + 1)
            else:
                parts.append(rng.choice(TEXT_LABELS) + " ")
                count += 1
        parts.append(f"</{label}>")

    gen(0)
    return "".join(parts)


def random_mutation(rng: random.Random, mirror: "list[str]"):
    """One applicable mutation op: ``("insert", xml)``, ``("delete", i)``,
    or ``("replace", i, xml)``, with ``i`` an index into ``mirror``."""
    choices = ["insert"]
    if mirror:
        choices += ["delete", "replace"]
    kind = rng.choice(choices)
    if kind == "insert":
        return ("insert", random_document_xml(rng))
    index = rng.randrange(len(mirror))
    if kind == "delete":
        return ("delete", index)
    return ("replace", index, random_document_xml(rng))


def apply_mutation(database: Database, mirror: "list[str]", op) -> None:
    """Apply ``op`` to the live database and to the mirror list.

    The mirror models the graft-at-tail semantics: an inserted (or
    replacement) document always becomes the youngest document, so the
    mirror appends it and a replace is remove-then-append.
    """
    roots = database.documents()
    if op[0] == "insert":
        database.insert_document(op[1])
        mirror.append(op[1])
    elif op[0] == "delete":
        database.delete_document(roots[op[1]])
        del mirror[op[1]]
    else:
        database.replace_document(roots[op[1]], op[2])
        del mirror[op[1]]
        mirror.append(op[2])


def answer(database: Database, query, method: str):
    """Order-free fingerprint of a full result set: a sorted multiset of
    (cost, canonical XML) pairs — pre numbers differ between a mutated
    tree (tombstone holes, tail grafts) and a fresh rebuild, the
    subtrees and costs must not."""
    results = database.query(query, n=None, method=method)
    return sorted((result.cost, result.xml()) for result in results)


def naive_answer(database: Database, query):
    pairs = evaluate_naive(query, database.tree, database._pipeline.default_costs)
    return sorted(
        (pair.cost, subtree_to_xml(database.tree, pair.root)) for pair in pairs
    )


def check_equivalent(mutated: Database, mirror: "list[str]", rng, context: str) -> None:
    rebuilt = Database.from_documents(mirror)
    # one result-cache entry serves both methods: each must evaluate
    for database in (rebuilt, mutated):
        database.set_query_cache(result_entries=0)
    for _ in range(QUERIES_PER_CHECK):
        query = random_query(rng)
        expected = answer(rebuilt, query, "direct")
        for database, flavor in ((rebuilt, "rebuilt"), (mutated, "mutated")):
            for method in ("direct", "schema"):
                got = answer(database, query, method)
                assert got == expected, (
                    f"{context}: {flavor}/{method} diverged on {query.unparse()!r}"
                )


@pytest.mark.parametrize("seed", range(6))
def test_memory_mutations_match_rebuild(seed):
    rng = random.Random(1300 + seed)
    mirror = [random_document_xml(rng) for _ in range(rng.randint(1, 3))]
    database = Database.from_documents(mirror)
    for step in range(8):
        op = random_mutation(rng, mirror)
        apply_mutation(database, mirror, op)
        check_equivalent(
            database, mirror, rng, f"seed={1300 + seed} step={step} op={op[0]}"
        )
    # the final state also matches the exponential naive oracle
    for _ in range(QUERIES_PER_CHECK):
        query = random_query(rng)
        naive = naive_answer(Database.from_documents(mirror), query)
        assert answer(database, query, "direct") == naive, f"seed={1300 + seed}"
        assert answer(database, query, "schema") == naive, f"seed={1300 + seed}"


@pytest.mark.parametrize("seed", range(3))
def test_stored_mutations_match_rebuild(seed, tmp_path):
    rng = random.Random(2600 + seed)
    mirror = [random_document_xml(rng) for _ in range(rng.randint(1, 3))]
    path = os.path.join(tmp_path, "oracle.apxq")
    Database.from_documents(mirror).save(path, durability="wal")
    database = Database.open(path, durability="wal")
    for step in range(6):
        op = random_mutation(rng, mirror)
        apply_mutation(database, mirror, op)
        check_equivalent(
            database, mirror, rng, f"seed={2600 + seed} step={step} op={op[0]}"
        )
    database._store.close()
    # reopening replays the persisted segments and tombstones: the
    # recovered database must be the same collection
    reopened = Database.open(path)
    check_equivalent(reopened, mirror, rng, f"seed={2600 + seed} reopen")
    for _ in range(QUERIES_PER_CHECK):
        query = random_query(rng)
        naive = naive_answer(Database.from_documents(mirror), query)
        assert answer(reopened, query, "schema") == naive, f"seed={2600 + seed}"


@pytest.mark.parametrize("seed", range(2))
def test_mutations_preserve_empty_collection_behavior(seed):
    """Deleting every document leaves a queryable empty collection that
    accepts new documents (the degenerate boundary of the oracle)."""
    rng = random.Random(3900 + seed)
    mirror = [random_document_xml(rng) for _ in range(2)]
    database = Database.from_documents(mirror)
    while database.documents():
        database.delete_document(database.documents()[0])
        del mirror[0]
    assert database.documents() == ()
    assert database.live_node_count == 1  # only the virtual root survives
    query = random_query(rng)
    assert database.query(query, n=None, method="direct") == []
    assert database.query(query, n=None, method="schema") == []
    op = ("insert", random_document_xml(rng))
    apply_mutation(database, mirror, op)
    check_equivalent(database, mirror, rng, f"seed={3900 + seed} refill")


def schema_fields(schema) -> dict:
    """Every field of a schema a query reads, as plain lists."""
    return {
        "labels": list(schema.labels),
        "types": list(schema.types),
        "parents": list(schema.parents),
        "bounds": list(schema.bounds),
        "class_of": list(schema.class_of),
        "instances": [(list(rows.pre), list(rows.bound)) for rows in schema.instances],
        "term_instances": {
            node: (list(terms.terms), list(terms.offsets), list(terms.pre), list(terms.bound))
            for node, terms in schema.term_instances.items()
        },
    }


@pytest.mark.parametrize("seed", range(4))
def test_inserting_documents_one_at_a_time_equals_a_bulk_build(seed, tmp_path):
    """A build is the insert of every document into the empty
    collection: a handle grown one insert at a time holds the schema a
    bulk build derives — class table, ``class_of``, instance and term
    columns — and saves to the same bytes."""
    case = generated_case(3100 + seed, num_elements=60)
    bulk = Database.from_tree(case.tree)
    grown = Database.from_xml()
    for root in case.tree.document_roots():
        grown.insert_document(subtree_to_xml(case.tree, root))
    assert schema_fields(grown.schema) == schema_fields(bulk.schema), case.describe()
    saved = []
    for name, database in (("bulk", bulk), ("grown", grown)):
        path = os.path.join(tmp_path, f"{name}.apxq")
        database.save(path)
        with open(path, "rb") as handle:
            saved.append(handle.read())
    assert saved[0] == saved[1], case.describe()
