"""Stateful property testing of the whole pipeline.

A hypothesis rule machine drives a Database like a user session would —
adding documents, rebuilding, saving/loading, and querying — and checks
the global invariants after every step: both algorithms agree, costs are
sorted, best-n is a prefix of the full list.  Beside the rebuilt model a
second handle lives through every write online (inserts and deletes), so
its result cache carries, repairs and drops cached answers across them;
each of its reads must equal the model rebuilt from scratch.
"""

import random
from bisect import bisect_right

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro import Database
from repro.approxql.ast import NameSelector, TextSelector

STRUCTS = ["a", "b", "c"]
TEXTS = ["x", "y", "z"]
#: the keys the online handle caches from the start: a struct over a
#: word, or over a struct leaf
CACHED_QUERIES = [
    f"{struct}[{inner}]" for struct in STRUCTS for inner in [f'"{t}"' for t in TEXTS] + STRUCTS
]


def random_document(rng: random.Random) -> str:
    def element(depth: int) -> str:
        label = rng.choice(STRUCTS)
        if depth >= 2 or rng.random() < 0.4:
            return f"<{label}>{rng.choice(TEXTS)}</{label}>"
        inner = "".join(element(depth + 1) for _ in range(rng.randint(1, 2)))
        return f"<{label}>{inner}</{label}>"

    return element(0)


class PipelineMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.rng = random.Random(99)
        self.documents = [random_document(self.rng) for _ in range(4)]
        self.database = Database.from_xml(*self.documents)
        self.live = Database.from_xml(*self.documents)
        for query in CACHED_QUERIES:
            self.live.query(query, n=None)

    def teardown(self):
        if hasattr(self, "live"):
            self.live.close()

    @rule()
    def add_document(self):
        if len(self.documents) >= 12:
            return
        document = random_document(self.rng)
        self.documents.append(document)
        self.database = Database.from_xml(*self.documents)
        self.live.insert_document(document)

    @rule(data=st.data())
    def delete_document(self, data):
        if len(self.documents) <= 1:
            return
        index = data.draw(st.integers(0, len(self.documents) - 1))
        self.live.delete_document(self.live.documents()[index])
        del self.documents[index]
        self.database = Database.from_xml(*self.documents)

    @rule(data=st.data())
    def cached_read_between_writes(self, data):
        """A read of a key cached before the writes since, on the handle
        that lived through them, equals the rebuilt
        model's: the same rows, its roots renumbered document by
        document."""
        query = data.draw(st.sampled_from(CACHED_QUERIES))
        n = data.draw(st.sampled_from([None, 1, 2]))
        method = data.draw(st.sampled_from(["auto", "direct", "schema"]))
        live_roots, model_roots = self.live.documents(), self.database.documents()

        def renumbered(root):
            at = bisect_right(live_roots, root) - 1
            return root if at < 0 else model_roots[at] + root - live_roots[at]

        live = self.live.query(query, n=n, method=method)
        rebuilt = self.database.query(query, n=n, method=method)
        assert [(renumbered(r.root), r.cost) for r in live] == [
            (r.root, r.cost) for r in rebuilt
        ]

    @rule(data=st.data())
    def query_agrees(self, data):
        struct = data.draw(st.sampled_from(STRUCTS))
        term = data.draw(st.sampled_from(TEXTS))
        query = NameSelector(struct, TextSelector(term))
        direct = self.database.query(query, n=None, method="direct")
        schema = self.database.query(query, n=None, method="schema")
        assert {(r.root, r.cost) for r in direct} == {(r.root, r.cost) for r in schema}
        costs = [r.cost for r in direct]
        assert costs == sorted(costs)
        top = self.database.query(query, n=2, method="direct")
        assert top == direct[:2]

    @rule(data=st.data())
    def save_load_roundtrip(self, data):
        import tempfile, os

        struct = data.draw(st.sampled_from(STRUCTS))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "machine.apxq")
            self.database.save(path)
            loaded = Database.open(path)
            original = self.database.query(struct, n=None, method="direct")
            restored = loaded.query(struct, n=None, method="direct")
            assert [(r.root, r.cost) for r in original] == [
                (r.root, r.cost) for r in restored
            ]

    @invariant()
    def tree_is_structurally_valid(self):
        if not hasattr(self, "database"):
            return
        from repro.xmltree.validate import validate_tree

        validate_tree(self.database.tree)


PipelineMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=16, deadline=None
)
TestPipelineMachine = PipelineMachine.TestCase
