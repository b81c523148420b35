"""Stateful property testing of the whole pipeline.

A hypothesis rule machine drives a Database like a user session would —
adding documents, rebuilding, saving/loading, and querying — and checks
the global invariants after every step: both algorithms agree, costs are
sorted, best-n is a prefix of the full list.
"""

import random

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro import Database
from repro.approxql.ast import NameSelector, TextSelector

STRUCTS = ["a", "b", "c"]
TEXTS = ["x", "y", "z"]


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
        self.documents = [random_document(self.rng)]
        self.database = Database.from_xml(*self.documents)

    @rule()
    def add_document(self):
        if len(self.documents) >= 12:
            return
        self.documents.append(random_document(self.rng))
        self.database = Database.from_xml(*self.documents)

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
    max_examples=12, stateful_step_count=8, deadline=None
)
TestPipelineMachine = PipelineMachine.TestCase
