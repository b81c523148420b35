"""Answer checking: every timed answer against the direct evaluator's full
retrieval, and acknowledged writes against a simulated kill.

The rule is the one of ``tests/test_differential_oracle.py``: a best-``n``
answer must carry the ``n`` cheapest costs of the truth as a multiset, and
every returned ``(root, cost)`` must be in the truth (ties may legitimately
pick different equal-cost roots).  The truth is ``method="direct",
n=None`` on a harness-owned in-memory database that the measured program
never sees, in a process of its own (:func:`prepare`).
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import random
import shutil
import warnings


class Truth:
    """Full answer of one query: ascending costs and root -> cost."""

    __slots__ = ("costs", "by_root")

    def __init__(self, pairs) -> None:
        self.by_root = dict(pairs)
        self.costs = sorted(self.by_root.values())


class Oracle:
    """Truths over the pinned corpus, one per query of the workload's pool."""

    def __init__(self, truths: dict, stats) -> None:
        self._truths = truths
        self._stats = stats

    def truth(self, query) -> Truth:
        return self._truths[query.key]

    def collection_stats(self):
        return self._stats


def prepare(smoke: bool, pool: str) -> tuple:
    """Generate the inputs and compute the truth of every query of ``pool``.

    ``measure.run`` calls this in a child process: the corpus tree, the
    index the queries are generated from and the oracle's database are an
    order of magnitude bigger than the stores the workloads measure, and
    must not count in the peak RSS of the process hosting the measured
    database.  What comes back (query texts, cost models, document XML,
    a few thousand ``(root, cost)`` pairs) is under 2 MB.
    """
    from repro import Database

    from . import spec

    tree = spec.generate_corpus(smoke)
    inputs = spec.build_inputs(tree, smoke)
    database = Database.from_tree(tree)
    truths = {}
    for query in inputs.pool(pool):
        results = database.query(query.query, n=None, costs=query.costs, method="direct")
        # the sharded database drops the collection-rooted pseudo-result
        truths[query.key] = Truth((r.root, r.cost) for r in results if r.root != 0)
    return inputs, Oracle(truths, database.collection_stats())


def check(pairs, n, truth: Truth, extra_costs=(), lookup=None) -> bool:
    """The oracle rule.  ``pairs`` is the answer as ``(root, cost)``;
    ``extra_costs``/``lookup`` extend the truth by documents added after
    the corpus was built (see :class:`ChurnModel`)."""
    if extra_costs:
        expected = list(heapq.merge(truth.costs, sorted(extra_costs)))
    else:
        expected = truth.costs
    if n is not None:
        expected = expected[:n]
    if sorted(cost for _, cost in pairs) != list(expected):
        return False
    if len({root for root, _ in pairs}) != len(pairs):
        return False
    for root, cost in pairs:
        known = truth.by_root.get(root)
        if known is None and lookup is not None:
            known = lookup(root)
        if known != cost:
            return False
    return True


class ChurnModel:
    """The model document list of ``stored-churn``.

    An embedding lives inside one document, so the truth over the
    collection is the union of per-document truths: the corpus part is the
    oracle's, and every document the stream inserts contributes the answer
    of a one-document database, shifted to where the document was grafted.
    That makes every read checkable mid-stream without re-evaluating the
    collection.
    """

    def __init__(self, inputs) -> None:
        self.corpus = list(inputs.documents)
        self.contents = list(inputs.churn_documents)
        #: live inserted documents: root pre -> content index
        self.live: dict = {}
        self._roots: list = []  # sorted live roots
        self._answers: dict = {}  # (query key, content) -> [(offset, cost)]

    def answers(self, query, content: int) -> list:
        key = (query.key, content)
        cached = self._answers.get(key)
        if cached is None:
            from repro import Database

            database = Database.from_xml(self.contents[content])
            results = database.query(query.query, n=None, costs=query.costs, method="direct")
            cached = [(r.root - 1, r.cost) for r in results if r.root != 0]
            self._answers[key] = cached
        return cached

    def add(self, root: int, content: int) -> None:
        self.live[root] = content
        bisect.insort(self._roots, root)

    def remove(self, root: int) -> int:
        self._roots.remove(root)
        return self.live.pop(root)

    def roots_of(self, content: int) -> list:
        """Live copies of one content, oldest first."""
        return [root for root in self._roots if self.live[root] == content]

    def check(self, pairs, n, query, truth: Truth) -> bool:
        extra = [
            cost
            for content in self.live.values()
            for _, cost in self.answers(query, content)
        ]

        def lookup(root):
            position = bisect.bisect_right(self._roots, root) - 1
            if position < 0:
                return None
            document = self._roots[position]
            offset = root - document
            for known_offset, cost in self.answers(query, self.live[document]):
                if known_offset == offset:
                    return cost
            return None

        return check(pairs, n, truth, extra, lookup)

    def documents(self) -> list:
        """Every live document as XML, corpus first, inserts in root order
        (the order ``Database.documents()`` reports them in)."""
        return self.corpus + [self.contents[self.live[root]] for root in self._roots]


# ----------------------------------------------------------------------
# acknowledged writes survive a kill
# ----------------------------------------------------------------------


class _UnsyncedLog:
    """Undo log of bytes written but not yet fsynced.

    Killing a process leaves the operating system's cache intact, so a
    harness that only stops writing would let unflushed bytes survive.
    Files opened through :meth:`opener` remember what every write and
    truncate replaced until the next fsync of that file; :meth:`discard`
    puts it back, which is what a power cut would have done.
    """

    def __init__(self) -> None:
        self.records: list = []  # (path, offset, replaced bytes, size before)

    def opener(self, inner):
        def _open(path: str, mode: str):
            return _UndoFile(inner(path, mode), path, self)

        return _open

    def synced(self, path: str) -> None:
        self.records = [record for record in self.records if record[0] != path]

    def discard(self) -> None:
        for path, offset, replaced, size in reversed(self.records):
            with open(path, "r+b") as handle:
                handle.seek(offset)
                handle.write(replaced)
                handle.truncate(size)
        self.records.clear()


class _UndoFile:
    """File proxy feeding an :class:`_UnsyncedLog` (wraps a ``FaultyFile``)."""

    def __init__(self, inner, path: str, log: _UnsyncedLog) -> None:
        self._inner = inner
        self._path = path
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _remember(self, offset: int, length: int) -> None:
        inner = self._inner
        position = inner.tell()
        size = os.fstat(inner.fileno()).st_size
        inner.seek(offset)
        replaced = inner.read(max(0, min(length, size - offset)))
        inner.seek(position)
        self._log.records.append((self._path, offset, replaced, size))

    def write(self, data: bytes) -> int:
        self._remember(self._inner.tell(), len(data))
        return self._inner.write(data)

    def truncate(self, size=None) -> int:
        target = self._inner.tell() if size is None else size
        current = os.fstat(self._inner.fileno()).st_size
        self._remember(target, max(0, current - target))
        return self._inner.truncate(size)

    def fsync(self) -> None:
        self._inner.fsync()
        self._log.synced(self._path)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._inner.close()


def _apply(database, op):
    if op[0] == "insert":
        return ("insert", database.insert_document(op[1]).root, None)
    if op[0] == "delete":
        database.delete_document(op[1])
        return ("delete", None, op[1])
    return ("replace", database.replace_document(op[1], op[2]).root, op[1])


def _clone(store_path: str, target: str) -> str:
    shutil.copyfile(store_path, target)
    if os.path.exists(store_path + "-wal"):
        shutil.copyfile(store_path + "-wal", target + "-wal")
    return target


#: the kill boundary is drawn from 1..KILL_RANGE mutating I/O operations;
#: the six-mutation tail of ``stored-churn`` has about a thousand
KILL_RANGE = 1_000


def crash_replay(store_path: str, workdir: str, tail: list, seed: int) -> dict:
    """Replay ``tail`` (mutations) on a copy of the store, kill at a
    seed-derived I/O boundary with unsynced bytes discarded, reopen, and
    count acknowledged writes that did not survive.

    Same method as ``tools/crashmatrix.py``, one boundary instead of all.
    The tail has several hundred mutating I/O operations; a boundary past
    its end is a kill right after the last acknowledgement.
    """
    from repro import Database
    from repro.storage import FaultInjector, SimulatedCrash

    try:
        # the fault-injection seam is not part of repro.core's __all__
        from repro.core.persist import StoreOptions
    except ImportError as error:
        warnings.warn(f"crash replay skipped: {error}")
        return {"checked": False, "acknowledged": 0, "checks": 0, "lost": 0}

    def play(path: str, injector, log=None):
        opener = injector.opener()
        if log is not None:
            opener = log.opener(opener)
        database = Database.open(path, StoreOptions(durability="wal", opener=opener))
        acknowledged = []
        try:
            for op in tail:
                acknowledged.append(_apply(database, op))
        except SimulatedCrash:
            pass
        # a killed process closes nothing; drop the handle unflushed
        del database
        gc.collect()
        return acknowledged

    boundary = random.Random(f"{seed}:crash").randrange(1, KILL_RANGE)
    crashed = _clone(store_path, os.path.join(workdir, "crash.apxq"))
    log = _UnsyncedLog()
    acknowledged = play(crashed, FaultInjector(kill_after_ops=boundary), log)
    log.discard()
    checks = lost = 0
    with Database.open(crashed, durability="wal") as recovered:
        live = set(recovered.documents())
        gone = {removed for _, _, removed in acknowledged if removed is not None}
        for _, added, removed in acknowledged:
            if added is not None and added not in gone:
                checks += 1
                lost += added not in live
            if removed is not None:
                checks += 1
                lost += removed in live
    return {
        "checked": True,
        "boundary": boundary,
        "acknowledged": len(acknowledged),
        "checks": checks,
        "lost": lost,
    }
