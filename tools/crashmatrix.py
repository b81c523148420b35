#!/usr/bin/env python
"""Crash-consistency matrix for the storage engine's WAL mode.

The durability claim of ``durability="wal"`` is: *kill the process at any
I/O boundary and the store reopens in exactly its last committed state —
full rollback or full commit, never half.*  This tool turns that claim
into an exhaustive experiment:

1. **Count** — run a build/update workload against a WAL-mode store
   through a fault-free :class:`~repro.storage.faults.FaultInjector` to
   learn how many mutating I/O operations (write / flush / fsync /
   truncate) the workload performs.  Every one of them is a potential
   kill point.
2. **Kill everywhere** — for every boundary ``k``, restart from a
   pristine copy of the base store, replay the same workload with
   ``kill_after_ops=k`` (the k-th mutating operation dies, tearing the
   write in half if it is one), and let :class:`SimulatedCrash` abort
   the run mid-flight.
3. **Recover and judge** — reopen the store (recovery replays the
   committed WAL tail and discards the torn one), read every key back,
   and require that the surviving state equals one of the snapshots the
   workload legally committed — at least the last one whose commit had
   completed before the kill.  ``verify_store`` must also report every
   page and frame checksum clean.

Any other outcome — a key set that matches no committed snapshot, a
store that fails to reopen, a checksum failure — is a half state and a
bug in the durability layer.  The exit code is non-zero if any boundary
of any workload produces one.

Usage::

    PYTHONPATH=src python tools/crashmatrix.py                  # full matrix
    PYTHONPATH=src python tools/crashmatrix.py --scale tiny     # CI smoke
    PYTHONPATH=src python tools/crashmatrix.py --workload churn
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field

if __package__ in (None, ""):  # running as a script: make src/ importable
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _SRC = os.path.join(_ROOT, "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.database import Database
from repro.core.persist import StoreOptions
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.kv import FileStore
from repro.storage.verify import verify_store

#: small pages so even a short workload spreads over many of them
PAGE_SIZE = 512
#: small cache so reads after recovery actually hit the file
CACHE_PAGES = 8
SCALES = ("tiny", "full")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#
# A workload is a list of *batches*; each batch is applied to the store
# and then committed.  Ops are ("put", key, value) / ("delete", key, None).
# Workloads are pure data, so the counting pass and every kill run replay
# byte-identical operation sequences.


def _value(index: int) -> bytes:
    # every fifth value overflows a 512-byte page, exercising the
    # B+tree's overflow chains under crash
    size = 700 if index % 5 == 2 else 40 + 13 * (index % 7)
    return bytes([index % 251 or 1]) * size


def _build_batches(scale: str):
    """Append-only build: fresh keys across several commits."""
    per_batch, batches = {"tiny": (4, 2), "full": (8, 3)}[scale]
    out, counter = [], 0
    for _ in range(batches):
        batch = []
        for _ in range(per_batch):
            batch.append(("put", f"key{counter:05d}".encode(), _value(counter)))
            counter += 1
        out.append(batch)
    return out


def _update_batches(scale: str):
    """Build then mutate: overwrites and deletes across commits."""
    base = {"tiny": 5, "full": 10}[scale]
    keys = [f"row{i:04d}".encode() for i in range(base)]
    first = [("put", key, _value(i)) for i, key in enumerate(keys)]
    second = [("put", keys[i], _value(i + 100)) for i in range(0, base, 2)]
    second.append(("delete", keys[1], None))
    third = [("put", f"new{i:04d}".encode(), _value(i + 50)) for i in range(base // 2)]
    third.append(("delete", keys[-1], None))
    return [first, second, third]


@dataclass(frozen=True)
class Workload:
    name: str
    batches: "callable"
    #: WAL size that triggers a checkpoint — tiny for ``churn`` so the
    #: kill points land inside checkpoint folds and log resets too
    checkpoint_bytes: int = 64 * 1024


WORKLOADS = {
    "build": Workload("build", _build_batches),
    "update": Workload("update", _update_batches),
    "churn": Workload("churn", _build_batches, checkpoint_bytes=2048),
}


def expected_states(batches) -> "list[dict[bytes, bytes]]":
    """The committed snapshots: state after batch 0..i for every i,
    preceded by the empty base state."""
    state: dict[bytes, bytes] = {}
    states = [dict(state)]
    for batch in batches:
        for kind, key, value in batch:
            if kind == "put":
                state[key] = value
            else:
                state.pop(key)
        states.append(dict(state))
    return states


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------


@dataclass
class MatrixResult:
    """Outcome of one workload's full boundary sweep."""

    workload: str
    scale: str
    boundaries: int = 0
    #: kills whose recovered state was the last durable snapshot
    rolled_back: int = 0
    #: kills where the in-flight commit survived (its frames had landed)
    committed_ahead: int = 0
    #: (boundary, reason) for every half state or verification failure
    failures: "list[tuple[int, str]]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"crashmatrix: workload={self.workload} scale={self.scale} "
            f"boundaries={self.boundaries}",
            f"  recovered to last commit: {self.rolled_back}",
            f"  in-flight commit survived: {self.committed_ahead}",
            f"  half states: {len(self.failures)}",
        ]
        for boundary, reason in self.failures[:20]:
            lines.append(f"    boundary {boundary}: {reason}")
        if len(self.failures) > 20:
            lines.append(f"    ... and {len(self.failures) - 20} more")
        lines.append(f"  result: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _apply_batch(store: FileStore, batch) -> None:
    for kind, key, value in batch:
        if kind == "put":
            store.put(key, value)
        else:
            store.delete(key)


def _abandon(store: FileStore) -> None:
    """Drop a crashed store without flushing anything — the moral
    equivalent of the OS closing a killed process's descriptors.
    (``close()`` would try to commit and hit the injector's dead-file
    wall; the raw handles close without touching disk.)"""
    pager = store._pager
    for handle in (pager._file, pager._wal._file if pager._wal else None):
        if handle is None:
            continue
        try:
            handle.close()
        except Exception:
            pass


def _make_base(directory: str) -> str:
    """A pristine, cleanly closed WAL-mode store every run copies from."""
    path = os.path.join(directory, "base.apxq")
    store = FileStore(path, page_size=PAGE_SIZE, cache_pages=CACHE_PAGES, durability="wal")
    store.commit()
    store.close()
    return path


def _clone_base(base: str, directory: str, tag: str) -> str:
    path = os.path.join(directory, f"run-{tag}.apxq")
    shutil.copyfile(base, path)
    for suffix in ("-wal",):
        if os.path.exists(base + suffix):
            shutil.copyfile(base + suffix, path + suffix)
    return path


def _play(path: str, workload: Workload, batches, injector: FaultInjector):
    """Run the workload through ``injector``; returns the op count at
    which each commit call returned (the durability lower bounds)."""
    commit_ops = [0]
    store = FileStore(
        path,
        page_size=PAGE_SIZE,
        cache_pages=CACHE_PAGES,
        durability="wal",
        wal_checkpoint_bytes=workload.checkpoint_bytes,
        opener=injector.opener(),
        must_exist=True,
    )
    try:
        for batch in batches:
            _apply_batch(store, batch)
            store.commit()
            commit_ops.append(injector.mutating_ops)
        store.close()
    except SimulatedCrash:
        _abandon(store)
        raise
    return commit_ops


def _recovered_state(path: str) -> "dict[bytes, bytes]":
    with FileStore(
        path,
        page_size=PAGE_SIZE,
        cache_pages=CACHE_PAGES,
        durability="wal",
        must_exist=True,
    ) as store:
        return dict(store.scan())


def run_matrix(
    name: str, scale: str = "full", workdir: "str | None" = None, progress=None
) -> MatrixResult:
    """Sweep every I/O boundary of one workload; see the module docstring."""
    workload = WORKLOADS[name]
    batches = workload.batches(scale)
    snapshots = expected_states(batches)
    result = MatrixResult(workload=name, scale=scale)

    owned = workdir is None
    directory = workdir or tempfile.mkdtemp(prefix="crashmatrix-")
    try:
        base = _make_base(directory)

        # counting pass: how many boundaries, and when did commits land
        counter = FaultInjector()
        count_path = _clone_base(base, directory, "count")
        commit_ops = _play(count_path, workload, batches, counter)
        final = _recovered_state(count_path)
        if final != snapshots[-1]:
            raise AssertionError(
                f"{name}: fault-free run ended in the wrong state "
                f"({len(final)} keys, expected {len(snapshots[-1])})"
            )
        result.boundaries = counter.mutating_ops

        for boundary in range(result.boundaries):
            path = _clone_base(base, directory, str(boundary))
            injector = FaultInjector(kill_after_ops=boundary)
            try:
                _play(path, workload, batches, injector)
            except SimulatedCrash:
                pass
            else:
                result.failures.append((boundary, "workload completed, no crash fired"))
                continue

            # the last snapshot whose commit had fully returned before the
            # kill must survive; the next one may, if its frames landed
            floor = max(i for i, ops in enumerate(commit_ops) if ops <= boundary)
            try:
                state = _recovered_state(path)
            except Exception as error:  # noqa: BLE001 - any failure is a verdict
                result.failures.append((boundary, f"reopen failed: {error}"))
                continue
            matches = [i for i, snap in enumerate(snapshots) if snap == state]
            if not matches:
                result.failures.append(
                    (boundary, f"half state: {len(state)} keys match no committed snapshot")
                )
            elif matches[0] < floor:
                result.failures.append(
                    (boundary, f"lost durable commit {floor}, recovered snapshot {matches[0]}")
                )
            elif matches[0] == floor:
                result.rolled_back += 1
            else:
                result.committed_ahead += 1
            report = verify_store(path)
            if not report.ok:
                result.failures.append((boundary, f"verify failed: {report.format()}"))
            if progress is not None:
                progress(boundary, result)
    finally:
        if owned:
            shutil.rmtree(directory, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# the document-mutation matrix
# ----------------------------------------------------------------------
#
# Same experiment one layer up: the workload is a sequence of Database
# document mutations (insert / delete / replace), each of which the
# engine promises to journal as ONE commit frame — node posting
# rewrites, tree segment, dead-roots list, all or nothing.
# A kill at any boundary must therefore recover to the store state after
# a *prefix* of the mutations, and that state must reopen as a coherent,
# queryable database.


def _mutation_docs(scale: str) -> "list[str]":
    count = {"tiny": 2, "full": 3}[scale]
    return [
        f"<cd><title>disc {i}</title><artist>artist {i % 2}</artist></cd>"
        for i in range(count)
    ]


def _mutation_ops(scale: str):
    """Pure data: ("insert", xml) / ("delete", doc_index) /
    ("replace", doc_index, xml), indices into the live documents()
    tuple at apply time.  The first insert introduces new label paths,
    forcing the schema-rebuild path of the insert."""
    ops = [
        ("insert", "<cd><title>piano works</title><genre>classical</genre></cd>"),
        ("delete", 0),
    ]
    if scale == "full":
        ops.extend(
            [
                ("replace", 0, "<cd><title>swap</title><artist>artist 0</artist></cd>"),
                ("insert", "<cd><title>encore</title></cd>"),
            ]
        )
    return ops


def _mutation_store_options(injector: "FaultInjector | None" = None) -> StoreOptions:
    return StoreOptions(
        page_cache_pages=CACHE_PAGES,
        posting_cache_bytes=0,
        durability="wal",
        wal_checkpoint_bytes=4096,
        page_size=PAGE_SIZE,
        opener=injector.opener() if injector is not None else None,
    )


def _make_mutation_base(directory: str, scale: str) -> str:
    path = os.path.join(directory, "base.apxq")
    database = Database.from_documents(_mutation_docs(scale))
    database.save(path, _mutation_store_options())
    return path


def _apply_mutation(database: Database, op) -> None:
    if op[0] == "insert":
        database.insert_document(op[1])
    elif op[0] == "delete":
        database.delete_document(database.documents()[op[1]])
    else:
        database.replace_document(database.documents()[op[1]], op[2])


def _play_mutations(path: str, ops, injector: FaultInjector):
    """Run the mutation workload through ``injector``; returns
    (commit_ops, snapshots, doc_counts) — the op count at which each
    mutation's commit returned, the committed KV state after each, and
    the live document count after each."""
    database = Database.open(path, _mutation_store_options(injector))
    store = database._store
    commit_ops = [0]
    snapshots = [dict(store.scan())]
    doc_counts = [len(database.documents())]
    try:
        for op in ops:
            _apply_mutation(database, op)
            commit_ops.append(injector.mutating_ops)
            snapshots.append(dict(store.scan()))
            doc_counts.append(len(database.documents()))
        store.close()
    except SimulatedCrash:
        _abandon(store)
        raise
    return commit_ops, snapshots, doc_counts


def _check_reopens(path: str, expected_docs: int) -> "str | None":
    """Reopen the recovered store as a Database and query it both ways;
    any inconsistency is a verdict string."""
    try:
        database = Database.open(path, _mutation_store_options())
    except Exception as error:  # noqa: BLE001 - any failure is a verdict
        return f"database reopen failed: {error}"
    try:
        if len(database.documents()) != expected_docs:
            return (
                f"recovered database has {len(database.documents())} documents, "
                f"snapshot implies {expected_docs}"
            )
        direct = database.query("cd[title]", n=None, method="direct")
        schema = database.query("cd[title]", n=None, method="schema")
        if len(direct) != expected_docs or len(schema) != expected_docs:
            return (
                f"recovered queries disagree: direct={len(direct)} "
                f"schema={len(schema)} documents={expected_docs}"
            )
    except Exception as error:  # noqa: BLE001
        return f"recovered database failed to evaluate: {error}"
    finally:
        try:
            database._store.close()
        except Exception:
            pass
    return None


def run_mutation_matrix(
    scale: str = "full", workdir: "str | None" = None, progress=None
) -> MatrixResult:
    """Sweep every I/O boundary of the document-mutation workload."""
    ops = _mutation_ops(scale)
    result = MatrixResult(workload="mutation", scale=scale)

    owned = workdir is None
    directory = workdir or tempfile.mkdtemp(prefix="crashmatrix-mut-")
    try:
        base = _make_mutation_base(directory, scale)

        counter = FaultInjector()
        count_path = _clone_base(base, directory, "count")
        commit_ops, snapshots, doc_counts = _play_mutations(count_path, ops, counter)
        fault_free = _check_reopens(count_path, doc_counts[-1])
        if fault_free is not None:
            raise AssertionError(
                f"{result.workload}: fault-free run is broken: {fault_free}"
            )
        result.boundaries = counter.mutating_ops

        for boundary in range(result.boundaries):
            path = _clone_base(base, directory, str(boundary))
            injector = FaultInjector(kill_after_ops=boundary)
            try:
                _play_mutations(path, ops, injector)
            except SimulatedCrash:
                pass
            else:
                result.failures.append((boundary, "workload completed, no crash fired"))
                continue

            floor = max(i for i, count in enumerate(commit_ops) if count <= boundary)
            try:
                state = _recovered_state(path)
            except Exception as error:  # noqa: BLE001
                result.failures.append((boundary, f"reopen failed: {error}"))
                continue
            matches = [i for i, snap in enumerate(snapshots) if snap == state]
            if not matches:
                result.failures.append(
                    (boundary, f"half mutation: {len(state)} keys match no committed generation")
                )
                continue
            if matches[0] < floor:
                result.failures.append(
                    (boundary, f"lost durable mutation {floor}, recovered generation {matches[0]}")
                )
            elif matches[0] == floor:
                result.rolled_back += 1
            else:
                result.committed_ahead += 1
            verdict = _check_reopens(path, doc_counts[matches[0]])
            if verdict is not None:
                result.failures.append((boundary, verdict))
            report = verify_store(path)
            if not report.ok:
                result.failures.append((boundary, f"verify failed: {report.format()}"))
            if progress is not None:
                progress(boundary, result)
    finally:
        if owned:
            shutil.rmtree(directory, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=(*WORKLOADS, "mutation", "all"),
        default="all",
        help="which workload to sweep (default: all)",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="full",
        help="workload size: 'tiny' for CI smoke, 'full' for the real matrix",
    )
    args = parser.parse_args(argv)
    names = [*WORKLOADS, "mutation"] if args.workload == "all" else [args.workload]
    failed = False
    for name in names:
        if name == "mutation":
            result = run_mutation_matrix(scale=args.scale)
        else:
            result = run_matrix(name, scale=args.scale)
        print(result.format())
        failed = failed or not result.ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
