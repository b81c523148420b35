"""Span tracing installed from outside ``repro``.

The traced run wraps the exported entry points listed in ``TRACE_POINTS``
— nothing under ``src/`` changes.  A span is (name, start, end, parent,
op id); a layer's *self time* is its spans' duration minus the part their
child spans cover.  Self time is accumulated as spans close, so hot trace
points (index fetches, page reads) cost no memory; the spans of the
*coarse* points (one or a few per operation) are additionally kept and
written out as JSON when the run ends.

The registry degrades: a target that no longer exists is skipped with a
warning, the metrics that need its span become ``null``, and nothing else
changes — code may move inside ``repro`` without editing the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class TracePoint:
    """One wrapped entry point.

    ``target`` is ``"package:Name"`` for a plain function exported by the
    package (every loaded ``repro`` module binding that function is
    patched) or ``"package:Class.method"`` (the class attribute is
    patched).  ``keep`` stores the individual spans; ``label`` extracts a
    value used to match spans across threads (the query text) or to group
    them (the shard's database).
    """

    span: str
    target: str
    keep: bool = False
    label: "object | None" = None


def _query_text(args, kwargs):
    text = kwargs.get("text", args[1] if len(args) > 1 else None)
    return text if isinstance(text, str) else getattr(text, "unparse", lambda: None)()


def _request_text(args, kwargs):
    return kwargs.get("query")


def _receiver(args, kwargs):
    return id(args[0])


#: span name -> exported name it wraps; the span's first dotted segment is
#: its layer (one of this repo's packages)
TRACE_POINTS = [
    TracePoint("approxql.parse", "repro.approxql:parse_query"),
    TracePoint("approxql.expand", "repro.approxql:build_expanded"),
    TracePoint("planner.choose", "repro.planner:Planner.choose", keep=True),
    TracePoint("engine.evaluate", "repro.engine:DirectEvaluator.evaluate", keep=True),
    TracePoint("engine.evaluate", "repro.engine:PrimaryEvaluator.evaluate"),
    TracePoint("schema.evaluate", "repro.schema:SchemaEvaluator.evaluate", keep=True),
    TracePoint("schema.evaluate", "repro.schema:SchemaEvaluator.iter_results"),
    TracePoint("schema.topk", "repro.schema:PrimaryKEvaluator.evaluate"),
    TracePoint("schema.topk", "repro.schema:sort_roots"),
    TracePoint("schema.secondary", "repro.schema:SecondaryExecutor.execute"),
    TracePoint("schema.index.fetch", "repro.schema:SchemaNodeIndexes.fetch"),
    TracePoint("schema.index.fetch", "repro.schema:SchemaNodeIndexes.fetch_derived"),
    TracePoint("schema.index.fetch", "repro.schema:MemorySecondaryIndex.fetch"),
    TracePoint("schema.index.fetch", "repro.schema:StoredSecondaryIndex.fetch"),
    TracePoint("xmltree.index.fetch", "repro.xmltree:MemoryNodeIndexes.fetch"),
    TracePoint("xmltree.index.fetch", "repro.xmltree:MemoryNodeIndexes.fetch_derived"),
    TracePoint("xmltree.index.fetch", "repro.xmltree:StoredNodeIndexes.fetch"),
    TracePoint("xmltree.index.fetch", "repro.xmltree:StoredNodeIndexes.fetch_derived"),
    TracePoint("xmltree.parse", "repro.xmltree:tree_from_xml"),
    TracePoint("storage.kv.get", "repro.storage:FileStore.get"),
    TracePoint("storage.kv.put", "repro.storage:FileStore.put"),
    TracePoint("storage.kv.put", "repro.storage:FileStore.delete"),
    TracePoint("storage.commit", "repro.storage:FileStore.commit"),
    TracePoint("storage.btree.get", "repro.storage:BTree.get"),
    TracePoint("storage.pager.read", "repro.storage:Pager.read"),
    TracePoint("storage.pager.write", "repro.storage:Pager.write"),
    TracePoint("core.query", "repro.core:Database.query", keep=True, label=_receiver),
    TracePoint("core.query", "repro.core:Database.stream", keep=True),
    TracePoint("core.query", "repro.core:ResultStream.__next__", keep=True, label=_receiver),
    TracePoint("core.insert", "repro.core:Database.insert_document", keep=True),
    TracePoint("core.delete", "repro.core:Database.delete_document", keep=True),
    TracePoint("core.replace", "repro.core:Database.replace_document", keep=True),
    TracePoint("shard.query", "repro.shard:ShardedDatabase.query", keep=True, label=_query_text),
    TracePoint("shard.query_many", "repro.shard:ShardedDatabase.query_many", keep=True),
    TracePoint("shard.mutate", "repro.shard:ShardedDatabase.insert_document", keep=True),
    TracePoint("shard.mutate", "repro.shard:ShardedDatabase.delete_document", keep=True),
    TracePoint("server.request", "repro.server:ServeClient.request", keep=True, label=_request_text),
    # kept: on the server's event-loop thread these are root spans, and only
    # kept spans can be attached to the client request around them
    TracePoint("server.protocol", "repro.server:encode_message", keep=True),
    TracePoint("server.protocol", "repro.server:decode_message", keep=True),
]


class _ThreadState:
    __slots__ = ("ident", "stack", "totals", "spans", "op")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: list = []  # open frames: [start, child seconds, kept span index]
        self.totals: dict = {}  # span name -> [self seconds, seconds, count]
        self.spans: list = []  # kept spans: [name, start, end, parent, op, label]
        self.op = None


class Tracer:
    """Per-thread span stacks with self-time accounting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.missing: set = set()  # span names with an unresolvable target

    # -- recording ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    def set_op(self, op) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._state().op = op

    def _open(self, point: TracePoint, args, kwargs):
        state = self._state()
        stack = state.stack
        kept = stack[-1][2] if stack else -1
        frame = [0.0, 0.0, kept]
        if point.keep:
            frame[2] = len(state.spans)
            label = point.label(args, kwargs) if point.label is not None else None
            state.spans.append([point.span, 0.0, 0.0, kept, state.op, label])
        stack.append(frame)
        frame[0] = time.perf_counter()
        return state, frame

    @staticmethod
    def _close(point: TracePoint, state: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        seconds = end - frame[0]
        total = state.totals.get(point.span)
        if total is None:
            total = state.totals[point.span] = [0.0, 0.0, 0]
        total[0] += seconds - frame[1]
        total[1] += seconds
        total[2] += 1
        if stack:
            stack[-1][1] += seconds
        if point.keep:
            span = state.spans[frame[2]]
            span[1] = frame[0]
            span[2] = end

    def wrap(self, point: TracePoint, function):
        tracer = self

        if inspect.isgeneratorfunction(function):
            # a generator runs only while it is being advanced: one span
            # per resume, so time the consumer spends between pulls is not
            # charged to the producer
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                try:
                    while True:
                        state, frame = tracer._open(point, args, kwargs)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(point, state, frame)
                        yield item
                finally:
                    iterator.close()

            generator_wrapper.__wrapped__ = function
            return generator_wrapper

        def wrapper(*args, **kwargs):
            state, frame = tracer._open(point, args, kwargs)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(point, state, frame)

        wrapper.__wrapped__ = function
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, points=None) -> None:
        """Patch every resolvable trace point; remember the rest as missing."""
        for point in TRACE_POINTS if points is None else points:
            try:
                self._install_point(point)
            except (ImportError, AttributeError) as error:
                self.missing.add(point.span)
                warnings.warn(
                    f"trace target {point.target} is gone ({error}); metrics that "
                    f"need the span {point.span!r} are reported as null",
                    stacklevel=2,
                )

    def _install_point(self, point: TracePoint) -> None:
        module_name, _, path = point.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attribute)
            self._patch(owner, attribute, original, self.wrap(point, original))
            return
        original = getattr(module, path)
        wrapped = self.wrap(point, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if vars(loaded).get(path) is original:
                self._patch(loaded, path, original, wrapped)

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """span name -> [self seconds, seconds, count], all threads merged."""
        merged: dict = {}
        for state in self._threads:
            for name, (self_seconds, seconds, count) in state.totals.items():
                total = merged.setdefault(name, [0.0, 0.0, 0])
                total[0] += self_seconds
                total[1] += seconds
                total[2] += count
        return merged

    def spans(self) -> list:
        """Kept spans of all threads as dicts; ``parent`` indexes this list."""
        result: list = []
        for state in self._threads:
            base = len(result)
            for name, start, end, parent, op, label in state.spans:
                result.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent + base if parent >= 0 else -1,
                        "op": op,
                        "label": label,
                        "thread": state.ident,
                    }
                )
        return result


def adopt_orphans(spans: list, parent_name: str) -> float:
    """Give root spans of other threads the ``parent_name`` span that was
    open around them (same label when both have one): the pool workers of a
    batched ``query_many``, the server-side work of a client's request.
    Returns the adopted seconds, which are not self time of the parents
    (workers that ran side by side count once: at most the parent's
    duration)."""
    parents = sorted(
        (span for span in spans if span["name"] == parent_name), key=lambda s: s["start"]
    )
    index_of = {id(span): index for index, span in enumerate(spans)}
    for span in spans:
        if span["parent"] >= 0 or span["name"] == parent_name:
            continue
        candidates = [
            parent
            for parent in parents
            if parent["thread"] != span["thread"]
            and parent["start"] <= span["start"]
            and span["end"] <= parent["end"]
        ]
        if not candidates:
            continue
        same = [p for p in candidates if span["label"] is None or p["label"] == span["label"]]
        parent = (same or candidates)[0]
        span["parent"] = index_of[id(parent)]
        span["op"] = parent["op"]
        parent["adopted"] = parent.get("adopted", 0.0) + span["end"] - span["start"]
    return sum(
        min(parent.get("adopted", 0.0), parent["end"] - parent["start"]) for parent in parents
    )
