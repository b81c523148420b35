"""The four workloads.

Each workload is fixed work: a *pass* performs the same multiset of
operations every time, in an order the seed shuffles.  A run sets the
program up, runs one untimed warm-up pass, then whole timed passes until
the requested seconds have elapsed, and checks every answer.

``fig7-direct`` / ``fig7-schema``
    In-memory ``Database.from_tree``, result cache off, one closed-loop
    caller, the 19-cell Figure 7 grid with the method forced.
``stored-churn``
    On-disk store with a WAL, caches smaller than the working set,
    ``method="auto"``, one caller, writes interleaved with reads.
``serve-zipf``
    Two shards behind ``QueryServer`` in a child process, two closed-loop
    client connections (``clients=2``) drawing Zipf-skewed queries.
"""

from __future__ import annotations

import bisect
import itertools
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from . import SUITE_DIR, peak_rss_mb, spec
from .oracle import ChurnModel, Truth, check, crash_replay

#: every ablation flips exactly one existing option; ``numpy_kernel`` is
#: flipped for the whole process through ``REPRO_NUMPY`` (see ``run.py``)
ABLATIONS = ("result_cache", "compiled_cache", "posting_cache", "page_cache", "numpy_kernel")
#: what an ablation changes in the keywords of ``Database.open``
ABLATED_OPEN_OPTIONS = {
    "result_cache": {"result_cache_entries": 0},
    "compiled_cache": {"compiled_cache_entries": 0},
    "posting_cache": {"posting_cache_bytes": 0},
    "page_cache": {"page_cache_pages": 0},
}


def in_child(function, *args):
    """``function(*args)`` in a forked child process; its result comes back
    pickled.  For the work whose memory must not count in the peak RSS of
    the process hosting the measured database."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(function, *args).result()


class Recorder:
    """What one phase of a run (timed passes, or the traced pass) saw."""

    def __init__(self) -> None:
        self.reads: list = []  # seconds per read, in stream order
        self.writes: list = []  # seconds per acknowledged mutation
        #: which operation of the pass each read / write was (None: the
        #: reads of a pass are draws, not a fixed list)
        self.read_keys: list = []
        self.write_keys: list = []
        self.other = 0.0  # seconds of acknowledged ops that are neither
        self.methods: dict = {}  # evaluation method -> reads
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        #: timed wall; for a single closed-loop caller the sum of its
        #: operation latencies (answer checks between operations are not the
        #: program's time), for concurrent clients the wall of the passes
        self.wall = 0.0
        #: per finished pass: (reads so far, writes so far, wall so far)
        self.marks: list = []
        self.counters: dict = {}  # summed collect="counters" reports
        self.gauges: dict = {}  # name -> [values] for level-type counters
        self.stall_max = 0.0  # slowest write during which a checkpoint ran
        self.keys_rewritten: list = []
        self.user_bytes_written = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def add_counters(self, counters: dict) -> None:
        for name, value in counters.items():
            if name in GAUGES:
                self.gauges.setdefault(name, []).append(value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value

    def end_pass(self, wall: float) -> None:
        self.wall = wall
        self.marks.append((len(self.reads), len(self.writes), wall))

    @property
    def latency_total(self) -> float:
        return sum(self.reads) + sum(self.writes) + self.other


#: counters that are levels, not sums (averaged over the ops reporting them)
GAUGES = ("schema.final_k", "schema.skeletons_enumerated")


def _pairs(results) -> list:
    return [(result.root, result.cost) for result in results]


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    pool = ""  # which query pool of the inputs it draws from
    clients = 1
    #: which of an operation's repeats over the passes counts towards the
    #: mean (0 = the fastest; see ``measure.query_mean``)
    repeat_quantile = 0.4

    def __init__(self, inputs, oracle, workdir: str, seed: int, ablate=None,
                 in_process_server: bool = False) -> None:
        if ablate is not None and ablate not in self.ablations:
            raise ValueError(f"ablation {ablate!r} does not apply to {self.name}")
        self.inputs = inputs
        self.oracle = oracle
        self.workdir = workdir
        self.seed = seed
        self.ablate = ablate
        self.in_process = in_process_server
        self.tracer = None  # set for the traced pass
        self.phases: dict = {}
        self.user_bytes = inputs.user_bytes

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.seed, self.name, *parts)))

    def begin_op(self, op) -> None:
        if self.tracer is not None:
            self.tracer.set_op(op)

    # the interface ------------------------------------------------------

    ablations: tuple = ()
    #: test hook: damages answers before they are checked
    corrupt = staticmethod(lambda pairs: pairs)

    def first_pass_ops(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Cold set-up to the first answer; fills ``self.phases``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the program (between set-up repetitions and at the end)."""

    def warmup(self) -> None:
        raise NotImplementedError

    def prepare_truth(self) -> None:
        """Whatever the answer checks need beyond the oracle's truths."""

    def distinct_queries(self) -> list:
        return self.inputs.pool(self.pool)

    def run_pass(self, pass_no: int, recorder: Recorder, collect: str = "off") -> None:
        raise NotImplementedError

    def finish(self, recorder: Recorder) -> dict:
        """End-of-run checks and sizes; failures go to ``recorder``.
        ``peak_rss_mb`` is that of the process hosting the database, read
        before any end-of-run check allocates."""
        return {"peak_rss_mb": peak_rss_mb()}

    def cache_stats(self) -> dict:
        return {}

    def timings_sample(self, limit: int = 20) -> "float | None":
        """Mean ``core.materialize`` seconds over a few reads run with
        ``collect="timings"``."""
        return None

    def _materialize_seconds(self, calls: list) -> float:
        """``timings_sample`` for an in-process database: ``calls`` are the
        keyword arguments of the sampled ``Database.query`` calls."""
        return statistics.fmean(
            self.database.query(collect="timings", **call).report.timings.get(
                "core.materialize", 0.0
            )
            for call in calls
        )

    # measurements only some workloads have (traced runs)

    def planner_regret(self) -> dict:
        return {}

    def plan_picks(self) -> "dict | None":
        return None

    def ping_samples(self) -> "list | None":
        return None


# ----------------------------------------------------------------------
# fig7-direct / fig7-schema
# ----------------------------------------------------------------------


class Fig7(Workload):
    method = ""
    pool = "fig7"
    #: forced method, result cache off: a read costs the same whatever ran
    #: before it, so its fastest repeat is its cost
    repeat_quantile = 0.0
    ablations = ("result_cache", "compiled_cache", "numpy_kernel")

    def _ops(self) -> list:
        return [
            (cell, query)
            for cell in spec.FIG7_CELLS
            for query in self.inputs.fig7[cell[:2]]
        ]

    def first_pass_ops(self) -> list:
        ops = self._ops()
        self.rng(0).shuffle(ops)
        return [[spec.cell_name(cell), query.key] for cell, query in ops]

    def setup(self) -> None:
        from repro import Database

        started = time.perf_counter()
        tree = spec.generate_corpus(self.inputs.smoke)
        self.phases["generate_s"] = time.perf_counter() - started
        self.database = Database.from_tree(tree)
        if self.ablate != "result_cache":
            # Figure 7 measures evaluation, not the repeat fast path
            self.database.set_query_cache(result_entries=0)
        if self.ablate == "compiled_cache":
            self.database.set_query_cache(compiled_entries=0)
        query = self.distinct_queries()[0]
        started = time.perf_counter()
        self.database.query(query.text, n=1, costs=query.costs, method=self.method)
        self.phases["first_query_ms"] = (time.perf_counter() - started) * 1e3

    def close(self) -> None:
        self.database = None

    def warmup(self) -> None:
        for query in self.distinct_queries():
            self.database.query(query.text, n=1, costs=query.costs, method=self.method)

    def run_pass(self, pass_no, recorder, collect="off") -> None:
        ops = self._ops()
        self.rng(pass_no).shuffle(ops)
        database, method = self.database, self.method
        for index, (cell, query) in enumerate(ops):
            self.begin_op(f"{pass_no}.{index}")
            n = cell[2]
            recorder.attempted += 1
            started = time.perf_counter()
            try:
                results = database.query(
                    query.text, n=n, costs=query.costs, method=method, collect=collect
                )
            except Exception as error:  # noqa: BLE001 - a failed op is a measurement
                recorder.fail(f"{query.key} n={n}: {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - started
            recorder.reads.append(elapsed)
            recorder.read_keys.append((spec.cell_name(cell), query.key))
            recorder.methods[results.method] = recorder.methods.get(results.method, 0) + 1
            if collect != "off":
                recorder.add_counters(results.report.counters)
            if not check(self.corrupt(_pairs(results)), n, self.oracle.truth(query)):
                recorder.fail(f"{query.key} n={n}: answer differs from the oracle")
        recorder.end_pass(recorder.latency_total)

    def cache_stats(self) -> dict:
        return self.database.query_cache_stats()

    def plan_picks(self) -> dict:
        """What ``Database.plan`` would pick, per cell (schema picks / queries)."""
        picks = {}
        for cell in spec.FIG7_CELLS:
            queries = self.inputs.fig7[cell[:2]]
            schema = sum(
                self.database.plan(q.text, n=cell[2], costs=q.costs).method == "schema"
                for q in queries
            )
            picks[spec.cell_name(cell)] = [schema, len(queries)]
        return picks

    def timings_sample(self, limit: int = 20):
        ops = self._ops()
        return self._materialize_seconds(
            [
                {"text": query.text, "n": cell[2], "costs": query.costs, "method": self.method}
                for cell, query in ops[:: max(1, len(ops) // limit)]
            ]
        )


class Fig7Direct(Fig7):
    name = "fig7-direct"
    method = "direct"


class Fig7Schema(Fig7):
    name = "fig7-schema"
    method = "schema"


# ----------------------------------------------------------------------
# stored-churn
# ----------------------------------------------------------------------


class StoredChurn(Workload):
    name = "stored-churn"
    pool = "churn"
    ablations = ABLATIONS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.model = ChurnModel(self.inputs)
        self.path = os.path.join(self.workdir, "churn.apxq")
        kinds = spec.CHURN_WRITES_PER_KIND
        self._reads = [
            (query, cell[2])
            for cell in spec.CHURN_CELLS
            for query in self.inputs.churn[cell[:2]]
        ]
        #: inserts and deletes cycle contents 0..5; replaces rewrite 6..11
        self._writes = (
            [("insert", c) for c in range(kinds)]
            + [("delete", c) for c in range(kinds)]
            + [("replace", c) for c in range(kinds, 2 * kinds)]
        )

    def _ops(self, pass_no: int) -> list:
        ops = [("read", query, n) for query, n in self._reads] + [
            (kind, content, None) for kind, content in self._writes
        ]
        self.rng(pass_no).shuffle(ops)
        return ops

    def first_pass_ops(self) -> list:
        return [
            [kind, what.key if kind == "read" else what, n]
            for kind, what, n in self._ops(0)
        ]

    def _open_options(self) -> dict:
        options = {
            "durability": "wal",
            "posting_cache_bytes": spec.CHURN_POSTING_CACHE_BYTES,
        }
        options.update(ABLATED_OPEN_OPTIONS.get(self.ablate, {}))
        return options

    def setup(self) -> None:
        from repro import Database

        # the store is built by a process of its own, as `repro build` would:
        # this one hosts the opened store only, so its peak RSS is the
        # store's caches and not the in-memory build
        self.phases.update(in_child(_build_store, self.inputs.smoke, self.path))
        started = time.perf_counter()
        self.database = Database.open(self.path, **self._open_options())
        self.phases["open_s"] = time.perf_counter() - started
        query, n = self._reads[0]
        started = time.perf_counter()
        self.database.query(query.text, n=n, costs=query.costs)
        self.phases["first_query_ms"] = (time.perf_counter() - started) * 1e3
        self.model = ChurnModel(self.inputs)

    def close(self) -> None:
        database = getattr(self, "database", None)
        if database is not None:
            database.close()
            self.database = None

    def prepare_truth(self) -> None:
        for query in self.distinct_queries():
            for content in range(len(self.model.contents)):
                self.model.answers(query, content)

    def warmup(self) -> None:
        # prime the cycling population (one live copy of every content), then
        # touch every query once so lazy builds and first decodes are done
        recorder = Recorder()
        for content in range(len(self.model.contents)):
            self._write("insert", content, recorder, "off")
        if recorder.failed:
            raise SystemExit(f"stored-churn warm-up failed: {recorder.failures}")
        for query in self.distinct_queries():
            self.database.query(query.text, n=1, costs=query.costs)

    def _write(self, kind: str, content: int, recorder: Recorder, collect: str) -> None:
        from repro.telemetry import Telemetry, collecting

        database, model = self.database, self.model
        xml = model.contents[content]
        telemetry = Telemetry() if collect != "off" else None
        recorder.attempted += 1
        try:
            with collecting(telemetry):
                started = time.perf_counter()
                if kind == "insert":
                    report = database.insert_document(xml)
                else:
                    root = model.roots_of(content)[0]
                    if kind == "delete":
                        report = database.delete_document(root)
                    else:
                        report = database.replace_document(root, xml)
                elapsed = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001
            recorder.fail(f"{kind} content {content}: {type(error).__name__}: {error}")
            return
        recorder.writes.append(elapsed)
        recorder.write_keys.append((kind, content))
        recorder.keys_rewritten.append(report.keys_rewritten)
        if kind != "insert":
            model.remove(root)
        if kind != "delete":
            model.add(report.root, content)
            recorder.user_bytes_written += len(xml.encode("utf-8"))
        if telemetry is not None:
            recorder.add_counters(telemetry.counters)
            if telemetry.counters.get("wal.checkpoints"):
                recorder.stall_max = max(recorder.stall_max, elapsed)

    def run_pass(self, pass_no, recorder, collect="off") -> None:
        database = self.database
        for index, (kind, what, n) in enumerate(self._ops(pass_no)):
            self.begin_op(f"{pass_no}.{index}")
            if kind != "read":
                self._write(kind, what, recorder, collect)
                continue
            query = what
            recorder.attempted += 1
            started = time.perf_counter()
            try:
                results = database.query(query.text, n=n, costs=query.costs, collect=collect)
            except Exception as error:  # noqa: BLE001
                recorder.fail(f"{query.key} n={n}: {type(error).__name__}: {error}")
                continue
            recorder.reads.append(time.perf_counter() - started)
            recorder.read_keys.append((query.key, n))
            recorder.methods[results.method] = recorder.methods.get(results.method, 0) + 1
            if collect != "off":
                recorder.add_counters(results.report.counters)
            pairs = self.corrupt(_pairs(results))
            if not self.model.check(pairs, n, query, self.oracle.truth(query)):
                recorder.fail(f"{query.key} n={n}: answer differs from the oracle")
        recorder.end_pass(recorder.latency_total)

    def cache_stats(self) -> dict:
        return self.database.query_cache_stats()

    def timings_sample(self, limit: int = 20):
        return self._materialize_seconds(
            [
                {"text": query.text, "n": n, "costs": query.costs}
                for query, n in self._reads[:: max(1, len(self._reads) // limit)]
            ]
        )

    def planner_regret(self) -> dict:
        """Time every (query, n) of the pool under both forced methods
        (result cache off) and compare with what ``auto`` picks."""
        from repro.querycache import DEFAULT_RESULT_ENTRIES

        database = self.database
        database.set_query_cache(result_entries=0)
        picked_total = best_total = 0.0
        optimal = 0
        try:
            for query, n in self._reads:
                seconds = {}
                for method in ("direct", "schema"):
                    started = time.perf_counter()
                    database.query(query.text, n=n, costs=query.costs, method=method)
                    seconds[method] = time.perf_counter() - started
                picked = database.plan(query.text, n=n, costs=query.costs).method
                picked_total += seconds[picked]
                best_total += min(seconds.values())
                optimal += seconds[picked] == min(seconds.values())
        finally:
            database.set_query_cache(
                result_entries=0 if self.ablate == "result_cache" else DEFAULT_RESULT_ENTRIES
            )
        return {
            "planner.regret_ratio": picked_total / best_total,
            "planner.optimal_choice_share": optimal / len(self._reads),
        }

    def finish(self, recorder: Recorder) -> dict:
        from repro.storage import FileStore

        detail = super().finish(recorder)
        detail["rebuild_mismatches"] = self._compare_with_rebuild(recorder)
        # a mutation tail for the kill test, drawn from the final model
        contents = self.model.contents
        tail = [
            ("insert", contents[0]),
            ("delete", self.model.roots_of(1)[0]),
            ("replace", self.model.roots_of(6)[0], contents[6]),
            ("insert", contents[2]),
            ("delete", self.model.roots_of(3)[0]),
            ("replace", self.model.roots_of(7)[0], contents[7]),
        ]
        self.close()
        with FileStore(self.path, durability="wal", must_exist=True) as store:
            store.checkpoint()
        wal = self.path + "-wal"
        stored = os.path.getsize(self.path) + (os.path.getsize(wal) if os.path.exists(wal) else 0)
        detail["store_bytes"] = stored
        detail["user_bytes"] = self.user_bytes
        detail["store_bytes_per_user_byte"] = stored / self.user_bytes
        crash = crash_replay(self.path, self.workdir, tail, self.seed)
        detail["crash_replay"] = crash
        recorder.attempted += crash["checks"]
        for _ in range(crash["lost"]):
            recorder.fail("an acknowledged write did not survive the simulated kill")
        return detail

    def _compare_with_rebuild(self, recorder: Recorder) -> int:
        """Rebuild the collection from the model document list and compare
        the whole pool (every query at its largest n) on the final state."""
        from repro import Database

        rebuilt = Database.from_documents(self.model.documents())
        stored_roots = list(self.database.documents())
        rebuilt_roots = list(rebuilt.documents())
        mismatches = 0
        if len(stored_roots) != len(rebuilt_roots):
            recorder.attempted += 1
            recorder.fail(
                f"store has {len(stored_roots)} documents, model {len(rebuilt_roots)}"
            )
            return 1
        largest: dict = {}
        for query, n in self._reads:
            if n >= largest.get(query.key, (None, 0))[1]:
                largest[query.key] = (query, n)
        for query, n in largest.values():
            recorder.attempted += 1
            results = self.database.query(query.text, n=n, costs=query.costs)
            full = rebuilt.query(query.text, n=None, costs=query.costs, method="direct")
            translated = []
            for root, cost in _pairs(results):
                position = bisect.bisect_right(stored_roots, root) - 1
                translated.append(
                    (rebuilt_roots[position] + root - stored_roots[position], cost)
                )
            if not check(translated, n, Truth(_pairs(full))):
                mismatches += 1
                recorder.fail(f"{query.key} n={n}: store differs from the rebuilt model")
        return mismatches


def _build_store(smoke: bool, path: str) -> dict:
    """Generate the corpus and save it as a WAL store (in a child)."""
    from repro import Database

    started = time.perf_counter()
    tree = spec.generate_corpus(smoke)
    generated = time.perf_counter()
    if os.path.exists(path):
        os.remove(path)
    Database.from_tree(tree).save(path, durability="wal")
    return {"generate_s": generated - started, "save_s": time.perf_counter() - generated}


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------


class ServeZipf(Workload):
    name = "serve-zipf"
    pool = "serve"
    clients = spec.SERVE_CLIENTS
    ablations = ABLATIONS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.directory = os.path.join(self.workdir, "serve.d")
        pool = len(self.inputs.serve)
        weights = [1.0 / (rank + 1) ** spec.SERVE_ZIPF_S for rank in range(pool)]
        self._cumulative = list(itertools.accumulate(weights))
        self._per_client = (
            (200 if self.inputs.smoke else spec.SERVE_QUERIES_PER_PASS) // self.clients
        )
        self._pad = min(self.inputs.documents, key=len)
        self._child = None
        self._child_report: dict = {}  # what the server child printed at shutdown
        self._thread = None
        self._clients: list = []

    def _draws(self, pass_no: int, client: int) -> list:
        return self.rng(pass_no, client).choices(
            range(len(self.inputs.serve)), cum_weights=self._cumulative, k=self._per_client
        )

    def first_pass_ops(self) -> list:
        return [self._draws(0, client) for client in range(self.clients)]

    def _open_options(self) -> dict:
        return ABLATED_OPEN_OPTIONS.get(self.ablate, {})

    def setup(self) -> None:
        from repro import ServeClient, ShardedDatabase

        started = time.perf_counter()
        tree = spec.generate_corpus(self.inputs.smoke)
        self.phases["generate_s"] = time.perf_counter() - started
        shutil.rmtree(self.directory, ignore_errors=True)
        started = time.perf_counter()
        ShardedDatabase.from_tree(tree, shards=spec.SERVE_SHARDS).save(self.directory)
        self.phases["save_s"] = time.perf_counter() - started
        del tree
        started = time.perf_counter()
        if self.in_process:
            from repro import ServerThread

            self.database = ShardedDatabase.open(self.directory, **self._open_options())
            self._thread = ServerThread(self.database)
            address = self._thread.start()
        else:
            address = self._start_child()
        self.phases["open_s"] = time.perf_counter() - started
        self._clients = [ServeClient(*address) for _ in range(self.clients + 1)]
        started = time.perf_counter()
        self._clients[0].ping()
        self._clients[0].query(self.inputs.serve[0].text, n=spec.SERVE_N)
        self.phases["first_query_ms"] = (time.perf_counter() - started) * 1e3

    def _start_child(self):
        command = [
            sys.executable,
            os.path.join(SUITE_DIR, "server_child.py"),
            self.directory,
            json.dumps(self._open_options()),
        ]
        self._child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self._child.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise SystemExit(f"server child failed to start: {line!r}")
        return "127.0.0.1", int(line.split()[1])

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
            self.database.close()
        child, self._child = self._child, None
        if child is not None:
            try:
                child.stdin.write("stop\n")
                child.stdin.flush()
                report = child.stdout.readline()
                self._child_report = json.loads(report) if report.strip() else {}
                child.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                child.kill()
                child.wait()
            finally:
                child.stdin.close()
                child.stdout.close()

    def warmup(self) -> None:
        recorder = Recorder()
        self.run_pass(-1, recorder)
        if recorder.failed:
            raise SystemExit(f"serve-zipf warm-up failed: {recorder.failures}")

    def _invalidate(self, recorder: Recorder) -> None:
        """One small document in and out through the server: answers are
        unchanged, every cached result prefix is stale."""
        admin = self._clients[-1]
        recorder.attempted += 2
        started = time.perf_counter()
        try:
            root = admin.insert(self._pad)["root"]
            admin.delete(root)
        except Exception as error:  # noqa: BLE001
            recorder.fail(f"invalidate: {type(error).__name__}: {error}")
        recorder.other += time.perf_counter() - started

    def run_pass(self, pass_no, recorder, collect="off") -> None:
        pass_started = time.perf_counter()
        self.begin_op(f"{pass_no}.invalidate")
        self._invalidate(recorder)
        queries = self.inputs.serve
        outcomes: list = [[] for _ in range(self.clients)]

        def drive(client_index: int) -> None:
            client = self._clients[client_index]
            out = outcomes[client_index]
            for index, rank in enumerate(self._draws(pass_no, client_index)):
                self.begin_op(f"{pass_no}.{client_index}.{index}")
                started = time.perf_counter()
                try:
                    response = client.query(queries[rank].text, n=spec.SERVE_N, collect=collect)
                except Exception as error:  # noqa: BLE001
                    out.append((rank, None, f"{type(error).__name__}: {error}"))
                    continue
                out.append((rank, time.perf_counter() - started, response))

        threads = [
            threading.Thread(target=drive, args=(index,), name=f"client-{index}")
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = recorder.wall + time.perf_counter() - pass_started
        for rank, elapsed, response in itertools.chain.from_iterable(outcomes):
            recorder.attempted += 1
            query = queries[rank]
            if elapsed is None:
                recorder.fail(f"{query.key}: {response}")
                continue
            recorder.reads.append(elapsed)
            recorder.read_keys.append(None)
            report = response["report"]
            method = report["method"]
            recorder.methods[method] = recorder.methods.get(method, 0) + 1
            if collect != "off":
                recorder.add_counters(report["counters"])
            pairs = self.corrupt(
                [(entry["root"], entry["cost"]) for entry in response["results"]]
            )
            if not check(pairs, spec.SERVE_N, self.oracle.truth(query)):
                recorder.fail(f"{query.key}: answer differs from the oracle")
        recorder.end_pass(wall)

    def cache_stats(self) -> dict:
        return self._clients[-1].stats()

    def ping_samples(self, count: int = 200) -> list:
        client = self._clients[0]
        samples = []
        for _ in range(count):
            started = time.perf_counter()
            client.ping()
            samples.append(time.perf_counter() - started)
        return samples

    def timings_sample(self, limit: int = 20):
        samples = []
        self._invalidate(Recorder())
        for query in self.inputs.serve[:limit]:
            report = self._clients[0].query(query.text, n=spec.SERVE_N, collect="timings")
            samples.append(report["report"]["timings"].get("core.materialize", 0.0))
        return statistics.fmean(samples)

    def finish(self, recorder: Recorder) -> dict:
        detail = {"server_stats": self.cache_stats()}
        self.close()
        # the server child reports its own peak when it shuts down
        detail["peak_rss_mb"] = (
            peak_rss_mb() if self.in_process else self._child_report["peak_rss_mb"]
        )
        stored = sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
        )
        detail["store_bytes"] = stored
        detail["user_bytes"] = self.user_bytes
        detail["store_bytes_per_user_byte"] = stored / self.user_bytes
        return detail


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Fig7Direct, Fig7Schema, StoredChurn, ServeZipf)
}
