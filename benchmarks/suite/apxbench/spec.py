"""Pinned inputs and metric tables of the benchmark suite.

Everything the four workloads consume is defined here and generated from
code, never read from ``repro.bench``: editing that package's ``SCALES``
table cannot move the benchmark.

What ``--seed`` controls
------------------------
The corpus and the query pools are **pinned** (``PINNED_SEED``): per-query
cost on this engine is heavy-tailed (one pattern-3 query can cost 100x the
next), so a metric over seed-derived queries would spread far wider across
seeds than any regression bound.  ``--seed`` derives what a real caller
varies from run to run — the order of the operations, the interleaving of
writes with reads, and the Zipf draws of the serving clients.  The same
seed gives the same operation stream; every pass performs the same
multiset of operations, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import sys
from dataclasses import dataclass

from . import REPO_ROOT

PINNED_SEED = 42
#: base seed of the query pools: the one ``repro.bench.workloads`` has always
#: used (``7 + 1000 * pattern + renamings``), so the Figure 7 cells are filled
#: with the query sets EXPERIMENTS.md was measured on.  Other seeds move a
#: schema pass between 8 s and 31 s (one pattern-3 query: 20 s).
QUERY_SEED = 7

#: equal to today's ``small`` scale of ``repro.bench.workloads`` (about
#: 165k nodes, 190 documents, a 4.4 MB store), restated so that table can
#: change without moving the benchmark
CORPUS = dict(
    num_elements=15_000,
    num_element_names=100,
    num_terms=4_000,
    num_term_occurrences=150_000,
    mode="dtd",
    dtd_size=120,
    seed=PINNED_SEED,
)
#: seconds-long size for the self-test (``--smoke``)
SMOKE_CORPUS = dict(CORPUS, num_elements=3_000, num_terms=800, num_term_occurrences=20_000)

# ----------------------------------------------------------------------
# Figure 7 grid (fig7-direct and fig7-schema)
# ----------------------------------------------------------------------

#: (pattern, renamings per label, n): 19 cells, 3 queries each (the first
#: three of each historical 10-query set; five would make a pass longer
#: than the share of a run that can be spent timing it three times)
FIG7_CELLS = (
    [(1, r, n) for r in (0, 5, 10) for n in (1, 10, 100)]
    + [(2, r, n) for r in (0, 5) for n in (1, 10, 100)]
    + [(3, r, n) for r in (0, 5) for n in (1, 10)]
)
FIG7_QUERIES_PER_CELL = 3
#: cells of the paper's Figure 7 that are left out, and why; re-adding
#: them is a future benchmark issue
FIG7_EXCLUDED = {
    "p3 r5 n>=100": "schema evaluation takes ~127 s per query at this commit "
    "(the Section 7 blow-up); one such operation is longer than a whole run",
    "p2/p3 r10": "same blow-up: seconds to minutes per query under method='schema'",
    "n=1000, n=inf": "direct cost is flat in n and schema cost grows past the run "
    "length; the n<=100 cells carry the comparison",
}

# ----------------------------------------------------------------------
# stored-churn
# ----------------------------------------------------------------------

CHURN_QUERIES_PER_SET = 6
#: p1-p3 x r{0,5} x 6 queries at n in {1, 10}, minus p3 x r5 x n=10: under
#: method="auto" single queries of that cell take 2-9 s at this commit,
#: which would make one operation most of a run
CHURN_CELLS = [
    (p, r, n)
    for p in (1, 2, 3)
    for r in (0, 5)
    for n in (1, 10)
    if not (p == 3 and r == 5 and n == 10)
]
#: writes per pass and kind; with 66 reads a pass is 21 % writes
CHURN_WRITES_PER_KIND = 6
CHURN_POSTING_CACHE_BYTES = 256 * 1024

# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------

SERVE_SHARDS = 2
SERVE_CLIENTS = 2
SERVE_POOL = 120
SERVE_ZIPF_S = 1.1
SERVE_N = 10
#: queries per pass, split evenly over the clients; between passes one small
#: document is inserted and deleted through the server, which invalidates
#: the result cache the way an occasional writer would, so that every pass
#: has the same share of misses however long the run is
SERVE_QUERIES_PER_PASS = 1_000

WORKLOADS = {
    "fig7-direct": "Figure 7 direct curves: engine and xmltree.indexes do the work, "
    "schema/planner/storage/querycache none; a list-algebra change must show here",
    "fig7-schema": "Figure 7 schema curves: schema top-k, secondary and k-growth do the "
    "work, engine none; dominated by the bounded edge of the Section 7 blow-up",
    "stored-churn": "on-disk store, writes beside reads, working set larger than the "
    "caches: storage, core.mutation, invalidation and the planner carry the cost",
    "serve-zipf": "2-shard store behind the TCP server, Zipf-skewed repeats: server, "
    "shard and querycache dominate, the layers the other three bypass",
}

# ----------------------------------------------------------------------
# metric tables: name, unit, better, bound (share of the parent's median)
# ----------------------------------------------------------------------

#: The timing bounds are 25 %, not the 10 % one would like: on the 2-core
#: VM this was built on, ten runs of the *same* operations spread (inter-
#: quartile distance / median) by 3-9 % on the means in quiet minutes and
#: 8-16 % in noisy ones, and a bound has to be well above the spread for a
#: regression to be resolvable at all.
#:
#: ``END_TO_END`` is what ``BENCHMARK.json`` lists as end-to-end: metrics
#: that exist on every workload, are never 0, and stay inside their bound
#: run to run even in the machine's noisy minutes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("query_mean_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]
#: End-to-end metrics the driver does not gate: the percentiles and the
#: rate run over the pooled raw samples (so that one-off stalls stay
#: visible) and spread up to 25-30 % when the machine is noisy; the write
#: and space metrics exist on some workloads only; and
#: ``failed_share`` is 0 when all is well (the driver wants every gated
#: metric non-zero on every workload and inside its bound).  They are
#: measured by every untraced run, judged by ``run.py compare`` against
#: the bounds here, and listed in ``BENCHMARK.json`` beside the per-layer
#: metrics (a traced run prints them from its untraced pass).
END_TO_END_UNGATED = [
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p95_ms", "ms", "lower", 0.25),
    ("store_bytes_per_user_byte", "ratio", "lower", 0.02),
    ("failed_share", "ratio", "lower", 0.0),
]

ENGINE_OPS = ("join", "outerjoin", "intersect", "union", "merge")
PER_LAYER = (
    [
        ("approxql.parse.us", "us", "lower"),
        ("approxql.expand.us", "us", "lower"),
        ("approxql.expand.nodes", "count", "lower"),
        ("planner.choose.us", "us", "lower"),
        ("planner.schema_share", "ratio", "lower"),
        ("planner.optimal_choice_share", "ratio", "higher"),
        ("planner.regret_ratio", "ratio", "lower"),
        ("querycache.compiled_hit_ratio", "ratio", "higher"),
        ("querycache.result_hit_ratio", "ratio", "higher"),
        ("querycache.result_invalidations", "count", "lower"),
        ("querycache.resumed_rounds", "count", "higher"),
        ("engine.evaluate.self_ms", "ms", "lower"),
        ("engine.postings_fetched", "count", "lower"),
        ("engine.lists_materialized", "count", "lower"),
        ("engine.memo_hit_ratio", "ratio", "higher"),
    ]
    + [(f"engine.ops.{op}.ns_per_entry", "ns", "lower") for op in ENGINE_OPS]
    + [
        ("schema.evaluate.self_ms", "ms", "lower"),
        ("schema.topk.self_ms", "ms", "lower"),
        ("schema.secondary.self_ms", "ms", "lower"),
        ("schema.rounds", "count", "lower"),
        ("schema.final_k", "count", "lower"),
        ("schema.skeletons_enumerated", "count", "lower"),
        ("schema.second_level_executed", "count", "lower"),
        ("schema.second_level_useful_ratio", "ratio", "higher"),
        ("schema.kdoubling_restarts", "count", "lower"),
        ("schema.sec_postings", "count", "lower"),
        ("xmltree.index.fetch.self_ms", "ms", "lower"),
        ("xmltree.index.fetches", "count", "lower"),
        ("xmltree.index.postings", "count", "lower"),
        ("xmltree.parse.mb_per_s", "MB/s", "higher"),
        ("storage.pages_read", "count", "lower"),
        ("storage.pages_written", "count", "lower"),
        ("storage.page_hit_ratio", "ratio", "higher"),
        ("storage.posting_hit_ratio", "ratio", "higher"),
        ("storage.btree.node_visits_per_get", "count", "lower"),
        ("storage.kv.get.self_ms", "ms", "lower"),
        ("storage.codec.entries_decoded", "count", "lower"),
        ("storage.codec.decode.ns_per_entry", "ns", "lower"),
        ("storage.codec.encode.ns_per_entry", "ns", "lower"),
        ("storage.wal.bytes_per_user_byte", "ratio", "lower"),
        ("storage.wal.commits", "count", "lower"),
        ("storage.wal.checkpoints", "count", "lower"),
        ("storage.wal.checkpoint_stall_max_ms", "ms", "lower"),
        ("core.query.self_ms", "ms", "lower"),
        ("core.materialize.ms", "ms", "lower"),
        ("core.insert.p50_ms", "ms", "lower"),
        ("core.delete.p50_ms", "ms", "lower"),
        ("core.replace.p50_ms", "ms", "lower"),
        ("core.mutation.keys_rewritten_per_op", "count", "lower"),
        ("core.save.s", "s", "lower"),
        ("core.open.s", "s", "lower"),
        ("core.first_query_ms", "ms", "lower"),
        ("shard.query.self_ms", "ms", "lower"),
        ("shard.fanout", "count", "lower"),
        ("shard.skew_ratio", "ratio", "lower"),
        ("server.ping.p50_ms", "ms", "lower"),
        ("server.overhead.p50_ms", "ms", "lower"),
        ("server.protocol.codec.us", "us", "lower"),
        ("server.mean_batch_size", "count", "higher"),
        ("server.rejections", "count", "lower"),
    ]
    + [(f"fig7.p{p}.r{r}.n{n}.mean_ms", "ms", "lower") for p, r, n in FIG7_CELLS]
    + [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage_ratio", "ratio", "higher"),
    ]
    + [metric[:3] for metric in END_TO_END_UNGATED]
)

#: SHA-256 over corpus XML + query texts + cost files (seed-independent),
#: and over that plus the first-pass operation streams at seed 42.  A
#: ``datagen``/``querygen`` change that moves the inputs fails the run.
PINNED_INPUT_DIGEST = "bded48fcd56d2e95a8cc656b511e6b5a69ce0d9cb7054d6565e9b621ad245f81"
PINNED_STREAM_DIGEST_SEED_42 = {
    "fig7-direct": "62701f8a02ec2dfed76bc72976ef7a1b2c3f7e35c5a64f0b1b29f67512813cda",
    "fig7-schema": "ee6721760a4d5d1de5018b204326594c93e3de924e7a3bf2e5ca4917d9d1518d",
    "stored-churn": "5aeb4c1730e442cffb76b7fa1d2a85f29bf9486448848f1506e376794ad74c85",
    "serve-zipf": "0aba92271a4762ac23db7c25b9a616b1743bba82cd3f686f1a0788b2c8e5ed45",
}


def cell_name(cell: tuple) -> str:
    pattern, renamings, n = cell
    return f"p{pattern}.r{renamings}.n{n}"


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One pinned query: AST + cost model for in-process callers, text for
    the wire and the digest."""

    key: str
    query: object
    costs: object
    text: str


@dataclass
class Inputs:
    """The generated inputs shared by every workload of one run (built in
    a child process and pickled across, see ``oracle.prepare``)."""

    smoke: bool
    documents: list  # XML text of every corpus document, in root order
    fig7: dict  # (pattern, renamings) -> [Query]
    churn: dict  # (pattern, renamings) -> [Query]
    serve: list  # [Query] in Zipf rank order
    churn_documents: list  # 12 median-sized documents (XML text)
    digest: str

    @property
    def user_bytes(self) -> int:
        return sum(len(document.encode("utf-8")) for document in self.documents)

    def pool(self, name: str) -> list:
        """Every query of the pool ``fig7``, ``churn`` or ``serve``."""
        group = getattr(self, name)
        if isinstance(group, dict):
            return [query for queries in group.values() for query in queries]
        return group


def generate_corpus(smoke: bool = False):
    """The pinned collection as a fresh ``DataTree`` (deterministic)."""
    from repro.datagen import GeneratorConfig, generate_collection

    return generate_collection(GeneratorConfig(**(SMOKE_CORPUS if smoke else CORPUS))).tree


def _generated_queries(indexes, pattern: int, renamings: int, count: int, tag: int) -> list:
    """``count`` queries of one (pattern, renamings) set from ``repro.querygen``.
    Queries naming the ``#root`` super-root (as a label or a renaming
    target) are skipped: such text does not parse back, and an answer at
    the super-root depends on every document at once, which the per-document
    oracle of ``stored-churn`` cannot decompose."""
    from repro.querygen import PAPER_PATTERNS, QueryGenerator, QueryGenOptions

    generator = QueryGenerator(
        indexes,
        QueryGenOptions(renamings_per_label=renamings),
        seed=QUERY_SEED + tag + 1000 * pattern + renamings,
    )
    queries: list = []
    while len(queries) < count:
        generated = generator.generate(PAPER_PATTERNS[pattern])
        text = generated.unparse()
        if "#" in text or any("#" in line for line in generated.costs.to_lines()):
            continue
        key = f"p{pattern}.r{renamings}.q{len(queries)}"
        queries.append(Query(key, generated.query, generated.costs, text))
    return queries


def _corpus_path_queries(tree, count: int) -> list:
    """Patterns 1 and 2 filled with labels of paths that occur in the corpus.

    ``serve-zipf`` queries travel the wire without a cost model, and under
    the default model (no deletions, no renamings) querygen's random fill
    matches nothing (2 of 120 queries had an answer), which would make the
    answer check vacuous.  Every query built here has at least one answer.
    """
    from repro import parse_query
    from repro.xmltree import NodeType

    rng = random.Random(f"{PINNED_SEED}:serve-pool")
    labels, types, parents = tree.labels, tree.types, tree.parents
    words = [pre for pre in range(len(tree)) if types[pre] == NodeType.TEXT]
    texts: dict = {}
    while len(texts) < count:
        word = rng.choice(words)
        a1 = parents[word]
        a2 = parents[a1]
        if a2 <= 0:
            continue
        if len(texts) % 2 == 0:
            a3 = parents[a2]
            if a3 <= 0:
                continue
            text = f'{labels[a3]}[{labels[a2]}[{labels[a1]}["{labels[word]}"]]]'
        else:
            siblings = [
                pre for pre in tree.children(a1) if types[pre] == NodeType.TEXT
            ]
            second = labels[rng.choice(siblings)]
            third = labels[rng.choice(words)]
            text = (
                f'{labels[a2]}[{labels[a1]}["{labels[word]}" and '
                f'("{second}" or "{third}")]]'
            )
        texts.setdefault(text, None)
    return [
        Query(f"serve.q{rank}", parse_query(text), None, text)
        for rank, text in enumerate(texts)
    ]


def _median_documents(documents: list, count: int) -> list:
    """The ``count`` distinct documents closest to the median size."""
    by_size = sorted(set(documents), key=lambda text: (len(text), text))
    middle = len(by_size) // 2
    start = max(0, min(middle - count // 2, len(by_size) - count))
    return by_size[start : start + count]


def build_inputs(tree, smoke: bool = False) -> Inputs:
    """The inputs over ``tree`` (a ``generate_corpus(smoke)``)."""
    from repro.xmltree import MemoryNodeIndexes, subtree_to_xml

    documents = [subtree_to_xml(tree, root) for root in tree.document_roots()]
    indexes = MemoryNodeIndexes(tree)
    per_cell = 1 if smoke else FIG7_QUERIES_PER_CELL
    per_set = 2 if smoke else CHURN_QUERIES_PER_SET
    fig7 = {
        (p, r): _generated_queries(indexes, p, r, per_cell, 0)
        for p, r in sorted({(p, r) for p, r, _ in FIG7_CELLS})
    }
    churn = {
        (p, r): _generated_queries(indexes, p, r, per_set, 500)
        for p, r in sorted({(p, r) for p, r, _ in CHURN_CELLS})
    }
    serve = _corpus_path_queries(tree, 24 if smoke else SERVE_POOL)
    churn_documents = _median_documents(documents, 2 * CHURN_WRITES_PER_KIND)
    digest = hashlib.sha256()
    for document in documents:
        digest.update(document.encode("utf-8"))
    for group in (*fig7.values(), *churn.values(), serve):
        for query in group:
            digest.update(query.text.encode("utf-8"))
            if query.costs is not None:
                digest.update("\n".join(query.costs.to_lines()).encode("utf-8"))
    for document in churn_documents:
        digest.update(document.encode("utf-8"))
    return Inputs(
        smoke=smoke,
        documents=documents,
        fig7=fig7,
        churn=churn,
        serve=serve,
        churn_documents=churn_documents,
        digest=digest.hexdigest(),
    )


def stream_digest(ops: list) -> str:
    """SHA-256 of one pass's operation stream (a list of JSON-able rows)."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode("utf-8")).hexdigest()


def check_pinned(inputs: Inputs, workload: str, seed: int, first_pass: list) -> dict:
    """Compare the generated inputs with the pinned digests; raises on
    drift.  The smoke size has no pin."""
    stream = stream_digest(first_pass)
    if not inputs.smoke:
        if inputs.digest != PINNED_INPUT_DIGEST:
            raise SystemExit(
                f"input drift: corpus/query digest {inputs.digest} != pinned "
                f"{PINNED_INPUT_DIGEST} (did repro.datagen or repro.querygen change?)"
            )
        pinned = PINNED_STREAM_DIGEST_SEED_42.get(workload)
        if seed == PINNED_SEED and pinned is not None and stream != pinned:
            raise SystemExit(
                f"input drift: {workload} operation stream at seed {seed} has digest "
                f"{stream}, pinned {pinned}"
            )
    return {"inputs": inputs.digest, "stream": stream}


def environment(seed: int) -> dict:
    """The fingerprint every result file carries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "git_sha": _git_sha(REPO_ROOT),
        "seed": seed,
    }


def _git_sha(root: str) -> "str | None":
    """HEAD of the checkout, read from ``.git`` without running git (the
    driver's checkout is not a repository: None there)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None
