"""Command-line interface: build, inspect, and query collections.

Examples::

    python -m repro build catalog.apxq docs/*.xml
    python -m repro query catalog.apxq 'cd[title["piano"]]' -n 5
    python -m repro query docs/catalog.xml 'cd[title["piano"]]' --costs costs.txt
    python -m repro query catalog.apxq 'cd[title["piano"]]' --explain
    python -m repro query catalog.apxq 'cd[title["piano"]]' --stats
    python -m repro plan catalog.apxq 'cd[title["piano"]]' -n 5
    python -m repro info catalog.apxq
    python -m repro schema catalog.apxq
    python -m repro build catalog.apxq docs/*.xml --durability wal
    python -m repro insert catalog.apxq new-disc.xml --durability wal
    python -m repro delete catalog.apxq 42
    python -m repro replace catalog.apxq 42 fixed-disc.xml
    python -m repro verify catalog.apxq
    python -m repro build catalog.d docs/*.xml --shards 4
    python -m repro serve catalog.apxq --port 7733
"""

from __future__ import annotations

import argparse
import sys
import time

from ..approxql.costs import CostModel
from ..errors import ReproError
from ..shard import ShardedDatabase, is_sharded_directory
from .database import Database
from .persist import StoreOptions

_DB_SUFFIX = ".apxq"


def _store_options(args: argparse.Namespace) -> StoreOptions:
    """The CLI's storage flags as the one shared keyword surface
    (:class:`~repro.core.persist.StoreOptions`) that
    :meth:`Database.open` / :meth:`Database.save` also take."""
    return StoreOptions(
        page_cache_pages=getattr(args, "page_cache_pages", None),
        posting_cache_bytes=getattr(args, "posting_cache_bytes", None),
        durability=getattr(args, "durability", "none") or "none",
        wal_checkpoint_bytes=getattr(args, "wal_checkpoint_bytes", None),
        compiled_cache_entries=getattr(args, "compiled_cache_entries", None),
        result_cache_entries=getattr(args, "result_cache_entries", None),
    )


def _open_database(args: argparse.Namespace):
    """A single ``.apxq`` path opens a saved database, a sharded
    directory (one holding a ``MANIFEST.json``) opens a
    :class:`~repro.shard.ShardedDatabase` (both honoring the cache and
    durability knobs); anything else is read as XML documents."""
    sources = args.sources
    if len(sources) == 1 and is_sharded_directory(sources[0]):
        return ShardedDatabase.open(sources[0], _store_options(args))
    if len(sources) == 1 and sources[0].endswith(_DB_SUFFIX):
        return Database.open(sources[0], _store_options(args))
    documents = []
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            documents.append(handle.read())
    database = Database.from_xml(*documents)
    # the hot-query cache knobs apply to ad-hoc XML sources too
    database.set_query_cache(
        getattr(args, "compiled_cache_entries", None),
        getattr(args, "result_cache_entries", None),
    )
    return database


def _open_stored(args: argparse.Namespace):
    """Open the saved database (file or sharded directory) a mutation
    command targets."""
    if is_sharded_directory(args.database):
        return ShardedDatabase.open(args.database, _store_options(args))
    if not args.database.endswith(_DB_SUFFIX):
        raise ReproError(
            f"mutation commands need a saved {_DB_SUFFIX} database or a "
            f"sharded directory, got {args.database!r}"
        )
    return Database.open(args.database, _store_options(args))


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """Read-path cache knobs, honored when the source is a saved database."""
    parser.add_argument(
        "--page-cache-pages",
        type=int,
        default=None,
        metavar="N",
        help="pager LRU cache capacity in pages (0 disables; default 256)",
    )
    parser.add_argument(
        "--posting-cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="decoded posting cache budget in bytes (0 disables; default 8 MiB)",
    )
    parser.add_argument(
        "--compiled-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="compiled-query cache capacity in entries (0 disables; default 256)",
    )
    parser.add_argument(
        "--result-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="best-n result cache capacity in entries (0 disables; default 128)",
    )
    _add_durability_options(parser)


def _add_durability_options(parser: argparse.ArgumentParser) -> None:
    """Durability knobs: WAL vs. straight-through writes."""
    parser.add_argument(
        "--durability",
        choices=("none", "wal"),
        default="none",
        help="crash story for writes: 'wal' logs every page write and makes "
        "commits atomic; 'none' (default) writes straight through",
    )
    parser.add_argument(
        "--wal-checkpoint-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="WAL size that triggers folding the log back into the main "
        "file (default 4 MiB; only with --durability wal)",
    )


def _load_costs(path: "str | None") -> "CostModel | None":
    if path is None:
        return None
    return CostModel.load(path)


def _command_build(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.shards is not None:
        documents = []
        for path in args.sources:
            with open(path, encoding="utf-8") as handle:
                documents.append(handle.read())
        database = ShardedDatabase.from_documents(
            documents, shards=args.shards, partitioner=args.partitioner
        )
        database.save(args.output, _store_options(args))
    else:
        database = _open_database(args)
        database.save(args.output, _store_options(args))
    elapsed = time.perf_counter() - start
    print(f"built {args.output}: {database.describe().splitlines()[0]} ({elapsed:.1f}s)")
    return 0


def _command_insert(args: argparse.Namespace) -> int:
    database = _open_stored(args)
    with open(args.document, encoding="utf-8") as handle:
        xml = handle.read()
    with database:
        report = database.insert_document(xml)
    print(report.format())
    return 0


def _command_delete(args: argparse.Namespace) -> int:
    database = _open_stored(args)
    with database:
        report = database.delete_document(args.root)
    print(report.format())
    return 0


def _command_replace(args: argparse.Namespace) -> int:
    database = _open_stored(args)
    with open(args.document, encoding="utf-8") as handle:
        xml = handle.read()
    with database:
        report = database.replace_document(args.root, xml)
    print(report.format())
    return 0


def _command_documents(args: argparse.Namespace) -> int:
    database = _open_database(args)
    if isinstance(database, ShardedDatabase):
        for entry in database.manifest.live_documents():
            print(f"{entry.global_root}\tshard {entry.shard}\t{entry.nodes} nodes")
        return 0
    tree = database.tree
    for root in database.documents():
        print(f"{root}\t{tree.label(root)}\t{tree.bounds[root] - root + 1} nodes")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from ..storage.verify import verify_store

    report = verify_store(args.path)
    print(report.format())
    return 0 if report.ok else 1


def _command_query(args: argparse.Namespace) -> int:
    database = _open_database(args)
    costs = _load_costs(args.costs)
    n = None if args.n == 0 else args.n
    start = time.perf_counter()
    if args.explain:
        explanations = database.explain(args.query, n=n, costs=costs)
        elapsed = time.perf_counter() - start
        for explanation in explanations:
            print(explanation.format())
        print(f"-- {len(explanations)} result(s) in {elapsed * 1000:.1f} ms")
        return 0
    collect = "timings" if args.stats else "off"
    results = database.query(args.query, n=n, costs=costs, method=args.method, collect=collect)
    elapsed = time.perf_counter() - start
    for result in results:
        if args.xml:
            print(f"{result.cost}\t{result.xml()}")
        else:
            words = " ".join(result.words()[:10])
            print(f"{result.cost}\t{result.path}\t{words}")
    method = results.method if results.method is not None else args.method
    print(f"-- {len(results)} result(s) in {elapsed * 1000:.1f} ms ({method})")
    if args.stats:
        print(results.report.format())
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    database = _open_database(args)
    n = None if args.n == 0 else args.n
    plan = database.plan(args.query, n=n, method=args.method)
    print(plan.format(verbose=args.verbose))
    return 0


def _command_info(args: argparse.Namespace) -> int:
    database = _open_database(args)
    print(database.describe())
    from ..xmltree.model import NodeType

    if isinstance(database, ShardedDatabase):
        for index, shard in enumerate(database.shard_databases()):
            print(f"  shard {index}: {shard.describe()}")
        return 0
    tree = database.tree
    struct_count = tree.types.count(NodeType.STRUCT)
    text_count = len(tree) - struct_count
    print(f"  struct nodes: {struct_count}")
    print(f"  text nodes:   {text_count}")
    print(f"  documents:    {len(tree.document_roots())}")
    print(f"  schema size:  {len(database.schema)} classes")
    return 0


def _command_schema(args: argparse.Namespace) -> int:
    database = _open_database(args)
    if isinstance(database, ShardedDatabase):
        for index, shard in enumerate(database.shard_databases()):
            print(f"-- shard {index}")
            print(shard.schema.format(max_depth=args.depth))
        return 0
    print(database.schema.format(max_depth=args.depth))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from ..server import QueryServer

    database = _open_database(args)
    server = QueryServer(
        database, host=args.host, port=args.port, max_pending=args.max_pending
    )
    try:
        server.open()
        print(f"serving {database.describe().splitlines()[0]}")
        print(f"listening on {server.host}:{server.port} (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass  # serve_forever has drained the server
        stats = server.stats()
        print(
            f"stopped after {stats['server.requests']} request(s), "
            f"{stats['server.rejections']} rejection(s)"
        )
    finally:
        database.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="approXQL: approximate tree-pattern queries over XML "
        "(reproduction of Schlieder, EDBT 2002)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and save a database file")
    build.add_argument(
        "output",
        help=f"output path (conventionally {_DB_SUFFIX}; a directory with --shards)",
    )
    build.add_argument("sources", nargs="+", help="XML document files")
    build.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the collection across N shards and save a "
        "sharded directory instead of a single file",
    )
    build.add_argument(
        "--partitioner",
        choices=("hash", "range"),
        default="hash",
        help="document placement with --shards: 'hash' (default) "
        "scatters by document ordinal, 'range' keeps contiguous "
        "node-balanced runs together",
    )
    _add_durability_options(build)
    build.set_defaults(func=_command_build)

    insert = commands.add_parser(
        "insert", help="add one XML document to a saved database, in place"
    )
    insert.add_argument("database", help=f"a saved {_DB_SUFFIX} file")
    insert.add_argument("document", help="XML file holding one document")
    _add_cache_options(insert)
    insert.set_defaults(func=_command_insert)

    delete = commands.add_parser(
        "delete", help="remove the document rooted at a pre number, in place"
    )
    delete.add_argument("database", help=f"a saved {_DB_SUFFIX} file")
    delete.add_argument("root", type=int, help="document root pre (see 'documents')")
    _add_cache_options(delete)
    delete.set_defaults(func=_command_delete)

    replace = commands.add_parser(
        "replace", help="atomically swap the document at a pre number for an XML file"
    )
    replace.add_argument("database", help=f"a saved {_DB_SUFFIX} file")
    replace.add_argument("root", type=int, help="document root pre (see 'documents')")
    replace.add_argument("document", help="XML file holding the replacement document")
    _add_cache_options(replace)
    replace.set_defaults(func=_command_replace)

    documents = commands.add_parser(
        "documents", help="list live document roots (the pre numbers mutations take)"
    )
    documents.add_argument("sources", nargs="+")
    _add_cache_options(documents)
    documents.set_defaults(func=_command_documents)

    verify = commands.add_parser(
        "verify", help="walk a saved database's pages and WAL frames, checking checksums"
    )
    verify.add_argument("path", help=f"a saved {_DB_SUFFIX} file")
    verify.set_defaults(func=_command_verify)

    query = commands.add_parser("query", help="run an approXQL query")
    query.add_argument("sources", nargs=1, help=f"a saved {_DB_SUFFIX} file or an XML file")
    query.add_argument("query", help="approXQL query text")
    query.add_argument("-n", type=int, default=10, help="result count (0 = all)")
    query.add_argument(
        "--method", choices=("auto", "direct", "schema"), default="auto"
    )
    query.add_argument("--costs", help="cost file (see CostModel.to_lines)")
    query.add_argument("--xml", action="store_true", help="print result subtrees as XML")
    query.add_argument(
        "--explain", action="store_true", help="show the transformations behind each result"
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="collect telemetry and print a per-stage breakdown "
        "(pages read, postings decoded, second-level queries, timings)",
    )
    _add_cache_options(query)
    query.set_defaults(func=_command_query)

    plan = commands.add_parser(
        "plan", help="show how a query would be evaluated, without running it"
    )
    plan.add_argument("sources", nargs=1, help=f"a saved {_DB_SUFFIX} file or an XML file")
    plan.add_argument("query", help="approXQL query text")
    plan.add_argument("-n", type=int, default=10, help="result count (0 = all)")
    plan.add_argument(
        "--method", choices=("auto", "direct", "schema"), default="auto"
    )
    plan.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the planner's cost estimates (candidates, posting "
        "entries, closure widths, direct-vs-schema scores)",
    )
    _add_cache_options(plan)
    plan.set_defaults(func=_command_plan)

    info = commands.add_parser("info", help="collection statistics")
    info.add_argument("sources", nargs="+")
    _add_cache_options(info)
    info.set_defaults(func=_command_info)

    schema = commands.add_parser("schema", help="print the DataGuide")
    schema.add_argument("sources", nargs="+")
    schema.add_argument("--depth", type=int, default=12)
    _add_cache_options(schema)
    schema.set_defaults(func=_command_schema)

    serve = commands.add_parser(
        "serve", help="serve queries over TCP (JSON lines; see docs/SERVING.md)"
    )
    serve.add_argument(
        "sources",
        nargs=1,
        help=f"a saved {_DB_SUFFIX} file or a sharded directory",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7733, help="TCP port (0 = pick a free one)"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission-control bound: requests waiting for the engine "
        "beyond N are rejected with AdmissionError (default 64)",
    )
    _add_cache_options(serve)
    serve.set_defaults(func=_command_serve)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of ``python -m repro``; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
