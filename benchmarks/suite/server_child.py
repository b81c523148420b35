"""Child process of ``serve-zipf``: a ``QueryServer`` over a saved sharded
database, so that the server has its own interpreter and its own RSS.

Protocol with the parent (``apxbench.workloads.ServeZipf``): prints
``READY <port>`` once the server accepts connections; any line (or EOF) on
stdin drains the server gracefully, after which the child prints one JSON
line with its peak RSS and exits.
"""

import asyncio
import json
import sys

import apxbench  # also puts src/ on the import path


async def _serve(directory: str, options: dict) -> None:
    from repro import QueryServer, ShardedDatabase

    with ShardedDatabase.open(directory, **options) as database:
        server = QueryServer(database)
        await server.start()
        print(f"READY {server.port}", flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
        await server.stop()
    print(json.dumps({"peak_rss_mb": apxbench.peak_rss_mb()}), flush=True)


if __name__ == "__main__":
    asyncio.run(_serve(sys.argv[1], json.loads(sys.argv[2])))
