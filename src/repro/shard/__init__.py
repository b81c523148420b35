"""Sharded scatter-gather layer: one collection, N independent stores.

:class:`ShardedDatabase` partitions a collection across N shards — each
a full :class:`~repro.core.database.Database` with its own store
and caches — fans queries out to all of them, and merges the per-shard
answers, each in (cost, root) order, back into the single-store best-n
contract (the first n merged answers are the n cheapest, ties broken by
global root).
See ``docs/SERVING.md`` for the operational story and
:mod:`repro.shard.manifest` for the on-disk shard map.
"""

from .database import ShardedDatabase, ShardMutationReport, ShardResult
from .manifest import MANIFEST_NAME, DocumentEntry, ShardManifest, is_sharded_directory
from .partition import PARTITIONERS

__all__ = [
    "ShardedDatabase",
    "ShardMutationReport",
    "ShardResult",
    "ShardManifest",
    "DocumentEntry",
    "MANIFEST_NAME",
    "PARTITIONERS",
    "is_sharded_directory",
]
