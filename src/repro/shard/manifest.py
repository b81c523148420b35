"""The shard map of a sharded collection, and its on-disk form.

A :class:`ShardManifest` records what the
:class:`~repro.shard.database.ShardedDatabase` cannot re-derive from the
shard stores alone: how many shards there are, which partitioner placed
the documents, and — per document — the owning shard, the document's
*local* root pre inside that shard, and its *global* root pre in the
equivalent unsharded collection.  The global numbering is what makes a
sharded collection answer-identical to a single store: every merged
result is translated from shard-local preorder to the global preorder
before it reaches the caller.

On disk the manifest is one JSON file (``MANIFEST.json``) next to the
per-shard ``shard-NNNN.apxq`` stores.  Writes go through a temp file and
``os.replace``, so a reader never observes half a manifest; each
mutation commits its owning shard's log frame *first* and then replaces
the manifest, which makes the manifest the conservative side of the pair
(a crash between the two steps leaves a committed document the manifest
does not list — ``ShardedDatabase.open`` detects the mismatch and names
the shard instead of serving a torn view).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import StorageError

#: manifest file name inside a sharded database directory
MANIFEST_NAME = "MANIFEST.json"
#: manifest format version (bump on incompatible layout changes)
MANIFEST_VERSION = 1


def shard_file_name(index: int) -> str:
    """File name of shard ``index``'s single-file store."""
    return f"shard-{index:04d}.apxq"


@dataclass
class DocumentEntry:
    """One document's placement: identity, owner, and both numberings."""

    doc_id: int
    shard: int
    local_root: int
    global_root: int
    nodes: int
    alive: bool = True

    def to_json(self) -> dict:
        return {
            "id": self.doc_id,
            "shard": self.shard,
            "local_root": self.local_root,
            "global_root": self.global_root,
            "nodes": self.nodes,
            "alive": self.alive,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DocumentEntry":
        try:
            return cls(
                doc_id=int(data["id"]),
                shard=int(data["shard"]),
                local_root=int(data["local_root"]),
                global_root=int(data["global_root"]),
                nodes=int(data["nodes"]),
                alive=bool(data.get("alive", True)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(f"corrupt manifest document entry ({error})") from error


@dataclass
class ShardManifest:
    """The full shard map (see the module docstring)."""

    shards: int
    partitioner: str
    global_nodes: int = 1  # the unsharded collection's super-root
    next_doc_id: int = 0
    documents: "list[DocumentEntry]" = field(default_factory=list)

    def add_document(
        self, shard: int, local_root: int, global_root: int, nodes: int
    ) -> DocumentEntry:
        """Record a freshly inserted document and advance both counters."""
        entry = DocumentEntry(
            doc_id=self.next_doc_id,
            shard=shard,
            local_root=local_root,
            global_root=global_root,
            nodes=nodes,
        )
        self.documents.append(entry)
        self.next_doc_id += 1
        self.global_nodes = max(self.global_nodes, global_root + nodes)
        return entry

    def live_documents(self) -> "list[DocumentEntry]":
        """Live entries in insertion order (the global ``documents()``)."""
        return [entry for entry in self.documents if entry.alive]

    def find_by_global_root(self, global_root: int) -> "DocumentEntry | None":
        """The *live* entry rooted exactly at ``global_root``, if any."""
        for entry in self.documents:
            if entry.alive and entry.global_root == global_root:
                return entry
        return None

    def shard_documents(self, shard: int) -> "list[DocumentEntry]":
        """Live entries owned by ``shard``, in local preorder."""
        entries = [
            entry for entry in self.documents if entry.alive and entry.shard == shard
        ]
        entries.sort(key=lambda entry: entry.local_root)
        return entries

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": MANIFEST_VERSION,
            "shards": self.shards,
            "partitioner": self.partitioner,
            "global_nodes": self.global_nodes,
            "next_doc_id": self.next_doc_id,
            "documents": [entry.to_json() for entry in self.documents],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardManifest":
        try:
            version = int(data["format"])
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError("not a shard manifest (missing format)") from error
        if version != MANIFEST_VERSION:
            raise StorageError(f"unsupported shard manifest format {version}")
        try:
            manifest = cls(
                shards=int(data["shards"]),
                partitioner=str(data["partitioner"]),
                global_nodes=int(data["global_nodes"]),
                next_doc_id=int(data["next_doc_id"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(f"corrupt shard manifest ({error})") from error
        manifest.documents = [
            DocumentEntry.from_json(entry) for entry in data.get("documents", ())
        ]
        return manifest

    def save(self, directory: str) -> None:
        """Atomically (re)write the manifest file in ``directory``."""
        path = os.path.join(directory, MANIFEST_NAME)
        rendered = json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    @classmethod
    def load(cls, directory: str) -> "ShardManifest":
        """Read the manifest of a sharded database directory."""
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError as error:
            raise StorageError(
                f"{directory!r} is not a sharded database (no {MANIFEST_NAME})"
            ) from error
        except json.JSONDecodeError as error:
            raise StorageError(f"corrupt shard manifest at {path!r} ({error})") from error
        if not isinstance(data, dict):
            raise StorageError(f"corrupt shard manifest at {path!r} (not an object)")
        return cls.from_json(data)


def is_sharded_directory(path: str) -> bool:
    """Whether ``path`` looks like a sharded database directory."""
    return os.path.isdir(path) and os.path.exists(os.path.join(path, MANIFEST_NAME))
