"""Embedded storage engine: the Berkeley-DB stand-in of the reproduction.

Public surface:

* :class:`~repro.storage.kv.Store` / :class:`MemoryStore` /
  :class:`FileStore` / :class:`Namespace` — the ordered KV interface the
  indexes are built on.
* :class:`~repro.storage.btree.BTree` and
  :class:`~repro.storage.pager.Pager` — the on-disk machinery.
* posting codecs in :mod:`repro.storage.postings`.
* durability: the write-ahead log in :mod:`repro.storage.wal`
  (``durability="wal"`` on the pager / store / database), offline
  checking in :mod:`repro.storage.verify`, and the fault-injection
  harness in :mod:`repro.storage.faults`.
"""

from .btree import BTree
from .faults import FaultInjector, FaultyFile, SimulatedCrash
from .kv import FileStore, MemoryStore, Namespace, Store
from .pager import DEFAULT_PAGE_SIZE, DURABILITY_MODES, Pager
from .verify import VerifyReport, verify_store
from .wal import DEFAULT_CHECKPOINT_BYTES, WAL_SUFFIX, WriteAheadLog, recover
from .postings import decode_node_postings, encode_node_postings
from .varint import (
    decode_delta_list,
    decode_svarint,
    decode_uvarint,
    encode_delta_list,
    encode_svarint,
    encode_uvarint,
)

__all__ = [
    "BTree",
    "DEFAULT_CHECKPOINT_BYTES",
    "DEFAULT_PAGE_SIZE",
    "DURABILITY_MODES",
    "FaultInjector",
    "FaultyFile",
    "FileStore",
    "MemoryStore",
    "Namespace",
    "Pager",
    "SimulatedCrash",
    "Store",
    "VerifyReport",
    "WAL_SUFFIX",
    "WriteAheadLog",
    "decode_delta_list",
    "decode_node_postings",
    "decode_svarint",
    "decode_uvarint",
    "encode_delta_list",
    "encode_node_postings",
    "encode_svarint",
    "encode_uvarint",
    "recover",
    "verify_store",
]
