"""Embedded storage: the Berkeley-DB stand-in of the reproduction.

Public surface:

* :class:`~repro.storage.kv.Store` / :class:`MemoryStore` /
  :class:`FileStore` / :class:`Namespace` — the ordered KV interface the
  persisted tree is written through; :class:`FileStore` is an
  append-only, checksummed record log.
* :func:`verify_store` — the offline frame walk behind ``repro verify``.
* posting codecs in :mod:`repro.storage.postings`.
* the fault-injection harness in :mod:`repro.storage.faults`.
"""

from .faults import FaultInjector, FaultyFile, SimulatedCrash
from .kv import DURABILITY_MODES, FileStore, MemoryStore, Namespace, Store, VerifyReport, verify_store
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
    "DURABILITY_MODES",
    "FaultInjector",
    "FaultyFile",
    "FileStore",
    "MemoryStore",
    "Namespace",
    "SimulatedCrash",
    "Store",
    "VerifyReport",
    "decode_delta_list",
    "decode_node_postings",
    "decode_svarint",
    "decode_uvarint",
    "encode_delta_list",
    "encode_node_postings",
    "encode_svarint",
    "encode_uvarint",
    "verify_store",
]
