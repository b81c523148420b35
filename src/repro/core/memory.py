"""Per-structure resident bytes of a database handle.

Every structure that grows with the data lives in typed flat buffers
(:mod:`repro.xmltree.model`, :mod:`repro.schema.dataguide`,
:mod:`repro.xmltree.indexes`), so its size is a sum of
``buffer_info()[1] * itemsize`` — exact, and computed only when someone
asks (``Database.describe()``, ``repro info``): nothing is counted per
query.
"""

from __future__ import annotations

import sys

from ..storage.postings import column_bytes

#: the structures of :func:`resident_bytes`, in display order
STRUCTURES = (
    "tree columns",
    "label table",
    "schema instance columns",
    "node-index pre lists",
)


def resident_bytes(tree, schema=None, node_indexes=None) -> dict:
    """``structure -> bytes`` for one engine state (see :data:`STRUCTURES`);
    a component that is not built (or not there) counts 0."""
    usage = dict.fromkeys(STRUCTURES, 0)
    usage["tree columns"] = column_bytes(
        tree.labels, tree.types, tree.parents, tree.bounds, tree.inscosts,
        tree.pathcosts, tree._first_child, tree._next_sibling,
    )  # fmt: skip
    # one str per distinct label: count objects, not occurrences
    distinct = {id(label): label for label in tree.labels}
    usage["label table"] = sum(map(sys.getsizeof, distinct.values()))
    if schema is not None:
        postings = [*schema.instances, *schema.term_instances.values()]
        usage["schema instance columns"] = column_bytes(
            schema.class_of,
            *(column for posting in postings for column in (posting.pre, posting.bound)),
            *(terms.offsets for terms in schema.term_instances.values()),
        )
    if node_indexes is not None:
        usage["node-index pre lists"] = node_indexes.resident_bytes()
    return usage


def format_resident(usage: dict) -> str:
    """The one-line rendering ``describe()`` and ``repro info`` print."""
    parts = ", ".join(f"{name} {size:,}" for name, size in usage.items())
    return f"resident bytes: {parts} (total {sum(usage.values()):,})"
