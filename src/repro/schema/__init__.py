"""Schema-driven query evaluation (Section 7): the compacted DataGuide,
the secondary index ``I_sec``, the segmented top-k variant of algorithm
``primary``, algorithm ``secondary``, and the incremental best-n driver.
"""

from .dataguide import (
    TEXT_CLASS_LABEL,
    Schema,
    SchemaUpdate,
    build_schema,
    update_schema_for_delete,
    update_schema_for_insert,
)
from .entries import SchemaEntry, entry_from_schema_posting
from .evaluator import SchemaEvaluator, SchemaResult
from .indexes import MemorySecondaryIndex, SchemaNodeIndexes
from .primary_k import PrimaryKEvaluator
from .secondary import SecondaryExecutor, semi_join
from .topk_ops import (
    SegmentStream,
    TopKList,
    add_edge_k,
    fetch_k,
    intersect_k,
    join_k,
    merge_k,
    merge_shifted_k,
    outerjoin_k,
    sort_roots,
    union_k,
)

__all__ = [
    "MemorySecondaryIndex",
    "PrimaryKEvaluator",
    "Schema",
    "SchemaEntry",
    "SchemaEvaluator",
    "SchemaNodeIndexes",
    "SchemaResult",
    "SchemaUpdate",
    "SecondaryExecutor",
    "SegmentStream",
    "TEXT_CLASS_LABEL",
    "TopKList",
    "add_edge_k",
    "build_schema",
    "entry_from_schema_posting",
    "fetch_k",
    "intersect_k",
    "join_k",
    "merge_k",
    "merge_shifted_k",
    "outerjoin_k",
    "semi_join",
    "sort_roots",
    "union_k",
    "update_schema_for_delete",
    "update_schema_for_insert",
]
