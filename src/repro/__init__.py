"""Reproduction of Schlieder, "Schema-Driven Evaluation of Approximate
Tree-Pattern Queries" (EDBT 2002).

The package implements the approXQL query language and both evaluation
strategies of the paper — the *direct* algorithm (``primary`` over
pre/bound-encoded inverted indexes with pruning) and the *schema-driven*
pipeline (top-k ``primary`` over a DataGuide-style schema, ``secondary``
execution of second-level queries, incremental best-n retrieval) — plus
every substrate they need: an embedded key-value storage engine, an XML
parser and data-tree model, synthetic data and query generators, and a
benchmark harness that regenerates the paper's Figure 7.

Quickstart::

    from repro import Database

    db = Database.from_xml('''
        <catalog>
          <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
          <cd><title>cello sonata</title><composer>chopin</composer></cd>
        </catalog>
    ''')
    for result in db.query('cd[title["piano"]]', n=5):
        print(result.cost, result.outline())
"""

from .approxql import CostModel, parse_query
from .errors import (
    AdmissionError,
    CostModelError,
    EvaluationError,
    GenerationError,
    QuerySyntaxError,
    ReproError,
    SchemaError,
    ServerError,
    ShardError,
    StorageError,
    XMLSyntaxError,
)
from .xmltree import DataTree, NodeType, tree_from_xml

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "CostModel",
    "CostModelError",
    "DataTree",
    "Database",
    "EvaluationError",
    "GenerationError",
    "NodeType",
    "QueryPlan",
    "QueryReport",
    "QueryResult",
    "QueryServer",
    "QuerySyntaxError",
    "ReproError",
    "ResultSet",
    "ResultStream",
    "SchemaError",
    "ServeClient",
    "ServerError",
    "ServerThread",
    "ShardError",
    "ShardedDatabase",
    "StorageError",
    "Telemetry",
    "XMLSyntaxError",
    "__version__",
    "parse_query",
    "tree_from_xml",
]

_LAZY = {
    "Database": "core",
    "QueryPlan": "core",
    "QueryResult": "core",
    "ResultSet": "core",
    "ResultStream": "core",
    "QueryReport": "telemetry",
    "Telemetry": "telemetry",
    "ShardedDatabase": "shard",
    "QueryServer": "server",
    "ServerThread": "server",
    "ServeClient": "server",
}


def __getattr__(name: str):
    """Lazily import the heavyweight façade so that using one substrate
    does not pull in the whole engine."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
