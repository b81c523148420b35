"""Exploring the schema (compacted DataGuide) of a collection.

Shows the Section 7.1 machinery directly: the schema tree with instance
counts, node classes of individual data nodes, the path-dependent
postings of I_sec, and the cheapest second-level queries generated for
an approXQL query before any data node is touched.

Run:  python examples/schema_explorer.py
"""

from itertools import islice

from repro import Database
from repro.approxql import build_expanded, paper_example_cost_model, parse_query
from repro.schema import (
    MemorySecondaryIndex,
    PrimaryKEvaluator,
    SchemaNodeIndexes,
    SecondaryExecutor,
)

CATALOG = """
<catalog>
  <cd>
    <title>The Piano Concertos</title>
    <composer>Rachmaninov</composer>
    <tracks><track><title>Vivace</title></track></tracks>
  </cd>
  <cd>
    <title>Piano sonatas</title>
    <composer>Beethoven</composer>
  </cd>
  <mc>
    <category>Piano concerto</category>
    <composer>Rachmaninov</composer>
  </mc>
</catalog>
"""


def main() -> None:
    db = Database.from_xml(CATALOG)
    schema = db.schema
    tree = db.tree

    print("=== the compacted DataGuide (every label-type path once) ===")
    print(schema.format())
    print()

    print("=== node classes (Definition 15) ===")
    for pre in list(tree.iter_nodes())[:8]:
        node_class = schema.node_class(pre)
        print(
            f"  data node {pre:3d} ({tree.label(pre):<12}) -> "
            f"class {node_class} (instances: {schema.instance_count(node_class)})"
        )
    print()

    print("=== second-level queries for an approXQL query ===")
    costs = paper_example_cost_model()
    query = parse_query('cd[title["piano" and "concerto"] and composer["rachmaninov"]]')
    schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
    expanded = build_expanded(query, costs)
    # the first five second-level queries pulled from the root list, in
    # cost order (without an executor, skeletons without an instance are
    # pulled too)
    evaluator = PrimaryKEvaluator(SchemaNodeIndexes(schema))
    candidates = islice(evaluator.evaluate(expanded).skeletons(), 5)
    executor = SecondaryExecutor(MemorySecondaryIndex(schema))
    for entry in candidates:
        instances = executor.execute(entry)
        print(f"  cost={entry.embcost:5.1f}  {entry.format_skeleton()}")
        print(f"            -> {len(instances)} result(s): "
              + ", ".join(f"{tree.label(pre)}@{pre}" for pre, _ in instances))
    print()
    print("note: skeletons are (schema class, label) trees; every result of")
    print("one second-level query shares the skeleton's embedding cost.")


if __name__ == "__main__":
    main()
