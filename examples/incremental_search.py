"""Incremental retrieval on a synthetic collection (Section 7.4).

Generates a mid-sized synthetic collection, runs the same query with both
algorithms, and demonstrates the schema-driven evaluator's streaming
interface: results arrive in increasing cost order while evaluation is
still in progress — "the results can be sent immediately to the user".

Run:  python examples/incremental_search.py
"""

import sys
import time

from repro import Database
from repro.datagen import GeneratorConfig, generate_collection
from repro.querygen import PAPER_PATTERNS, QueryGenOptions, QueryGenerator
from repro.xmltree.indexes import MemoryNodeIndexes


def main() -> None:
    quick = "--quick" in sys.argv
    scale = 10 if quick else 1
    config = GeneratorConfig(
        num_elements=20_000 // scale,
        num_element_names=100,
        num_terms=4_000 // scale,
        num_term_occurrences=200_000 // scale,
        mode="dtd",
        dtd_size=120,
        seed=7,
    )
    print("generating synthetic collection ...")
    collection = generate_collection(config)
    db = Database.from_tree(collection.tree)
    print(db.describe())
    print()

    generator = QueryGenerator(
        MemoryNodeIndexes(db.tree), QueryGenOptions(renamings_per_label=5), seed=3
    )
    generated = generator.generate(PAPER_PATTERNS[2])
    print(f"generated query: {generated.unparse()}")
    print()

    start = time.perf_counter()
    direct = db.query(generated.query, n=10, costs=generated.costs, method="direct")
    direct_time = time.perf_counter() - start

    start = time.perf_counter()
    schema = db.query(
        generated.query, n=10, costs=generated.costs, method="schema", collect="counters"
    )
    schema_time = time.perf_counter() - start

    # Both algorithms return a correct best-10: the cost profiles are
    # identical (ties may resolve to different, equally good roots).
    assert [r.cost for r in direct] == [r.cost for r in schema]
    print(f"best 10 results (both algorithms agree on the cost profile):")
    for result in schema:
        print(f"  cost={result.cost:5.1f}  {result.path}")
    print()
    print(f"direct evaluation: {direct_time * 1000:7.1f} ms (computes ALL results, prunes)")
    print(f"schema evaluation: {schema_time * 1000:7.1f} ms "
          f"(k={int(schema.report.get('schema.final_k'))}, "
          f"{schema.report.second_level_queries} second-level queries, "
          f"{int(schema.report.get('schema.second_level_nonempty'))} non-empty)")
    print()

    print("streaming the first results as they are found:")
    start = time.perf_counter()
    stream = db.stream(generated.query, costs=generated.costs)
    for index, result in enumerate(stream):
        elapsed = (time.perf_counter() - start) * 1000
        print(f"  #{index + 1}  after {elapsed:6.1f} ms: cost={result.cost:.1f} {result.path}")
        if index >= 4:
            break


if __name__ == "__main__":
    main()
