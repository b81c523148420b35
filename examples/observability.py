"""Observability: watch what the engine does while it evaluates.

Every layer of the engine — the store log, the posting codecs, the
inverted indexes, and both evaluation algorithms — reports into a
telemetry collector when one is active.  ``Database.query`` activates
one for you via ``collect=``:

* ``collect="off"`` (default) — no collection, no measurable overhead;
* ``collect="counters"`` — per-stage counters (postings decoded,
  second-level queries, ...);
* ``collect="timings"`` — counters plus wall time per stage.

Run:  python examples/observability.py
"""

import tempfile
from pathlib import Path

from repro import CostModel, Database, NodeType
from repro.telemetry import Telemetry, collecting

CATALOG = "".join(
    f"<cd><title>{title}</title><composer>{composer}</composer></cd>"
    for title, composer in [
        ("piano concerto no 2", "rachmaninov"),
        ("piano concerto no 3", "rachmaninov"),
        ("cello sonata", "chopin"),
        ("piano trio", "schubert"),
        ("trumpet concerto", "haydn"),
    ]
    * 20
) + "".join(
    f"<mc><category>{category}</category></mc>"
    for category in ["piano concerto", "cello suite", "organ toccata"] * 40
)

QUERY = 'cd[title["piano"] and composer["rachmaninov"]]'


def main() -> None:
    db = Database.from_xml(CATALOG)

    # 1. Ask how the query would be evaluated, without running it.
    print(db.plan(QUERY, n=5).format())
    print()

    # 2. Run it with full collection and print the per-stage breakdown.
    results = db.query(QUERY, n=5, collect="timings")
    print(f"{len(results)} results via {results.method}, costs {results.costs[:3]}...")
    print(results.report.format())
    print()

    # 3. The same counters distinguish the two algorithms.  With a
    # renaming in play, the direct path fetches the instance lists of
    # every renamed label up front, while the schema path weighs the
    # renamings on small class-level lists and only its winning
    # second-level queries ever touch instance postings — the Figure 7
    # story, told in counters instead of seconds.
    costs = CostModel()
    costs.add_renaming("cd", "mc", NodeType.STRUCT, 3)
    costs.add_renaming("title", "category", NodeType.STRUCT, 2)
    direct = db.query(QUERY, n=5, costs=costs, method="direct", collect="counters").report
    schema = db.query(QUERY, n=5, costs=costs, method="schema", collect="counters").report
    print("postings decoded (query with renamings, n=5):")
    print(f"  direct: {direct.postings_decoded}")
    print(f"  schema: {schema.postings_decoded} "
          f"({schema.second_level_queries} second-level queries)")
    print()

    # 4. On a stored database a write shows up in the storage layer: one
    #    commit frame appended to the log (reads answer from memory).
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "catalog.apxq")
        db.save(path)
        with Database.open(path) as stored:
            report = stored.query(QUERY, n=5, collect="counters").report
            telemetry = Telemetry()
            with collecting(telemetry):
                stored.insert_document("<cd><title>organ mass</title></cd>")
        print(f"stored database: {telemetry.counters['wal.commits']} log frame "
              f"({telemetry.counters['wal.bytes_logged']} bytes) per insert")

    # 5. Reports serialize to JSON for experiment harnesses.
    print()
    print("report keys:", sorted(report.to_dict()["summary"]))


if __name__ == "__main__":
    main()
