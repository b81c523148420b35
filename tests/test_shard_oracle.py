"""Randomized sharded-vs-single-store differential oracle.

Property: for any generated collection, cost model, and query, a
:class:`~repro.shard.ShardedDatabase` built from the same tree returns
*byte-identical* document-rooted answers to the unsharded
:class:`~repro.core.database.Database` — the same (cost, global root)
pairs, and at every best-n cut the canonical n-cheapest prefix — for
every shard count and both partitioners.  The single-store reference is
filtered to document-rooted results (``root != 0``): an embedding rooted
at the collection super-root spans documents on different shards and is
excluded from the sharded contract by design (see
``repro/shard/database.py``).

Cases come from the paper's own generators (Section 8.1) via
``strategies.generated_case``; every assertion names the replay seed.
"""

import pytest

from repro.core.database import Database
from repro.shard import ShardedDatabase
from repro.shard.partition import PARTITIONERS

from .strategies import generated_case

SEEDS = range(6)
SHARD_COUNTS = (1, 2, 5)
CUTS = (1, 2, 3, 5, 10)


def _reference(database, query, costs):
    """The single store's document-rooted answer, as it comes: (cost,
    root) ascending."""
    results = database.query(query, n=None, costs=costs)
    return [(r.cost, r.root) for r in results if r.root != 0]


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_best_n_matches_single_store(seed, shards, partitioner):
    case = generated_case(2600 + seed, num_elements=60)
    single = Database.from_tree(case.tree)
    sharded = ShardedDatabase.from_tree(
        case.tree, shards=shards, partitioner=partitioner
    )
    for generated in case.queries:
        reference = _reference(single, generated.query, generated.costs)
        full = [
            (r.cost, r.root)
            for r in sharded.query(generated.query, n=None, costs=generated.costs)
        ]
        assert full == reference, case.describe()
        for n in CUTS:
            prefix = [
                (r.cost, r.root)
                for r in sharded.query(generated.query, n=n, costs=generated.costs)
            ]
            assert prefix == reference[:n], (n, case.describe())


@pytest.mark.parametrize("seed", range(3))
def test_stream_prefix_matches_reference(seed):
    case = generated_case(2800 + seed, num_elements=60)
    single = Database.from_tree(case.tree)
    sharded = ShardedDatabase.from_tree(case.tree, shards=2)
    for generated in case.queries:
        reference = _reference(single, generated.query, generated.costs)
        stream = sharded.stream(generated.query, costs=generated.costs)
        drained = []
        try:
            for result in stream:
                drained.append((result.cost, result.root))
                if len(drained) == 5:
                    break
        finally:
            stream.close()
        assert drained == reference[: len(drained)], case.describe()


@pytest.mark.parametrize("seed", range(3))
def test_count_results_matches_single_store(seed):
    case = generated_case(2900 + seed, num_elements=60)
    single = Database.from_tree(case.tree)
    sharded = ShardedDatabase.from_tree(case.tree, shards=2)
    for generated in case.queries:
        expected = len(_reference(single, generated.query, generated.costs))
        assert (
            sharded.count_results(generated.query, costs=generated.costs) == expected
        ), case.describe()
