"""Regression tests for :meth:`Database.close` resource teardown."""

from repro.core.database import Database

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
</catalog>
"""


def test_database_close_shuts_posting_cache_down(tmp_path):
    path = str(tmp_path / "catalog.apxq")
    Database.from_xml(CATALOG).save(path)
    database = Database.open(path)
    cache = database._posting_cache
    assert cache is not None
    assert len(database.query("title", n=1, method="direct")) == 1
    assert len(cache) > 0  # the query left decoded postings behind

    database.close()
    assert len(cache) == 0 and cache.used_bytes == 0
    database.close()  # idempotent


def test_database_is_a_context_manager(tmp_path):
    path = str(tmp_path / "catalog.apxq")
    Database.from_xml(CATALOG).save(path)
    with Database.open(path) as database:
        assert len(database.query("title", n=1)) == 1
    assert database._closed
