"""Regression tests for :meth:`Database.close` resource teardown."""

import pytest

from repro.core.database import Database
from repro.errors import ReproError

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
</catalog>
"""


def test_database_close_closes_the_store(tmp_path):
    path = str(tmp_path / "catalog.apxq")
    Database.from_xml(CATALOG).save(path)
    database = Database.open(path)
    assert len(database.query("title", n=1, method="direct")) == 1

    database.close()
    with pytest.raises(ReproError):  # the store is gone: writes fail typed
        database.insert_document("<cd><title>organ</title></cd>")
    database.close()  # idempotent


def test_database_is_a_context_manager(tmp_path):
    path = str(tmp_path / "catalog.apxq")
    Database.from_xml(CATALOG).save(path)
    with Database.open(path) as database:
        assert len(database.query("title", n=1)) == 1
    assert database._closed
