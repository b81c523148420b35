"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.core.cli import main

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>cello suite</title><composer>bach</composer></cd>
</catalog>
"""


@pytest.fixture
def catalog_file(tmp_path):
    path = tmp_path / "catalog.xml"
    path.write_text(CATALOG, encoding="utf-8")
    return str(path)


@pytest.fixture
def cost_file(tmp_path):
    path = tmp_path / "costs.txt"
    path.write_text(
        "delete text concerto 4\nrename text concerto suite 2\n", encoding="utf-8"
    )
    return str(path)


class TestQueryCommand:
    def test_query_xml_source(self, catalog_file, capsys):
        assert main(["query", catalog_file, 'cd[title["piano"]]']) == 0
        output = capsys.readouterr().out
        assert "1 result(s)" in output
        assert "/catalog/cd" in output

    def test_query_with_costs(self, catalog_file, cost_file, capsys):
        assert (
            main(
                [
                    "query",
                    catalog_file,
                    'cd[title["concerto"]]',
                    "--costs",
                    cost_file,
                    "-n",
                    "0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "2 result(s)" in output

    def test_query_methods(self, catalog_file, capsys):
        for method in ("direct", "schema", "auto"):
            assert main(["query", catalog_file, "cd", "--method", method]) == 0
        assert "2 result(s)" in capsys.readouterr().out

    def test_query_xml_output(self, catalog_file, capsys):
        assert main(["query", catalog_file, 'cd[title["piano"]]', "--xml"]) == 0
        assert "<title>piano concerto</title>" in capsys.readouterr().out

    def test_query_explain(self, catalog_file, cost_file, capsys):
        assert (
            main(
                ["query", catalog_file, 'cd[title["concerto"]]', "--costs", cost_file, "--explain"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "exact match" in output or "rename" in output or "delete" in output

    def test_bad_query_reports_error(self, catalog_file, capsys):
        assert main(["query", catalog_file, "cd[["]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        assert main(["query", "no-such-file.xml", "cd"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBuildAndLoad:
    def test_build_then_query(self, catalog_file, tmp_path, capsys):
        db_path = str(tmp_path / "catalog.apxq")
        assert main(["build", db_path, catalog_file]) == 0
        assert "built" in capsys.readouterr().out
        assert main(["query", db_path, 'cd[title["piano"]]']) == 0
        assert "1 result(s)" in capsys.readouterr().out


class TestInfoAndSchema:
    def test_info(self, catalog_file, capsys):
        assert main(["info", catalog_file]) == 0
        output = capsys.readouterr().out
        assert "struct nodes" in output
        assert "schema size" in output

    def test_schema(self, catalog_file, capsys):
        assert main(["schema", catalog_file]) == 0
        output = capsys.readouterr().out
        assert "cd" in output
        assert "#text" in output


class TestDurabilityAndVerify:
    def test_build_wal_then_query_and_verify(self, catalog_file, tmp_path, capsys):
        db_path = str(tmp_path / "catalog.apxq")
        assert main(["build", db_path, catalog_file]) == 0
        capsys.readouterr()
        assert main(["verify", db_path]) == 0
        assert "result: ok" in capsys.readouterr().out
        assert main(["query", db_path, 'cd[title["piano"]]']) == 0
        assert "1 result(s)" in capsys.readouterr().out

    def test_verify_detects_corruption(self, catalog_file, tmp_path, capsys):
        db_path = str(tmp_path / "catalog.apxq")
        assert main(["build", db_path, catalog_file]) == 0
        capsys.readouterr()
        with open(db_path, "r+b") as handle:
            handle.seek(64)  # inside the store's only frame
            handle.write(b"\xde\xad\xbe\xef")
        assert main(["verify", db_path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.apxq")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_open_missing_database_is_a_typed_error(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "absent.apxq"), "cd"]) == 1
        assert "not a database file" in capsys.readouterr().err

    def test_open_non_database_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "junk.apxq"
        path.write_bytes(b"hello, definitely not a page store")
        assert main(["query", str(path), "cd"]) == 1
        assert "not a database file" in capsys.readouterr().err


class TestShardedCommands:
    def test_build_sharded_then_query(self, catalog_file, tmp_path, capsys):
        directory = str(tmp_path / "catalog.d")
        assert (
            main(["build", directory, catalog_file, "--shards", "2"]) == 0
        )
        assert "2 shards" in capsys.readouterr().out
        assert main(["query", directory, 'cd[title["piano"]]', "--stats"]) == 0
        output = capsys.readouterr().out
        assert "1 result(s)" in output
        assert "shard: fanout 2" in output

    def test_build_range_partitioner(self, catalog_file, tmp_path, capsys):
        directory = str(tmp_path / "catalog.d")
        assert (
            main(
                [
                    "build",
                    directory,
                    catalog_file,
                    "--shards",
                    "3",
                    "--partitioner",
                    "range",
                ]
            )
            == 0
        )
        assert "range partitioning" in capsys.readouterr().out

    def test_sharded_mutations_and_documents(self, catalog_file, tmp_path, capsys):
        directory = str(tmp_path / "catalog.d")
        assert main(["build", directory, catalog_file, "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["documents", directory]) == 0
        before = capsys.readouterr().out.strip().splitlines()
        assert main(["insert", directory, catalog_file]) == 0
        assert "insert: shard" in capsys.readouterr().out
        assert main(["documents", directory]) == 0
        after = capsys.readouterr().out.strip().splitlines()
        assert len(after) == len(before) + 1

    def test_sharded_info_and_schema(self, catalog_file, tmp_path, capsys):
        directory = str(tmp_path / "catalog.d")
        assert main(["build", directory, catalog_file, "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["info", directory]) == 0
        assert "shard 0:" in capsys.readouterr().out
        assert main(["schema", directory]) == 0
        assert "-- shard 1" in capsys.readouterr().out

    def test_serve_parser_defaults(self):
        from repro.core.cli import build_parser

        args = build_parser().parse_args(["serve", "catalog.apxq"])
        assert args.port == 7733
        assert args.max_pending == 64
        assert not hasattr(args, "jobs") and not hasattr(args, "executor")
        assert not hasattr(args, "batch_max")

    def test_serve_rejects_batch_max(self, capsys):
        from repro.core.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "catalog.apxq", "--batch-max", "4"])
        assert "--batch-max" in capsys.readouterr().err
