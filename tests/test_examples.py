"""Every example script must run cleanly end to end."""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stdout}\n{result.stderr}"
    return result.stdout


def test_quickstart():
    output = run_example("quickstart.py")
    assert "identical rankings" in output
    assert "cost=" in output


def test_music_catalog():
    output = run_example("music_catalog.py")
    assert "exact evaluation" in output
    assert "/catalog/mc" in output
    assert "cost=  6.0" in output  # delete "concerto" per the paper's table


def test_schema_explorer():
    output = run_example("schema_explorer.py")
    assert "DataGuide" in output
    assert "second-level queries" in output
    assert "@" in output  # skeleton rendering


def test_incremental_search_quick():
    output = run_example("incremental_search.py", "--quick")
    assert "streaming the first results" in output
    assert "second-level queries" in output
    # the schema read evaluates (no result-cache hit on the direct answer)
    match = re.search(r"schema evaluation: .*\((\d+) skeletons pulled", output)
    assert match is not None, output
    assert int(match.group(1)) > 0


def test_persistent_store_quick():
    output = run_example("persistent_store.py", "--quick")
    assert "in-memory and on-disk evaluation agree" in output


def test_observability():
    output = run_example("observability.py")
    assert "plan:" in output
    assert "log frame" in output
    assert "postings decoded" in output
    assert "second-level queries" in output


def test_cost_tuning():
    output = run_example("cost_tuning.py")
    assert "suggested cost model" in output
    assert "rename 'title' to 'titles'" in output
    assert "exact match" in output


def test_effectiveness_study_quick():
    output = run_example("effectiveness_study.py", "--quick")
    assert "exact matching" in output
    assert "approximate matching" in output
    assert "MRR@10" in output
