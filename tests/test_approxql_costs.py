"""Tests for the cost model and cost-file round trips."""

import math

import pytest

import pathlib
import re

from repro.approxql.costs import INFINITE, CostModel, paper_example_cost_model
from repro.approxql.parser import parse_query
from repro.approxql.separated import separate
from repro.errors import CostModelError
from repro.transform.closure import apply_definition4
from repro.xmltree.model import NodeType


class TestDefaults:
    def test_unlisted_insert_cost_is_one(self):
        model = CostModel()
        assert model.insert_cost("anything") == 1.0

    def test_unlisted_delete_cost_is_infinite(self):
        model = CostModel()
        assert model.delete_cost("anything", NodeType.STRUCT) == INFINITE

    def test_unlisted_rename_cost_is_infinite(self):
        model = CostModel()
        assert model.rename_cost("a", "b", NodeType.STRUCT) == INFINITE

    def test_identity_rename_is_free(self):
        model = CostModel()
        assert model.rename_cost("a", "a", NodeType.STRUCT) == 0.0

    def test_custom_default_insert(self):
        model = CostModel(default_insert_cost=2.5)
        assert model.insert_cost("x") == 2.5


class TestRegistration:
    def test_insert(self):
        model = CostModel().set_insert_cost("cd", 2)
        assert model.insert_cost("cd") == 2.0

    def test_delete_per_type(self):
        model = CostModel().set_delete_cost("title", NodeType.STRUCT, 5)
        assert model.delete_cost("title", NodeType.STRUCT) == 5.0
        assert model.delete_cost("title", NodeType.TEXT) == INFINITE

    def test_renamings_listed(self):
        model = CostModel()
        model.add_renaming("cd", "dvd", NodeType.STRUCT, 6)
        model.add_renaming("cd", "mc", NodeType.STRUCT, 4)
        assert model.renamings("cd", NodeType.STRUCT) == [("dvd", 6.0), ("mc", 4.0)]

    def test_renaming_updated_in_place(self):
        model = CostModel()
        model.add_renaming("cd", "dvd", NodeType.STRUCT, 6)
        model.add_renaming("cd", "dvd", NodeType.STRUCT, 2)
        assert model.renamings("cd", NodeType.STRUCT) == [("dvd", 2.0)]

    def test_infinite_renaming_suppressed(self):
        model = CostModel()
        model.add_renaming("cd", "dvd", NodeType.STRUCT, INFINITE)
        assert model.renamings("cd", NodeType.STRUCT) == []

    def test_negative_cost_rejected(self):
        with pytest.raises(CostModelError):
            CostModel().set_insert_cost("x", -1)
        with pytest.raises(CostModelError):
            CostModel().set_delete_cost("x", NodeType.TEXT, -0.5)
        with pytest.raises(CostModelError):
            CostModel().add_renaming("x", "y", NodeType.TEXT, -3)

    def test_nan_rejected(self):
        with pytest.raises(CostModelError):
            CostModel().set_insert_cost("x", math.nan)

    def test_self_rename_rejected(self):
        with pytest.raises(CostModelError):
            CostModel().add_renaming("x", "x", NodeType.STRUCT, 1)


class TestPaperExample:
    """The cost table of Section 6 is wired up exactly."""

    def test_insert_costs(self):
        model = paper_example_cost_model()
        assert model.insert_cost("category") == 4
        assert model.insert_cost("cd") == 2
        assert model.insert_cost("composer") == 5
        assert model.insert_cost("performer") == 5
        assert model.insert_cost("title") == 3
        assert model.insert_cost("track") == 3
        assert model.insert_cost("tracks") == 1  # "all remaining insert costs are 1"

    def test_delete_costs(self):
        model = paper_example_cost_model()
        assert model.delete_cost("composer", NodeType.STRUCT) == 7
        assert model.delete_cost("concerto", NodeType.TEXT) == 6
        assert model.delete_cost("piano", NodeType.TEXT) == 8
        assert model.delete_cost("title", NodeType.STRUCT) == 5
        assert model.delete_cost("track", NodeType.STRUCT) == 3
        # "rachmaninov" is not listed -> infinite (cannot be deleted)
        assert model.delete_cost("rachmaninov", NodeType.TEXT) == INFINITE

    def test_rename_costs(self):
        model = paper_example_cost_model()
        assert model.rename_cost("cd", "dvd", NodeType.STRUCT) == 6
        assert model.rename_cost("cd", "mc", NodeType.STRUCT) == 4
        assert model.rename_cost("composer", "performer", NodeType.STRUCT) == 4
        assert model.rename_cost("concerto", "sonata", NodeType.TEXT) == 3
        assert model.rename_cost("title", "category", NodeType.STRUCT) == 4
        # renamings are directional
        assert model.rename_cost("dvd", "cd", NodeType.STRUCT) == INFINITE


class TestCostFiles:
    def test_roundtrip(self):
        model = paper_example_cost_model()
        restored = CostModel.from_lines(model.to_lines())
        assert restored.to_lines() == model.to_lines()

    def test_comments_and_blank_lines(self):
        lines = [
            "# a comment",
            "",
            "insert cd 2  # trailing comment",
            "delete text piano 8",
        ]
        model = CostModel.from_lines(lines)
        assert model.insert_cost("cd") == 2
        assert model.delete_cost("piano", NodeType.TEXT) == 8

    def test_infinite_literal(self):
        model = CostModel.from_lines(["delete struct x inf"])
        assert model.delete_cost("x", NodeType.STRUCT) == INFINITE

    def test_bad_directive_rejected(self):
        with pytest.raises(CostModelError):
            CostModel.from_lines(["frobnicate x 1"])

    def test_bad_cost_rejected_with_line_number(self):
        with pytest.raises(CostModelError) as excinfo:
            CostModel.from_lines(["", "insert x abc"])
        assert "line 2" in str(excinfo.value)

    def test_bad_type_rejected(self):
        with pytest.raises(CostModelError):
            CostModel.from_lines(["delete attribute x 1"])

    def test_file_roundtrip(self, tmp_path):
        model = paper_example_cost_model()
        path = str(tmp_path / "costs.txt")
        model.save(path)
        assert CostModel.load(path).to_lines() == model.to_lines()

    def test_fingerprint_tracks_insert_changes(self):
        model = CostModel()
        before = model.insert_fingerprint
        model.set_delete_cost("x", NodeType.TEXT, 1)
        assert model.insert_fingerprint == before
        model.set_insert_cost("x", 3)
        assert model.insert_fingerprint != before


def _blocked_piano(model):
    """``apply_definition4`` on a query whose sole leaf is ``"piano"``,
    which the paper's model lets be deleted."""
    (query,) = separate(parse_query('cd["piano"]'))
    return apply_definition4(query, model)


def _default_insert(model):
    model.default_insert_cost = 2.5
    return model


#: every writer of a cost model's tables, as a function of the model
#: returning the model it wrote
MUTATORS = {
    "set_insert_cost": lambda model: model.set_insert_cost("cd", 9),
    "set_delete_cost": lambda model: model.set_delete_cost("cd", NodeType.STRUCT, 1),
    "add_renaming": lambda model: model.add_renaming("cd", "lp", NodeType.STRUCT, 2),
    "add_renaming_in_place": lambda model: model.add_renaming("cd", "dvd", NodeType.STRUCT, 1),
    "default_insert_cost": _default_insert,
    "from_lines": lambda model: CostModel.from_lines([*model.to_lines(), "insert lp 7"]),
    "copy": lambda model: model.copy().set_delete_cost("lp", NodeType.TEXT, 2),
    "apply_definition4": _blocked_piano,
}


class TestFingerprint:
    """The fingerprint is computed once per table state and keeps its
    hash; every writer of the tables clears it."""

    def test_the_fingerprint_is_computed_once(self):
        model = paper_example_cost_model()
        assert model.fingerprint is model.fingerprint
        assert hash(model.fingerprint) == hash(tuple(model.fingerprint))

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_a_mutation_after_a_read_equals_a_fresh_model(self, mutator):
        mutate = MUTATORS[mutator]
        read = paper_example_cost_model()
        old = read.fingerprint
        mutated = mutate(read)
        fresh = mutate(paper_example_cost_model())
        assert mutated.fingerprint != old
        assert mutated.fingerprint == fresh.fingerprint
        assert hash(mutated.fingerprint) == hash(fresh.fingerprint)
        assert hash(mutated.fingerprint) == hash(tuple(mutated.fingerprint))
        # the model the mutation started from keeps its own
        if mutated is not read:
            assert read.fingerprint == old

    def test_a_copy_shares_the_snapshot_until_it_is_written(self):
        model = paper_example_cost_model()
        duplicate = model.copy()
        assert duplicate.fingerprint == model.fingerprint
        duplicate.set_insert_cost("cd", 9)
        assert duplicate.fingerprint != model.fingerprint
        assert model.fingerprint == paper_example_cost_model().fingerprint

    def test_no_other_module_touches_the_tables(self):
        """A table written from outside would leave a stale fingerprint."""
        source = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        writers = [
            f"{path.relative_to(source)}:{number}"
            for path in sorted(source.rglob("*.py"))
            if path.name != "costs.py"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\._(insert|delete|rename|default_insert_cost)\b", line)
        ]
        assert writers == []


#: mutated cost files per seed file in the fuzz test below
FUZZ_CASES = 300
#: what a flipped character or an appended field may become
FUZZ_CHARACTERS = "ab#1.- \t-eEinfxyz0"
FUZZ_FIELDS = ["1", "0", "-1", "2.5", "inf", "nan", "1e400", "text", "struct", "#", "#root", "x"]


def _mutated(lines: list, rng) -> list:
    """One to three random edits of a cost file: a flipped character, a
    truncated line, a line's fields shuffled, or a field appended."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(FUZZ_FIELDS))
            continue
        row = rng.randrange(len(lines))
        line = lines[row]
        edit = rng.randrange(4)
        if edit == 0 and line:
            at = rng.randrange(len(line))
            line = line[:at] + rng.choice(FUZZ_CHARACTERS) + line[at + 1 :]
        elif edit == 1:
            line = line[: rng.randrange(len(line) + 1)]
        elif edit == 2:
            fields = line.split()
            rng.shuffle(fields)
            line = " ".join(fields)
        else:
            line = f"{line} {rng.choice(FUZZ_FIELDS)}"
        lines[row] = line
    return lines


class TestCostFileFuzz:
    def test_mutated_cost_files_parse_and_round_trip_or_raise_the_typed_error(self):
        """Cost files as the query generator writes them, mutated at
        random: each either parses into a model that round-trips through
        ``to_lines()``, or raises ``CostModelError`` — never another
        exception."""
        import random

        from .strategies import generated_case

        parsed = rejected = 0
        for seed in range(4):
            for generated in generated_case(seed).queries:
                lines = generated.costs.to_lines()
                rng = random.Random(f"{seed}:{generated.query.unparse()}")
                for _ in range(FUZZ_CASES):
                    mutated = _mutated(lines, rng)
                    try:
                        model = CostModel.from_lines(mutated)
                    except CostModelError:
                        rejected += 1
                        continue
                    again = CostModel.from_lines(model.to_lines())
                    assert again.to_lines() == model.to_lines(), mutated
                    assert again.fingerprint == model.fingerprint, mutated
                    parsed += 1
        assert parsed > 0 and rejected > 0
