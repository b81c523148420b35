"""Tests for the posting-list serializers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.postings import (
    InstanceColumns,
    column_bytes,
    decode_node_postings,
    encode_node_postings,
)


class TestNodePostings:
    def test_roundtrip(self):
        entries = [(1, 20, 0, 1), (5, 9, 3, 2), (12, 12, 7, 4)]
        assert decode_node_postings(encode_node_postings(entries)) == entries

    def test_empty(self):
        assert decode_node_postings(encode_node_postings([])) == []

    def test_text_node_shape(self):
        # text nodes carry bound = 0 and inscost = 0 in list entries
        entries = [(4, 0, 9, 0), (15, 0, 9, 0)]
        assert decode_node_postings(encode_node_postings(entries)) == entries

    def test_unsorted_rejected(self):
        with pytest.raises(StorageError):
            encode_node_postings([(5, 5, 0, 1), (3, 3, 0, 1)])

    def test_duplicate_pre_rejected(self):
        with pytest.raises(StorageError):
            encode_node_postings([(5, 5, 0, 1), (5, 6, 0, 1)])


class TestInstancePostings:
    """Instance postings (``I_sec``) live only in the schema, as
    :class:`InstanceColumns`: rows in, the same rows out, two flat
    columns and no object per row."""

    def test_roundtrip(self):
        entries = [(2, 9), (11, 16), (30, 30)]
        assert InstanceColumns.from_rows(entries).tolist() == entries

    def test_empty(self):
        assert InstanceColumns.from_rows([]).tolist() == []

    def test_compactness(self):
        entries = [(index, index + 3) for index in range(0, 3000, 3)]
        columns = InstanceColumns.from_rows(entries)
        assert column_bytes(columns.pre, columns.bound) == 16 * len(entries)


node_posting = st.tuples(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=2**10),
)


@given(st.lists(node_posting, max_size=50))
def test_node_postings_roundtrip_property(entries):
    entries = sorted(entries, key=lambda e: e[0])
    deduped = []
    seen = set()
    for entry in entries:
        if entry[0] not in seen:
            seen.add(entry[0])
            deduped.append(entry)
    assert decode_node_postings(encode_node_postings(deduped)) == deduped


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=2**30)
        ),
        max_size=50,
    )
)
def test_instance_postings_roundtrip_property(entries):
    entries = sorted({pre: bound for pre, bound in entries}.items())
    columns = InstanceColumns.from_rows(entries)
    assert columns == entries
    assert list(columns.pre) == [pre for pre, _ in entries]


# ----------------------------------------------------------------------
# block encode kernel: bytes pinned, both in-memory shapes alike
# ----------------------------------------------------------------------

from repro.storage.postings import PostingColumns, TermColumns

GOLDEN_NODE_ROWS = [
    (1, 20, 0, 1), (5, 9, 3, 2), (12, 12, 7, 4), (300, 0, 200, 0), (70000, 70001, 129, 128),
]
GOLDEN_NODE_BYTES = "0502260001080803020e000704c004d704c8010088c1080281018001"


class TestGoldenBytes:
    """The bytes the per-value codec wrote before the block kernel
    replaced it (taken from that implementation): a store written by
    either opens under the other."""

    def test_node_postings(self):
        assert encode_node_postings(GOLDEN_NODE_ROWS).hex() == GOLDEN_NODE_BYTES
        columns = PostingColumns.from_rows(GOLDEN_NODE_ROWS)
        assert encode_node_postings(columns).hex() == GOLDEN_NODE_BYTES

    def test_unsorted_columns_rejected(self):
        with pytest.raises(StorageError):
            encode_node_postings(PostingColumns.from_rows([(5, 5, 0, 1), (5, 6, 0, 1)]))

    def test_negative_plain_value_rejected(self):
        with pytest.raises(StorageError):
            encode_node_postings([(1, 1, -1, 0)])


class TestCopyOnWriteColumns:
    def test_without_cuts_one_run(self):
        columns = InstanceColumns.from_rows([(1, 9), (3, 4), (10, 12), (20, 20)])
        assert columns.without(3, 12) == [(1, 9), (20, 20)]
        assert columns == [(1, 9), (3, 4), (10, 12), (20, 20)]  # the original is untouched

    def test_extended_appends(self):
        columns = PostingColumns.from_rows([(1, 9, 0, 1)])
        grown = columns.extended(PostingColumns.from_rows([(12, 12, 2, 1)]))
        assert grown == [(1, 9, 0, 1), (12, 12, 2, 1)]
        assert len(columns) == 1


class TestTermColumns:
    BOUNDS = list(range(100))  # text leaves: bound == pre

    def build(self):
        return TermColumns.from_pres({"b": [2, 7], "a": [4], "d": [5, 9, 11]}, self.BOUNDS)

    def test_mapping_view(self):
        terms = self.build()
        assert list(terms) == ["a", "b", "d"]
        assert len(terms) == 3
        assert terms["b"] == [(2, 2), (7, 7)]
        assert "c" not in terms and "d" in terms
        assert terms.get("c", []) == []
        assert {term: list(posting) for term, posting in terms.items()} == {
            "a": [(4, 4)], "b": [(2, 2), (7, 7)], "d": [(5, 5), (9, 9), (11, 11)],
        }
        # one flat pair ordered by (term, pre)
        assert list(terms.pre) == [4, 2, 7, 5, 9, 11]
        assert list(terms.offsets) == [0, 1, 3, 6]

    def test_edit_adds_drops_and_keeps_the_original(self):
        terms = self.build()
        edited = terms.edited(
            self.BOUNDS, {"c": [20], "d": [21], "0": [22]}, dropped=(5, 9), touched={"b", "d"}
        )
        assert {term: list(posting.pre) for term, posting in edited.items()} == {
            "0": [22], "a": [4], "b": [2], "c": [20], "d": [11, 21],
        }
        assert list(edited.offsets) == [0, 1, 2, 3, 4, 6]
        assert list(terms.pre) == [4, 2, 7, 5, 9, 11]

    def test_emptied_run_disappears(self):
        edited = self.build().edited(self.BOUNDS, {}, dropped=(4, 4), touched={"a"})
        assert list(edited) == ["b", "d"]
        assert list(edited.offsets) == [0, 2, 5]
