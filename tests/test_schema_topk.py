"""Unit tests for the segmented top-k list operations (Section 7.2)."""

import pytest

from repro.schema.entries import SchemaEntry
from repro.schema.topk_ops import (
    add_edge_k,
    intersect_k,
    join_k,
    merge_k,
    outerjoin_k,
    sort_roots,
    union_k,
)


def entry(pre, bound=None, pathcost=0.0, inscost=1.0, embcost=0.0, label="l",
          pointers=(), has_leaf=True):
    return SchemaEntry(
        pre, pre if bound is None else bound, pathcost, inscost, embcost, label,
        tuple(pointers), has_leaf,
    )


class TestMergeK:
    def test_segments_can_interleave(self):
        left = [entry(1, label="a", embcost=1.0)]
        right = [entry(1, label="b", embcost=0.0)]
        merged = merge_k(left, right, 2.0, k=5)
        assert [(e.label, e.embcost) for e in merged] == [("a", 1.0), ("b", 2.0)]

    def test_segment_truncation(self):
        left = [entry(1, label=f"a{i}", embcost=float(i)) for i in range(4)]
        merged = merge_k(left, [], 0.0, k=2)
        assert len(merged) == 2

    def test_exact_without_truncation(self):
        """No run longer than k: the list cut to k is the whole list."""
        small = merge_k([entry(1)], [entry(2)], 0.0, k=2)
        assert [(e.pre, e.label) for e in small] == [
            (e.pre, e.label) for e in merge_k([entry(1)], [entry(2)], 0.0, k=100)
        ]


class TestJoinK:
    def test_k_copies_per_ancestor(self):
        ancestors = [entry(1, 10, label="cd", has_leaf=False)]
        descendants = [
            entry(3, 3, pathcost=1.0, embcost=float(i), label=f"t{i}") for i in range(5)
        ]
        joined = join_k(ancestors, descendants, 0.0, k=3)
        assert len(joined) == 3
        assert [e.embcost for e in joined] == [0.0, 1.0, 2.0]

    def test_pointers_initialized_with_descendant(self):
        descendant = entry(3, 3, pathcost=1.0, label="t")
        joined = join_k([entry(1, 10, has_leaf=False)], [descendant], 0.0, k=2)
        assert joined[0].pointers == (descendant,)

    def test_validity_from_descendant(self):
        valid = entry(3, 3, pathcost=1.0, label="v", has_leaf=True)
        invalid = entry(4, 4, pathcost=1.0, label="i", has_leaf=False, embcost=0.0)
        joined = join_k([entry(1, 10, has_leaf=False)], [valid, invalid], 0.0, k=1)
        flags = {e.pointers[0].label: e.has_leaf for e in joined}
        assert flags == {"v": True, "i": False}

    def test_valid_not_crowded_out_by_invalid(self):
        """Per-class quotas: k cheap invalid skeletons must not evict the
        valid one."""
        invalids = [
            entry(3 + i, 3 + i, pathcost=1.0, embcost=0.0, label=f"i{i}", has_leaf=False)
            for i in range(3)
        ]
        valid = entry(8, 8, pathcost=1.0, embcost=5.0, label="v", has_leaf=True)
        joined = join_k([entry(1, 10, has_leaf=False)], invalids + [valid], 0.0, k=1)
        assert any(e.has_leaf for e in joined)

    def test_no_descendants_drops_ancestor(self):
        assert join_k([entry(1, 2)], [entry(9, 9)], 0.0, k=2) == []


class TestOuterjoinK:
    def test_deletion_candidate_added(self):
        result = outerjoin_k([entry(1, 4, label="cd")], [], 0.0, 6.0, k=2)
        assert len(result) == 1
        assert result[0].embcost == 6.0
        assert result[0].pointers == ()
        assert not result[0].has_leaf

    def test_infinite_delete_no_candidate(self):
        assert outerjoin_k([entry(1, 4)], [], 0.0, float("inf"), k=2) == []

    def test_match_and_deletion_coexist(self):
        descendant = entry(2, 0, pathcost=1.0, label="t")
        result = outerjoin_k([entry(1, 4, label="cd")], [descendant], 0.0, 6.0, k=2)
        assert len(result) == 2
        assert {e.has_leaf for e in result} == {True, False}


class TestIntersectK:
    def test_pairs_summed(self):
        left = [entry(1, 4, embcost=1.0, label="cd", pointers=(entry(2, label="x"),))]
        right = [entry(1, 4, embcost=2.0, label="cd", pointers=(entry(3, label="y"),))]
        result = intersect_k(left, right, 0.0, k=4)
        assert len(result) == 1
        assert result[0].embcost == 3.0
        assert len(result[0].pointers) == 2

    def test_k_smallest_pairs(self):
        left = [entry(1, 4, embcost=float(i), label=f"L{i}",
                      pointers=(entry(10 + i, label=f"l{i}"),)) for i in range(3)]
        right = [entry(1, 4, embcost=float(j), label=f"R{j}",
                       pointers=(entry(20 + j, label=f"r{j}"),)) for j in range(3)]
        result = intersect_k(left, right, 0.0, k=4)
        assert [e.embcost for e in result] == [0.0, 1.0, 1.0, 2.0]

    def test_pointer_union_dedups_shared_subtrees(self):
        shared = entry(2, label="x")
        left = [entry(1, 4, embcost=0.0, pointers=(shared,))]
        right = [entry(1, 4, embcost=0.0, pointers=(shared,))]
        result = intersect_k(left, right, 0.0, k=2)
        assert len(result[0].pointers) == 1

    def test_validity_is_or(self):
        left = [entry(1, 4, embcost=0.0, has_leaf=False)]
        right = [entry(1, 4, embcost=0.0, has_leaf=True, pointers=(entry(2, label="x"),))]
        result = intersect_k(left, right, 0.0, k=2)
        assert result[0].has_leaf

    def test_disjoint_segments_drop(self):
        assert intersect_k([entry(1, 4)], [entry(2, 4)], 0.0, k=2) == []


class TestUnionK:
    def test_all_segments_kept(self):
        result = union_k([entry(1, label="a")], [entry(2, label="b")], 1.0, k=2)
        assert [e.pre for e in result] == [1, 2]
        assert all(e.embcost == 1.0 for e in result)

    def test_same_skeleton_deduplicated(self):
        twin_a = entry(1, 4, embcost=2.0, label="cd")
        twin_b = entry(1, 4, embcost=5.0, label="cd")
        result = union_k([twin_a], [twin_b], 0.0, k=3)
        assert len(result) == 1
        assert result[0].embcost == 2.0

    def test_distinct_skeletons_both_kept(self):
        a = entry(1, 4, embcost=2.0, label="cd", pointers=(entry(2, label="x"),))
        b = entry(1, 4, embcost=5.0, label="cd", pointers=(entry(3, label="y"),))
        result = union_k([a], [b], 0.0, k=3)
        assert len(result) == 2


class TestSortRoots:
    def test_invalid_filtered(self):
        entries = [entry(1, embcost=0.0, has_leaf=False), entry(2, embcost=5.0)]
        result = sort_roots(None, entries)
        assert [e.pre for e in result] == [2]

    def test_global_k(self):
        entries = [entry(i, embcost=float(i % 3), label=f"l{i}") for i in range(1, 7)]
        result = sort_roots(2, entries)
        assert len(result) == 2
        assert [e.embcost for e in result] == [0.0, 0.0]

    def test_deterministic_prefix(self):
        entries = [entry(i, embcost=float(i % 3), label=f"l{i}") for i in range(1, 9)]
        small = sort_roots(3, list(entries))
        large = sort_roots(6, list(entries))
        assert [e.signature for e in large[:3]] == [e.signature for e in small]


class TestAddEdgeK:
    def test_zero_identity(self):
        entries = [entry(1)]
        assert add_edge_k(entries, 0.0) is entries

    def test_costs_shifted_copy(self):
        entries = [entry(1, embcost=1.0)]
        result = add_edge_k(entries, 2.0)
        assert result[0].embcost == 3.0
        assert entries[0].embcost == 1.0


class TestSignatures:
    def test_signature_ignores_cost(self):
        assert entry(1, embcost=1.0).signature == entry(1, embcost=9.0).signature

    def test_signature_includes_structure(self):
        with_child = entry(1, pointers=(entry(2, label="x"),))
        without = entry(1)
        assert with_child.signature != without.signature

    def test_skeleton_format(self):
        skeleton = entry(1, label="cd", pointers=(entry(3, label="piano"),))
        assert skeleton.format_skeleton() == "cd@1[piano@3]"

    def test_skeleton_size(self):
        skeleton = entry(1, pointers=(entry(2), entry(3, pointers=(entry(4),))))
        assert skeleton.skeleton_size() == 4
