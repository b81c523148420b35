"""Array-backed posting columns must be indistinguishable from lists.

The columnar decode path re-backs postings with flat ``array('q')``
buffers.  Everything downstream — the Section 6.4 list algebra, the
semi-joins, pickling — was written against lists of tuples, so these
property tests drive every operation in :mod:`repro.engine.ops` with
both backings and demand identical rows, on both sides of the joins'
range-minimum choice (ancestor intervals stretched until the sparse
tables are picked / left narrow for the slice sweep).
"""

import math
import pickle
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.columns import EvalColumns
from repro.engine.ops import (
    add_edge_cost,
    intersect,
    join,
    merge,
    outerjoin,
    sort_best,
    union,
)
from repro.schema.secondary import semi_join
from repro.storage.postings import (
    InstanceColumns,
    PostingColumns,
    decode_node_posting_columns,
    encode_node_postings,
)
from repro.telemetry.collector import Telemetry, collecting

# ----------------------------------------------------------------------
# strategies: legal sorted-unique-pre postings
# ----------------------------------------------------------------------

node_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=14,
).map(
    lambda rows: [
        (pre, pre + span, pathcost, inscost)
        for pre, (span, pathcost, inscost) in sorted(
            {pre: rest for pre, *rest in rows}.items()
        )
    ]
)

instance_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=14,
).map(
    lambda rows: [
        (pre, pre + span)
        for pre, span in sorted(dict(rows).items())
    ]
)


def as_generated(ancestors, descendants):
    return ancestors, descendants


def stretched(ancestors, descendants):
    """Descendants moved behind every ancestor, every ancestor stretched
    over all of them, ancestors padded to six rows: total interval width
    6 |D| or more, above the |D| log |D| of a table build at these sizes."""
    padding = [(pad, pad, 0, 1) for pad in range(61, 67 - len(ancestors))]
    return (
        [(pre, 1_000, pathcost, inscost) for pre, _, pathcost, inscost in ancestors + padding],
        [(pre + 100, bound + 100, pathcost, inscost)
         for pre, bound, pathcost, inscost in descendants],
    )


@pytest.fixture(params=["rmq-always", "rmq-never"])
def rmq_pin(request):
    """How a join test shapes its generated postings — the joins pick
    their range-minimum strategy from the input, nothing pins it:
    ``rmq-always`` is :func:`stretched` (the sparse tables answer),
    ``rmq-never`` the narrow generated intervals (mostly slice sweeps)."""
    return stretched if request.param == "rmq-always" else as_generated


@pytest.fixture(params=["python"])
def kernel(request):
    """The one list-algebra kernel; the parameter only keeps the test
    ids stable now that the numpy variant is gone."""
    return request.param


def columns_pair(posting):
    """The same node posting with both backings: the block-varint decode
    (flat int64 arrays) and the historical list of tuples."""
    decoded = decode_node_posting_columns(encode_node_postings(posting))
    assert isinstance(decoded.pre, array)
    return decoded, list(posting)


def eval_pair(posting, is_text=False, as_leaf=False):
    arrays, lists = columns_pair(posting)
    return (
        EvalColumns.from_postings(arrays, is_text, as_leaf),
        EvalColumns.from_postings(lists, is_text, as_leaf),
    )


# ----------------------------------------------------------------------
# decoded equality and duck-typing
# ----------------------------------------------------------------------


class TestColumnarDecode:
    @settings(max_examples=60, deadline=None)
    @given(posting=node_rows)
    def test_node_decode_equals_rows(self, posting):
        decoded, rows = columns_pair(posting)
        assert decoded == rows
        assert list(decoded) == rows
        assert len(decoded) == len(rows)
        for index, row in enumerate(rows):
            assert decoded[index] == row
        assert decoded[1:3] == rows[1:3]

    @settings(max_examples=60, deadline=None)
    @given(posting=instance_rows)
    def test_instance_decode_equals_rows(self, posting):
        decoded = InstanceColumns.from_rows(posting)
        assert decoded == list(posting)
        assert list(decoded) == list(posting)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=node_rows)
    def test_pickle_rematerializes_as_plain_arrays(self, posting):
        decoded, rows = columns_pair(posting)
        clone = pickle.loads(pickle.dumps(decoded))
        assert isinstance(clone, PostingColumns)
        assert clone == rows
        assert isinstance(clone.pre, array)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=instance_rows)
    def test_instance_pickle_roundtrip(self, posting):
        decoded = InstanceColumns.from_rows(posting)
        clone = pickle.loads(pickle.dumps(decoded))
        assert isinstance(clone, InstanceColumns)
        assert clone == list(posting)


# ----------------------------------------------------------------------
# every op in engine/ops.py, array backing vs list backing
# ----------------------------------------------------------------------


class TestOpsBackingEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=node_rows, is_text=st.booleans(), as_leaf=st.booleans())
    def test_fetch_shape(self, rmq_pin, kernel, posting, is_text, as_leaf):
        from_arrays, from_lists = eval_pair(posting, is_text, as_leaf)
        assert from_arrays.rows() == from_lists.rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        left=node_rows,
        right=node_rows,
        cost=st.integers(min_value=0, max_value=5),
    )
    def test_merge(self, rmq_pin, kernel, left, right, cost):
        left_a, left_l = eval_pair(left)
        right_a, right_l = eval_pair(right)
        assert merge(left_a, right_a, float(cost)).rows() == merge(
            left_l, right_l, float(cost)
        ).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ancestors=node_rows,
        descendants=node_rows,
        edge=st.integers(min_value=0, max_value=5),
    )
    def test_join(self, rmq_pin, kernel, ancestors, descendants, edge):
        ancestors, descendants = rmq_pin(ancestors, descendants)
        anc_a, anc_l = eval_pair(ancestors)
        desc_a, desc_l = eval_pair(descendants, as_leaf=True)
        telemetry = Telemetry()
        with collecting(telemetry):
            assert join(anc_a, desc_a, float(edge)).rows() == join(
                anc_l, desc_l, float(edge)
            ).rows()
        if descendants and rmq_pin is stretched:
            assert telemetry.counters.get("kernel.rmq_joins") == 2

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ancestors=node_rows,
        descendants=node_rows,
        edge=st.integers(min_value=0, max_value=5),
        delete=st.integers(min_value=0, max_value=9),
    )
    def test_outerjoin(self, rmq_pin, kernel, ancestors, descendants, edge, delete):
        ancestors, descendants = rmq_pin(ancestors, descendants)
        anc_a, anc_l = eval_pair(ancestors)
        desc_a, desc_l = eval_pair(descendants, as_leaf=True)
        assert outerjoin(anc_a, desc_a, float(edge), float(delete)).rows() == outerjoin(
            anc_l, desc_l, float(edge), float(delete)
        ).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        left=node_rows,
        right=node_rows,
        edge=st.integers(min_value=0, max_value=5),
    )
    def test_intersect(self, rmq_pin, kernel, left, right, edge):
        left_a, left_l = eval_pair(left, as_leaf=True)
        right_a, right_l = eval_pair(right, as_leaf=True)
        assert intersect(left_a, right_a, float(edge)).rows() == intersect(
            left_l, right_l, float(edge)
        ).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        left=node_rows,
        right=node_rows,
        edge=st.integers(min_value=0, max_value=5),
    )
    def test_union(self, rmq_pin, kernel, left, right, edge):
        left_a, left_l = eval_pair(left, as_leaf=True)
        right_a, right_l = eval_pair(right, as_leaf=True)
        assert union(left_a, right_a, float(edge)).rows() == union(
            left_l, right_l, float(edge)
        ).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=node_rows, n=st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    def test_sort_best(self, rmq_pin, kernel, posting, n):
        from_arrays, from_lists = eval_pair(posting, as_leaf=True)
        assert sort_best(n, from_arrays).rows() == sort_best(n, from_lists).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=node_rows, edge=st.integers(min_value=0, max_value=5))
    def test_add_edge_cost(self, rmq_pin, kernel, posting, edge):
        from_arrays, from_lists = eval_pair(posting, as_leaf=True)
        assert add_edge_cost(from_arrays, float(edge)).rows() == add_edge_cost(
            from_lists, float(edge)
        ).rows()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(posting=node_rows, edge=st.integers(min_value=0, max_value=5))
    def test_costs_stay_plain_floats(self, rmq_pin, kernel, posting, edge):
        """Cost columns hold builtin floats whatever backs the identity
        columns — downstream code (reports, JSON, result equality)
        assumes them."""
        from_arrays, _ = eval_pair(posting, as_leaf=True)
        shifted = add_edge_cost(from_arrays, float(edge))
        for value in list(shifted.embcost) + list(shifted.leafcost):
            assert type(value) is float or value == math.inf

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ancestors=instance_rows, descendants=instance_rows)
    def test_semi_join(self, ancestors, descendants):
        anc_cols = InstanceColumns.from_rows(ancestors)
        desc_cols = InstanceColumns.from_rows(descendants)
        assert semi_join(anc_cols, desc_cols) == semi_join(
            list(ancestors), list(descendants)
        )
