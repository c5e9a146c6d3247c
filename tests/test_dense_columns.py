"""Dense tensor columns: block kernels, columnar aggregate folds, group
numbering, lazy conversion, and the tensor hashing/ordering fixes.

The batch engine holds a NULL-free, shape-uniform VECTOR/MATRIX column as
one float64 block and runs LA builtins and SUM/MIN/MAX/COUNT over whole
blocks. Every block kernel must equal its scalar ``impl`` mapped over the
rows, and every columnar fold must equal folding ``add`` row by row —
compared bit for bit (``view(np.int64)``), signed zeros, infinities,
NaNs and subnormals included (docs/ENGINE.md, "The equivalence
contract").
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.columnar import ColumnData, GroupLayout, group_ids
from repro.la import lookup, lookup_aggregate
from repro.la.functions import all_builtins
from repro.plan import PhysicalPlanner
from repro.plan.physical import PTopK
from repro.sql import parse_statement
from repro.types import Matrix, SigMatrix, SigScalar, SigVector, Vector

#: IEEE corner cases mixed into every generated block
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308]

magnitudes = st.floats(min_value=1e-8, max_value=1e8)
entries = st.one_of(
    st.sampled_from(SPECIAL),
    magnitudes,
    magnitudes.map(lambda x: -x),
)
KERNELS = sorted(
    (builtin for builtin in all_builtins() if builtin.batch_impl is not None),
    key=lambda builtin: builtin.name,
)


def _bits(value):
    """A value's exact identity: type, label and the raw float bits."""
    if isinstance(value, Vector):
        return ("V", value.label, value.data.shape, value.data.view(np.int64).tolist())
    if isinstance(value, Matrix):
        return ("M", value.data.shape, value.data.view(np.int64).tolist())
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


@st.composite
def kernel_inputs(draw, builtin):
    """Rows of arguments for ``builtin`` with one shape per position."""
    dims = {}

    def dim(name):
        if isinstance(name, int):
            return name
        if name not in dims:
            dims[name] = draw(st.integers(1, 5))
        return dims[name]

    n = draw(st.integers(1, 6))
    columns = []
    for param in builtin.signature.params:
        if isinstance(param, SigVector):
            shape = (dim(param.dim),)
        elif isinstance(param, SigMatrix):
            shape = (dim(param.rows), dim(param.cols))
        else:
            assert isinstance(param, SigScalar)
            columns.append(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)))
            continue
        size = int(np.prod(shape))
        flat = draw(st.lists(entries, min_size=n * size, max_size=n * size))
        block = np.array(flat, dtype=np.float64).reshape((n,) + shape)
        labels = draw(st.lists(st.integers(-1, 50), min_size=n, max_size=n))
        # every cell owns a fresh array, as in the row interpreter
        if len(shape) == 1:
            columns.append([Vector(block[i].copy(), labels[i]) for i in range(n)])
        else:
            columns.append([Matrix(block[i].copy()) for i in range(n)])
    return n, columns


class TestBlockKernels:
    def test_kernel_set(self):
        assert [builtin.name for builtin in KERNELS] == [
            "inner_product",
            "label_vector",
            "matrix_vector_multiply",
            "outer_product",
            "trans_matrix",
        ]

    @pytest.mark.parametrize("builtin", KERNELS, ids=lambda b: b.name)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_batch_impl_equals_impl_bitwise(self, builtin, data):
        n, columns = data.draw(kernel_inputs(builtin))
        with np.errstate(all="ignore"):
            expected = [builtin.impl(*[column[i] for column in columns]) for i in range(n)]
            result = builtin.batch_impl(
                [ColumnData.from_values(column) for column in columns], np.arange(n)
            )
        assert result is not None
        assert [_bits(value) for value in result.pylist()] == [
            _bits(value) for value in expected
        ]

    def test_label_vector_shares_the_input_block(self):
        vectors = ColumnData.from_values([Vector([1.0, 2.0]), Vector([3.0, 4.0])])
        labelled = lookup("label_vector").batch_impl(
            [vectors, ColumnData.from_values([7, 9])], np.arange(2)
        )
        assert labelled.block() is vectors.block()
        assert [value.label for value in labelled.pylist()] == [7, 9]
        with pytest.raises(ValueError):
            labelled.block()[0, 0] = 5.0  # cells are views: blocks are read-only


# -- columnar aggregate folds ------------------------------------------------


@st.composite
def grouped_columns(draw):
    """A NULL-free column (float64, int64, labelled vectors or matrices)
    and a group number per row, with one-row groups likely."""
    n = draw(st.integers(1, 14))
    gid = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    # renumber in first-seen order, as group_ids does
    numbers = {}
    gid = np.array([numbers.setdefault(g, len(numbers)) for g in gid], dtype=np.int64)
    kind = draw(st.sampled_from(["float", "int", "vector", "matrix"]))
    if kind == "float":
        values = draw(st.lists(entries, min_size=n, max_size=n))
    elif kind == "int":
        bound = draw(st.sampled_from([100, 2**62]))
        values = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    else:
        shape = (draw(st.integers(1, 4)),) if kind == "vector" else (2, draw(st.integers(1, 3)))
        size = int(np.prod(shape))
        flat = draw(st.lists(entries, min_size=n * size, max_size=n * size))
        block = np.array(flat, dtype=np.float64).reshape((n,) + shape)
        if kind == "vector":
            labels = draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n))
            values = [Vector(block[i].copy(), labels[i]) for i in range(n)]
        else:
            values = [Matrix(block[i].copy()) for i in range(n)]
    return gid, values


def _row_fold(aggregate, values, gid):
    states = {}
    for g, value in zip(gid.tolist(), values):
        states[g] = aggregate.add(states.get(g, aggregate.create()), value)
    return [states[g] for g in range(len(states))]


class TestColumnFolds:
    @pytest.mark.parametrize("name", ["SUM", "MIN", "MAX", "COUNT"])
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=grouped_columns(), dense_only=st.booleans())
    def test_fold_equals_row_fold_bitwise(self, name, case, dense_only):
        gid, values = case
        aggregate = lookup_aggregate(name)
        column = ColumnData.from_values(values)
        if dense_only and column.block() is not None:
            column = ColumnData.dense(column.block().copy(), column.labels)
        with np.errstate(all="ignore"):
            expected = _row_fold(aggregate, values, gid)
            folded = aggregate.fold_column(column, GroupLayout(gid))
        if folded is None:
            # the row fold runs instead: only NaN under MIN/MAX, or an
            # int64 sum that could overflow, may send it there
            data = column.data if column.is_numeric else column.block()
            assert name in ("MIN", "MAX", "SUM")
            if name == "SUM":
                assert data.dtype == np.int64
            else:
                assert np.isnan(data).any()
            return
        assert [_bits(state) for state in folded] == [_bits(state) for state in expected]

    def test_count_star(self):
        gid = np.array([0, 1, 0, 2, 0], dtype=np.int64)
        assert lookup_aggregate("COUNT").fold_column(None, GroupLayout(gid)) == [3, 1, 1]

    def test_sum_of_one_row_keeps_the_label(self):
        column = ColumnData.from_values([Vector([1.0, -0.0], 4)])
        (state,) = lookup_aggregate("SUM").fold_column(column, GroupLayout(np.zeros(1, np.int64)))
        assert state.label == 4 and _bits(state) == _bits(Vector([1.0, -0.0], 4))

    def test_sum_of_negative_zeros_stays_negative(self):
        # np.add.reduce over an (n, 1) block gives +0.0 here
        column = ColumnData.from_values([Vector([-0.0]), Vector([-0.0])])
        (state,) = lookup_aggregate("SUM").fold_column(column, GroupLayout(np.zeros(2, np.int64)))
        assert np.signbit(state.data[0])

    def test_min_keeps_the_first_of_equal_zeros(self):
        column = ColumnData.from_values([0.0, -0.0, 1.0])
        layout = GroupLayout(np.zeros(3, np.int64))
        assert _bits(lookup_aggregate("MIN").fold_column(column, layout)[0]) == _bits(0.0)


class TestGroupIds:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf]),
                st.integers(-3, 3),
            ),
            max_size=20,
        )
    )
    def test_matches_dict_numbering(self, rows):
        n = len(rows)
        keys = [
            ColumnData.from_values([row[0] for row in rows]) if n else ColumnData(np.empty(0)),
            ColumnData.from_values([row[1] for row in rows]) if n else ColumnData(np.empty(0, np.int64)),
        ]
        numbers, first = {}, {}
        expected = []
        for i, key in enumerate(rows):
            if key not in numbers:
                numbers[key] = len(numbers)
                first[numbers[key]] = key
            expected.append(numbers[key])
        gid = group_ids(keys, n)
        assert gid.tolist() == expected
        layout = GroupLayout(gid)
        firsts = list(zip(*[column.cells(layout.first_rows) for column in keys]))
        # the group key is the first-seen one, sign of zero included
        assert [_bits(a) + _bits(b) for a, b in firsts] == [
            _bits(first[g][0]) + _bits(first[g][1]) for g in range(len(first))
        ]

    def test_nan_and_object_keys_use_the_dict(self):
        assert group_ids([ColumnData.from_values([1.0, float("nan")])], 2) is None
        assert group_ids([ColumnData.from_values(["a", "b"])], 2) is None
        assert group_ids([], 3).tolist() == [0, 0, 0]


# -- lazy conversion ---------------------------------------------------------


class TestLazyConversion:
    def _built_blocks(self, monkeypatch, db, sql):
        built = []
        original = ColumnData._stack

        def recording(column):
            result = original(column)
            if result is not None:
                built.append(result[0].shape)
            return result

        monkeypatch.setattr(ColumnData, "_stack", recording)
        db.execute(sql)
        return built

    def test_disk_scan_of_an_unread_vector_column_builds_no_block(self, monkeypatch):
        db = Database(TEST_CLUSTER.with_updates(storage_mode="disk", segment_rows=8))
        db.execute("CREATE TABLE t (id INTEGER, x DOUBLE, v VECTOR[])")
        db.load("t", [(i, float(i), Vector([float(i), 1.0, -0.0])) for i in range(40)])
        for sql in (
            "SELECT id, x FROM t WHERE id > 3",
            "SELECT SUM(x), COUNT(*) FROM t GROUP BY id",
            "SELECT MAX(x) FROM t",
        ):
            assert self._built_blocks(monkeypatch, db, sql) == []
        # the probe does see a block when a kernel reads v
        assert self._built_blocks(
            monkeypatch, db, "SELECT SUM(outer_product(v, v)) FROM t"
        )


# -- tensor hashing and ordering ---------------------------------------------

SIGNED_ZERO_ROWS = [
    (Vector([0.0, 1.0]), 1.0),
    (Vector([-0.0, 1.0]), 2.0),
    (Vector([0.0, 1.0]), 4.0),
    (Vector([-0.0, 1.0]), 8.0),
]


def _signed_zero_db(mode):
    db = Database(TEST_CLUSTER.with_updates(execution_mode=mode))
    db.execute("CREATE TABLE t (k VECTOR[], x DOUBLE)")
    db.load("t", SIGNED_ZERO_ROWS)
    return db


class TestSignedZeroTensorsHashEqual:
    def test_hashes_agree(self):
        from repro.engine import stable_hash

        assert hash(Vector([0.0, 1.0])) == hash(Vector([-0.0, 1.0]))
        assert hash(Matrix([[0.0]])) == hash(Matrix([[-0.0]]))
        assert stable_hash((Vector([0.0, 1.0]),)) == stable_hash((Vector([-0.0, 1.0]),))
        assert stable_hash((Matrix([[-0.0]]),)) == stable_hash((Matrix([[0.0]]),))

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_group_by_distinct_and_join(self, mode):
        db = _signed_zero_db(mode)
        # GROUP BY hash-repartitions on k between its two phases
        assert db.execute("SELECT SUM(x) FROM t GROUP BY k").rows == [(15.0,)]
        assert len(db.execute("SELECT DISTINCT k FROM t").rows) == 1
        joined = db.execute("SELECT COUNT(*) FROM t AS a, t AS b WHERE a.k = b.k")
        assert joined.rows == [(16,)]


MATRIX_ROWS = [
    (i, Matrix(np.full((1 + i % 2, 2), float((i * 7) % 4))))
    for i in range(12)
]


def _matrix_db(mode):
    db = Database(TEST_CLUSTER.with_updates(execution_mode=mode))
    db.execute("CREATE TABLE m (i INTEGER, mat MATRIX[][])")
    db.load("m", MATRIX_ROWS)
    return db


class TestOrderByMatrix:
    @pytest.mark.parametrize("direction", ["", " DESC"])
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_full_sort_and_top_k_agree(self, mode, direction):
        db = _matrix_db(mode)
        sql = f"SELECT i, mat FROM m ORDER BY mat{direction} LIMIT 5"
        logical = db._plan_select(parse_statement(sql), None)
        full = PhysicalPlanner(db.cost_model, enable_top_k=False).plan(logical)
        top_k = db.execute(sql)
        assert top_k.rows == db._execute_physical(logical, full).rows
        keys = [
            (row[1].shape, tuple(row[1].data.ravel().tolist())) for row in top_k.rows
        ]
        expected = sorted(
            ((m.shape, tuple(m.data.ravel().tolist())) for _, m in MATRIX_ROWS),
            reverse=bool(direction),
        )[:5]
        assert keys == expected
        assert len(db.execute(f"SELECT i, mat FROM m ORDER BY mat{direction}").rows) == 12

    def test_modes_agree(self):
        sql = "SELECT i, mat FROM m ORDER BY mat, i DESC"
        assert _matrix_db("row").execute(sql).rows == _matrix_db("batch").execute(sql).rows

    def test_limit_plans_the_top_k_operator(self):
        db = _matrix_db("batch")
        logical = db._plan_select(parse_statement("SELECT i, mat FROM m ORDER BY mat LIMIT 2"), None)
        stack, found = [PhysicalPlanner(db.cost_model).plan(logical)], False
        while stack:
            node = stack.pop()
            found = found or isinstance(node, PTopK)
            stack.extend(node.children())
        assert found


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT k, SUM(x), COUNT(x), COUNT(*), MIN(x), MAX(x) FROM t GROUP BY k",
        "SELECT SUM(x), COUNT(*) FROM t GROUP BY x",
        "SELECT k, COUNT(DISTINCT x) FROM t GROUP BY k",
    ],
)
def test_null_bearing_keys_and_values_match_row_mode(sql):
    rows = [(None, 1.0), (2, 2.0), (None, 4.0), (2, 8.0), (3, None), (2, -0.0), (2, 0.0)]
    results = []
    for mode in ("row", "batch"):
        db = Database(TEST_CLUSTER.with_updates(execution_mode=mode))
        db.execute("CREATE TABLE t (k INTEGER, x DOUBLE)")
        db.load("t", rows)
        results.append([tuple(_bits(value) for value in row) for row in db.execute(sql).rows])
    assert results[0] == results[1]
