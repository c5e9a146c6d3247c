"""Column-at-a-time hash repartition and equi-join in the batch engine.

A single-key hash exchange places rows by the key column's cached
placement hashes (``ColumnData.hashes``) and moves every row in one
pass; an equi-join on one NULL-free int64/float64 key probes by
sort/search. Both must reproduce the per-row placement, the per-target
row order and the dict join's output order exactly (docs/ENGINE.md,
"Exchanges and joins").
"""

import struct
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
import repro.columnar
from repro.columnar import ColumnData
from repro.engine import Cluster, Executor, stable_hash
from repro.engine.executor import _JoinTable
from repro.engine.storage import ROUND_ROBIN, Batch, DistributedRelation
from repro.plan.expressions import ColumnVar
from repro.plan.physical import PExchange
from repro.types import DOUBLE, INTEGER, Vector

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: NaNs of different payloads, signed zeros, integral floats at and
#: beyond the int64 range, infinities
SPECIAL_FLOATS = [
    0.0, -0.0, _nan(0x7FF8000000000000), _nan(0x7FF8000000000001),
    _nan(0xFFF0000000000002), float("inf"), -float("inf"), 2.0**53,
    2.0**63, -(2.0**63), 1e300, 0.5,
]
SPECIAL_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 0, 1]

ints = st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-(2**63), 2**63 - 1))
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True))
vectors = st.lists(st.sampled_from([0.0, -0.0, 1.5]), min_size=2, max_size=2).map(
    Vector
)
#: one column's values: homogeneous (typed) or mixed (object), with
#: or without NULLs
column_values = st.one_of(
    st.lists(ints, max_size=12),
    st.lists(floats, max_size=12),
    st.lists(st.booleans(), max_size=12),
    st.lists(st.one_of(ints, floats, st.none()), max_size=12),
    st.lists(st.one_of(st.text(max_size=3), st.none()), max_size=12),
    st.lists(st.one_of(vectors, st.none()), max_size=12),
)


def _exact(rows):
    """Rows with every value replaced by its type and exact bits (NaN
    payloads and signed zeros included)."""
    return [
        tuple(
            struct.pack("<d", v) if type(v) is float else (type(v).__name__, v)
            for v in row
        )
        for row in rows
    ]


def _reference_hashes(column):
    return [stable_hash((value,)) for value in column.pylist()]


class TestPlacementHashes:
    @SETTINGS
    @given(values=column_values, other=column_values, data=st.data())
    def test_equal_per_row_stable_hash_and_carried(self, values, other, data):
        column = ColumnData.from_values(values)
        assert column.hashes().dtype == np.uint64
        assert column.hashes().tolist() == _reference_hashes(column)

        n = len(values)
        positions = st.lists(st.integers(0, n - 1), max_size=8) if n else st.just([])
        picks = np.asarray(data.draw(positions), dtype=np.int64)
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        mask = np.asarray(data.draw(flags), dtype=np.bool_)
        second = ColumnData.from_values(other)
        second.hashes()
        derived = [
            column.take(picks),
            column.filter(mask),
            column.take(slice(1, None)),
            ColumnData.concat([column, second]),
        ]
        for out in derived:
            assert out._hashes is not None  # carried, not recomputed
            assert out.hashes().tolist() == _reference_hashes(out)

    def test_typed_column_with_a_null_mask(self):
        # expression outputs may be typed with NULLs; the data under a
        # NULL is unspecified and must not leak into the hash
        column = ColumnData(
            np.array([1.0, np.nan, 3.0]), nulls=np.array([False, True, False])
        )
        assert column.hashes().tolist() == [
            stable_hash((1.0,)), stable_hash((None,)), stable_hash((3.0,))
        ]

    def test_nan_payloads_hash_apart_and_zeros_together(self):
        column = ColumnData.from_values(SPECIAL_FLOATS)
        hashes = column.hashes().tolist()
        assert len(set(hashes[2:5])) == 3
        assert hashes[0] == hashes[1] == stable_hash((0,))

    def test_uncached_sources_leave_the_concat_uncached(self):
        column = ColumnData.from_values([1, 2])
        assert ColumnData.concat([column, column])._hashes is None


class TestConcatKeepsIntAndFloatApart:
    def test_int_and_float(self):
        out = ColumnData.concat(
            [ColumnData.from_values([2**53 + 1, 3]), ColumnData.from_values([0.5])]
        ).pylist()
        assert out == [2**53 + 1, 3, 0.5]
        assert [type(value) for value in out] == [int, int, float]

    def test_int_and_bool(self):
        out = ColumnData.concat(
            [ColumnData.from_values([2, 3]), ColumnData.from_values([True])]
        ).pylist()
        assert [type(value) for value in out] == [int, int, bool]

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_broadcast_join_on_a_mixed_double_column(self, mode):
        db = Database(TEST_CLUSTER.with_updates(execution_mode=mode))
        db.execute("CREATE TABLE a (k DOUBLE)")
        db.execute("CREATE TABLE b (k DOUBLE)")
        db.load("a", [(v,) for v in [-1, -1.0, 2**53 + 1, 0.5]])
        b = [2**53 + 1, 0, 0, -3.0, -2, -3, -3, None, 1.0, None, -3, None, 0, None]
        db.load("b", [(v,) for v in b])
        rows = db.execute("SELECT a.k, b.k FROM a, b WHERE a.k = b.k").rows
        assert rows == [(2**53 + 1, 2**53 + 1)]
        assert type(rows[0][0]) is int


# -- the one-pass scatter ---------------------------------------------------

SLOTS = TEST_CLUSTER.slots


def _reference_scatter(parts, key_positions, balanced):
    """Per-row placement in (source slot, row) order, as the row path
    appends rows to its targets."""
    out = [[] for _ in range(SLOTS)]
    assignment = {}
    for rows in parts:
        for row in rows:
            key = tuple(row[p] for p in key_positions)
            if balanced:
                target = assignment.setdefault(key, len(assignment) % SLOTS)
            else:
                target = stable_hash(key) % SLOTS
            out[target].append(row)
    return [_exact(rows) for rows in out]


def _scatter(parts, key_positions, balanced):
    """(batch exchange output, reference output) over the same values:
    the reference reads the rows the source batches hold (a float
    column materializes each NaN as its own object, and a dict keyed by
    NaN matches only the identical object)."""
    config = TEST_CLUSTER.with_updates(balanced_placement=balanced)
    executor = Executor(Cluster(config), execution_mode="batch")
    types = [INTEGER, DOUBLE, INTEGER]
    columns = [SimpleNamespace(column_id=i, data_type=t) for i, t in enumerate(types)]
    child = SimpleNamespace(columns=columns)
    batches = [Batch.from_rows([0, 1, 2], rows) for rows in parts]
    expected = _reference_scatter([b.rows() for b in batches], key_positions, balanced)
    relation = DistributedRelation([0, 1, 2], batches, ROUND_ROBIN)
    executor._materialized[id(child)] = relation
    keys = [ColumnVar(p, types[p]) for p in key_positions]
    relation = executor._exchange_batch(PExchange(child, "hash", keys))
    return [_exact(part.rows()) for part in relation.partitions], expected


scatter_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(-3, 40), st.sampled_from([2**53 + 1]), st.none()),
        st.one_of(st.floats(-3, 3), st.sampled_from(SPECIAL_FLOATS), st.none()),
        st.integers(0, 10**6),
    ),
    max_size=30,
)


class TestOnePassScatter:
    @SETTINGS
    @given(
        parts=st.lists(scatter_rows, min_size=SLOTS, max_size=SLOTS),
        key_positions=st.sampled_from([(0,), (1,), (0, 1), (1, 0)]),
        balanced=st.booleans(),
    )
    def test_matches_the_per_row_reference(self, parts, key_positions, balanced):
        out, expected = _scatter(parts, key_positions, balanced)
        assert out == expected

    def test_empty_sources_and_empty_targets(self):
        parts = [[], [(1, 0.5, 7), (1, 0.5, 8)], [], []]
        for balanced in (False, True):
            out, expected = _scatter(parts, (0,), balanced)
            assert out == expected
            assert sum(1 for rows in out if rows) == 1
        assert _scatter([[]] * SLOTS, (0,), False) == ([[]] * SLOTS, [[]] * SLOTS)


# -- the sort/search join ---------------------------------------------------


def _reference_join(build, probe):
    """The row path's dict join: probe row ascending, each probe row's
    matches in build order; NULL keys match nothing."""
    table = {}
    for j, value in enumerate(build):
        if value is not None:
            table.setdefault((value,), []).append(j)
    pairs = []
    for i, value in enumerate(probe):
        if value is not None:
            pairs.extend((i, j) for j in table.get((value,), ()))
    return pairs


def _match(build_values, probe_values):
    build = ColumnData.from_values(build_values)
    probe = ColumnData.from_values(probe_values)
    table = _JoinTable([build], len(build_values))
    probe_rows, build_rows = table.match([probe], len(probe_values))
    pairs = list(zip(np.asarray(probe_rows).tolist(), np.asarray(build_rows).tolist()))
    # the dict join over the very values the engine holds (a NaN object
    # equals itself in a dict, distinct NaN objects never match)
    assert pairs == _reference_join(build.pylist(), probe.pylist())
    return table, pairs


join_ints = st.one_of(st.integers(-3, 3), st.sampled_from([2**53, 2**53 + 1]))
join_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -3.0, 2.0**53, _nan(0x7FF8000000000000), _nan(0x7FF8000000000001)]
    ),
    st.floats(-3, 3),
)
join_keys = st.one_of(
    st.lists(join_ints, max_size=40),
    st.lists(join_floats, max_size=40),
    st.lists(st.one_of(join_ints, join_floats), max_size=40),
    st.lists(st.one_of(join_ints, st.none()), max_size=40),
    st.lists(st.one_of(join_floats, st.none()), max_size=40),
)


class TestSortSearchJoin:
    @SETTINGS
    @given(build=join_keys, probe=join_keys)
    def test_equals_the_dict_join_in_rows_and_order(self, build, probe):
        _match(build, probe)

    def test_numeric_keys_of_one_dtype_take_the_sorted_path(self):
        table, pairs = _match([3, 1, 3, 2], [3, 2, 4, 3])
        assert table.sorted is not None
        assert pairs == [(0, 0), (0, 2), (1, 3), (3, 0), (3, 2)]
        table, pairs = _match([0.0, -0.0, 1.5], [-0.0, float("nan"), 1.5])
        assert table.sorted is not None
        assert pairs == [(0, 0), (0, 1), (2, 2)]

    def test_int_against_float_keeps_python_equality(self):
        # numpy would compare 2**53 + 1 as the float 2**53; Python does not
        _, pairs = _match([2**53 + 1, 2**53], [2.0**53, 1.0])
        assert pairs == [(0, 1)]
        _, pairs = _match([2.0**53, 1.0], [2**53 + 1, 1])
        assert pairs == [(1, 1)]

    def test_nan_bearing_build_and_null_keys(self):
        table, pairs = _match([float("nan"), 1.0], [float("nan"), 1.0])
        assert table.sorted is None
        assert pairs == [(1, 1)]
        assert _match([None, 1, None], [1, None])[1] == [(0, 1)]
        # a typed probe key with a NULL mask (an expression's output)
        build = ColumnData.from_values([2.0, 1.0])
        probe = ColumnData(np.array([1.0, 2.0]), nulls=np.array([False, True]))
        probe_rows, build_rows = _JoinTable([build], 2).match([probe], 2)
        assert (probe_rows.tolist(), build_rows.tolist()) == ([0], [1])

    def test_empty_sides(self):
        assert _match([], [1, 2])[1] == []
        assert _match([1, 2], [])[1] == []

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT x.id, x.v, y.w FROM x, y WHERE x.id = y.id",
            "SELECT x.id, y.w FROM x, y WHERE x.v = y.w",
            "SELECT x.id, y.id FROM x, y WHERE x.v = y.id",
        ],
    )
    def test_repartition_join_matches_row_mode_in_order(self, sql):
        assert "Exchange hash" in _join_db("batch").explain(sql)
        results = [_join_db(mode).execute(sql).rows for mode in ("row", "batch")]
        assert results[0] == results[1]
        assert results[0]


def _join_db(mode):
    # eight machines make the planner repartition both sides by hash
    db = Database(TEST_CLUSTER.with_updates(execution_mode=mode, machines=8))
    db.execute("CREATE TABLE x (id INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE y (id INTEGER, w DOUBLE)")
    db.load("x", [(i, float(i % 50) - 25.0 or -0.0) for i in range(3000)])
    y = [(i % 1500, float(i % 1000) - 25.0) for i in range(3000)]
    db.load("y", [row if i % 97 else (None, None) for i, row in enumerate(y)])
    return db


def test_a_second_memory_mode_run_hashes_nothing(monkeypatch):
    db = _join_db("batch")
    sql = "SELECT SUM(x.v * y.w) FROM x, y WHERE x.id = y.id"
    assert "Exchange hash" in db.explain(sql)
    hashed = []
    original = repro.columnar._hash_each

    def counting(values):
        hashed.append(len(values))
        return original(values)

    monkeypatch.setattr(repro.columnar, "_hash_each", counting)
    first = db.execute(sql).rows
    assert hashed
    hashed.clear()
    assert db.execute(sql).rows == first
    assert hashed == []


def test_concurrent_statements_share_cold_base_columns():
    """Concurrent statements that repartition the same not-yet-hashed
    base columns all see complete hash arrays (each is published by one
    attribute write) and the serial answer."""
    sql = "SELECT x.id, x.v, y.w FROM x, y WHERE x.id = y.id"
    expected = _join_db("batch").execute(sql).rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            db = _join_db("batch")
            results, errors = [], []

            def reader():
                try:
                    results.append(db.execute(sql).rows)
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert errors == []
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
