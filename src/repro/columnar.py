"""Columnar value representation shared by the batch execution path.

A :class:`ColumnData` holds one column of a batch: a numpy array plus an
optional null mask. Columns whose values are homogeneous Python scalars
are stored in typed arrays (``float64``/``int64``/``bool_``) so that
expression evaluation can run as numpy kernels; everything else — SQL
NULLs, strings, VECTOR/MATRIX/LABELED_SCALAR cells, mixed int/float
columns — stays in an ``object`` array and is processed by per-row
fallback loops that call exactly the same Python code the row-at-a-time
interpreter runs.

A NULL-free VECTOR or MATRIX column whose cells all share one shape also
has a **dense form**: one read-only, C-contiguous float64 block of shape
``(n, d)`` or ``(n, r, c)`` plus an int64 label array (absent when every
label is the default). The block is built lazily — the first time a
kernel asks for it — and cached on the column; ``take``/``filter``/
``concat`` carry it over, or else derive it on request from their
source columns' blocks. Kernels may also produce a column that exists
only as a block; its cells are then materialized on demand as views
into the block, which is why blocks are read-only.

A column also caches its **placement hashes** — ``stable_hash((v,))``
of every value as one uint64 array, what a single-key hash exchange
places rows by — once asked for; ``take``/``filter``/``concat`` carry
them when they exist, so a base-table column in the memory-mode cache
is hashed once per table version.

The invariant that makes the row/batch equivalence contract hold (see
``docs/ENGINE.md``) is that materializing a column back to Python values
(:meth:`ColumnData.pylist`) is lossless: ``float64 -> float``,
``int64 -> int`` and ``bool_ -> bool`` conversions are exact, and object
columns return the original objects untouched. In particular the runtime
distinction between Python ``int`` and ``float`` values — which decides
SQL division semantics and hash placement — is preserved, because a
column is only promoted to a typed array when every value has exactly
the same Python scalar type.

This module deliberately imports nothing from ``repro.engine`` or
``repro.plan`` so both layers can use it without import cycles (the
hash lives in the leaf module ``repro.hashing``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .hashing import stable_hash
from .types import DEFAULT_LABEL, Matrix, Vector

#: int64 bound under which vectorized integer add/sub cannot overflow
#: (one binary op over two operands below 2**62 stays inside int64).
_INT_ADD_BOUND = 2**62
#: product bound for vectorized integer multiplication.
_INT_MUL_BOUND = 2**63


class ColumnData:
    """One column of a batch: values plus an optional null mask.

    ``data`` is a numpy array of length ``n``. ``nulls`` is either
    ``None`` (no SQL NULLs) or a boolean array marking NULL positions;
    for typed (non-object) arrays the data at null positions is
    unspecified and must never be read without consulting ``nulls``.
    Object arrays store ``None`` directly at null positions as well, so
    per-row loops can consume them without a mask. A column built by
    :meth:`dense` holds only its block until ``data`` is first read.
    """

    __slots__ = ("_data", "nulls", "_pylist", "_block", "labels", "_source", "_hashes")

    def __init__(
        self,
        data: Optional[np.ndarray],
        nulls: Optional[np.ndarray] = None,
        block: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ):
        self._data = data
        if nulls is not None and not nulls.any():
            nulls = None
        self.nulls = nulls
        self._pylist: Optional[list] = None
        #: the dense form: None until first asked for, False when the
        #: column has none
        self._block = block
        #: per-row VECTOR labels of the dense form (None: all default)
        self.labels = labels
        #: for a slice or concatenation: builds the dense form from the
        #: source columns' (so a base-table column converts once, not
        #: once per query that joins or repartitions it)
        self._source = None
        #: per-row placement hashes (uint64), None until first asked for
        self._hashes: Optional[np.ndarray] = None

    @classmethod
    def dense(
        cls, values: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> "ColumnData":
        """A NULL-free tensor column held as a block (a kernel's output)."""
        values.flags.writeable = False
        if labels is not None and not (labels != DEFAULT_LABEL).any():
            labels = None
        return cls(None, block=values, labels=labels)

    # -- classification -----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            data = np.empty(len(self._block), dtype=object)
            data[:] = self.cells(range(len(self._block)))
            self._data = data
        return self._data

    @property
    def is_object(self) -> bool:
        return self._data is None or self._data.dtype == object

    @property
    def is_numeric(self) -> bool:
        """True for float64/int64 columns (vectorizable arithmetic)."""
        return self._data is not None and self._data.dtype in (np.float64, np.int64)

    @property
    def is_bool(self) -> bool:
        return self._data is not None and self._data.dtype == np.bool_

    def __len__(self) -> int:
        source = self._block if self._data is None else self._data
        return int(source.shape[0])

    # -- the dense form -----------------------------------------------------

    def block(self, build: bool = True) -> Optional[np.ndarray]:
        """The dense block (labels in :attr:`labels`), or None when the
        column is not a NULL-free, shape-uniform tensor column of
        C-contiguous cells. ``build=False`` only reports a block that
        already exists."""
        if self._block is None and build:
            source, self._source = self._source, None
            block, labels = (source and source()) or self._stack() or (False, None)
            # labels first: a concurrent statement reading a cached
            # base-table column sees the block only with its labels
            self.labels = labels
            self._block = block
        return None if self._block is None or self._block is False else self._block

    def _stack(self):
        """(block, labels) stacked from the cells, or None."""
        data = self._data
        if self.nulls is not None or data.dtype != object or not len(data):
            return None
        kind = type(data[0])
        if kind is not Vector and kind is not Matrix:
            return None
        shape = data[0].data.shape
        for value in data:
            if (
                type(value) is not kind
                or value.data.shape != shape
                or not value.data.flags.c_contiguous
            ):
                return None
        labels = None
        if kind is Vector:
            try:
                labels = np.fromiter(
                    (value.label for value in data), dtype=np.int64, count=len(data)
                )
            except OverflowError:
                return None
            if not (labels != DEFAULT_LABEL).any():
                labels = None
        return _read_only(np.stack([value.data for value in data])), labels

    def cell_shape(self) -> Optional[tuple]:
        """``()`` for a NULL-free typed scalar column, the common cell
        shape for a column with a dense form, else None."""
        if self.nulls is not None:
            return None
        if not self.is_object:
            return ()
        block = self.block()
        return None if block is None else block.shape[1:]

    def cells(self, indices) -> list:
        """The Python values at ``indices``; a block-only column builds
        just those cells, as views into its block."""
        if self.nulls is not None:
            values = self.pylist()
            return [values[i] for i in indices]
        if self._data is not None:
            return self._data[np.asarray(indices, dtype=np.int64)].tolist()
        block, labels = self._block, self.labels
        if block.ndim == 3:
            return [Matrix(block[i]) for i in indices]
        return [
            Vector(block[i], DEFAULT_LABEL if labels is None else int(labels[i]))
            for i in indices
        ]

    def hashes(self) -> np.ndarray:
        """Per-row ``stable_hash((value,))`` as uint64, cached. Typed
        columns hash each distinct value once (``np.unique`` merges
        ``0.0``/``-0.0``, which hash alike); NaN-bearing float columns
        hash per row, since NaNs of different payloads hash apart."""
        if self._hashes is None:
            data = self.data
            if data.dtype == object or (
                data.dtype == np.float64 and np.isnan(data).any()
            ):
                hashes = _hash_each(self.pylist())
            else:
                distinct, inverse = np.unique(data, return_inverse=True)
                hashes = _hash_each(distinct.tolist())[inverse]
                if self.nulls is not None:
                    hashes[self.nulls] = stable_hash((None,))
            # one write of a finished array: concurrent statements may
            # read a cached base-table column
            self._hashes = hashes
        return self._hashes

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence) -> "ColumnData":
        """Build a column from Python values, promoting to a typed array
        only when every value is exactly the same scalar type."""
        n = len(values)
        if n:
            first_type = type(values[0])
            if first_type in (float, int, bool) and all(
                type(value) is first_type for value in values
            ):
                if first_type is float:
                    return cls(np.asarray(values, dtype=np.float64))
                if first_type is bool:
                    return cls(np.asarray(values, dtype=np.bool_))
                try:
                    return cls(np.asarray(values, dtype=np.int64))
                except OverflowError:
                    pass  # arbitrary-precision ints stay objects
        data = np.empty(n, dtype=object)
        nulls = np.zeros(n, dtype=np.bool_)
        for i, value in enumerate(values):
            if value is None:
                nulls[i] = True
            else:
                data[i] = value
        return cls(data, nulls)

    @classmethod
    def constant(cls, value, n: int) -> "ColumnData":
        """A column repeating one value (literal / bound parameter)."""
        if value is None:
            return cls(np.empty(n, dtype=object), np.ones(n, dtype=np.bool_))
        value_type = type(value)
        if value_type is float:
            return cls(np.full(n, value, dtype=np.float64))
        if value_type is bool:
            return cls(np.full(n, value, dtype=np.bool_))
        if value_type is int and -_INT_ADD_BOUND < value < _INT_ADD_BOUND:
            return cls(np.full(n, value, dtype=np.int64))
        data = np.empty(n, dtype=object)
        data[:] = [value] * n
        return cls(data)

    # -- materialization ----------------------------------------------------

    def pylist(self) -> list:
        """The column as a list of Python values (``None`` for NULL).
        Cached; conversion from typed arrays is exact."""
        if self._pylist is None:
            values = self.data.tolist()
            if self.nulls is not None:
                for i in np.flatnonzero(self.nulls):
                    values[i] = None
            self._pylist = values
        return self._pylist

    def object_array(self) -> np.ndarray:
        """The column as an object array with ``None`` at nulls."""
        if self.is_object:
            return self.data
        out = np.empty(len(self), dtype=object)
        out[:] = self.pylist()
        return out

    def null_mask(self) -> np.ndarray:
        if self.nulls is not None:
            return self.nulls
        return np.zeros(len(self), dtype=np.bool_)

    # -- slicing ------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "ColumnData":
        """Rows by position (or boolean mask). The dense form is sliced
        along: now if it exists, else on first request, from the
        source's."""
        block = self._block
        sliced = block is not None and block is not False
        out = ColumnData(
            None if self._data is None else self._data[indices],
            None if self.nulls is None else self.nulls[indices],
            block=_read_only(block[indices]) if sliced else None,
            labels=None if self.labels is None else self.labels[indices],
        )
        if block is None and out.nulls is None and self._data.dtype == object:
            out._source = lambda: _dense_parts([self], [indices])
        if self._hashes is not None:
            out._hashes = self._hashes[indices]
        return out

    filter = take

    @classmethod
    def concat(cls, columns: List["ColumnData"]) -> "ColumnData":
        if len(columns) == 1:
            return columns[0]
        out = None
        if all(column.block(build=False) is not None for column in columns):
            parts = _dense_parts(columns)
            if parts is not None:
                data = None
                if all(column._data is not None for column in columns):
                    data = np.concatenate([column._data for column in columns])
                out = cls(data, block=parts[0], labels=parts[1])
        if out is None:
            datas = [column.data for column in columns]
            if len({data.dtype for data in datas}) > 1:
                # numpy would promote int64 + float64 to float64 (and
                # bool to int): mixed columns concatenate as Python
                # values, so pylist() stays exact
                datas = [column.object_array() for column in columns]
            data = np.concatenate(datas)
            if any(column.nulls is not None for column in columns):
                nulls = np.concatenate([column.null_mask() for column in columns])
            else:
                nulls = None
            out = cls(data, nulls)
            if out.is_object and nulls is None:
                out._source = lambda: _dense_parts(columns)
        if all(column._hashes is not None for column in columns):
            out._hashes = np.concatenate([column._hashes for column in columns])
        return out


def _dense_parts(columns: List[ColumnData], picks=None):
    """The concatenated dense forms (block, labels) of ``columns`` —
    each sliced by its entry in ``picks`` — or None unless all have one
    of a single cell shape."""
    blocks = [column.block() for column in columns]
    if any(block is None for block in blocks) or len(
        {block.shape[1:] for block in blocks}
    ) != 1:
        return None
    if picks is not None:
        blocks = [block[pick] for block, pick in zip(blocks, picks)]
    values = _read_only(blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
    if all(column.labels is None for column in columns):
        return values, None
    labels = [
        np.full(len(column), DEFAULT_LABEL, dtype=np.int64)
        if column.labels is None
        else column.labels
        for column in columns
    ]
    if picks is not None:
        labels = [label[pick] for label, pick in zip(labels, picks)]
    labels = np.concatenate(labels)
    return values, labels if (labels != DEFAULT_LABEL).any() else None


def _hash_each(values: list) -> np.ndarray:
    return np.fromiter(
        (stable_hash((value,)) for value in values), dtype=np.uint64, count=len(values)
    )


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def truth(column: ColumnData) -> np.ndarray:
    """Row-mode ``bool(value)`` per entry, with SQL NULL treated as
    false — the coercion filters and AND/OR apply to predicate values."""
    if column.is_bool:
        if column.nulls is None:
            return column.data
        return column.data & ~column.nulls
    if column.is_numeric:
        result = column.data != 0
        if column.nulls is not None:
            result &= ~column.nulls
        return result
    n = len(column)
    return np.fromiter(
        (bool(value) for value in column.pylist()), dtype=np.bool_, count=n
    )


def full_mask(mask: Optional[np.ndarray], n: int) -> np.ndarray:
    return np.ones(n, dtype=np.bool_) if mask is None else mask


def group_ids(key_columns: List[ColumnData], n: int) -> Optional[np.ndarray]:
    """Per-row group numbers, in first-seen order, for NULL-free
    int64/float64 key columns; None when a dict must bucket the rows
    (other key types, or float keys holding NaN, each of which is its
    own group in a dict). Equal keys share a group, so ``0.0`` and
    ``-0.0`` merge as they do in a dict."""
    if not key_columns:
        return np.zeros(n, dtype=np.int64)
    code = None
    for column in key_columns:
        if column.nulls is not None or not column.is_numeric:
            return None
        if column.data.dtype == np.float64 and np.isnan(column.data).any():
            return None
        values = column.data
        if code is not None:
            # both factors are below n, so the mixed-radix code fits int64
            values = code * n + np.unique(values, return_inverse=True)[1]
        _, first, code = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[code]


class GroupLayout:
    """Rows bucketed by group number (``0..count-1``): each group's
    first row, and for each distinct group size the groups of that size
    with a ``(groups, size)`` matrix of their row indices in row order —
    the shape every columnar aggregate fold works on."""

    __slots__ = ("count", "first_rows", "classes")

    def __init__(self, gid: np.ndarray):
        self.count = int(gid.max()) + 1 if len(gid) else 0
        if self.count == 1:  # a scalar aggregate's single group
            self.first_rows = np.zeros(1, dtype=np.int64)
            self.classes = [(self.first_rows, np.arange(len(gid))[None, :])]
            return
        order = np.argsort(gid, kind="stable")
        sizes = np.bincount(gid, minlength=self.count)
        starts = np.cumsum(sizes) - sizes
        self.first_rows = order[starts]
        self.classes = []
        for size in np.unique(sizes).tolist():
            members = np.flatnonzero(sizes == size)
            rows = order[starts[members][:, None] + np.arange(size)]
            self.classes.append((members, rows))

    def groups(self):
        """``(group, row indices)`` pairs, for per-row folds."""
        for members, rows in self.classes:
            yield from zip(members.tolist(), rows)
