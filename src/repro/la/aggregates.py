"""Aggregate functions, including the paper's type-construction aggregates.

The standard SQL aggregates are overloaded over the new types (section
3.2): ``SUM`` over a MATRIX column performs entry-by-entry addition, which
is what makes ``SELECT SUM(outer_product(vec, vec)) FROM v`` a one-line
Gram-matrix computation.

Three special aggregates construct tensors from labeled parts (section
3.3):

* ``VECTORIZE`` over LABELED_SCALAR values builds a VECTOR whose length is
  the largest label seen; holes become zero;
* ``ROWMATRIX`` over labeled VECTORs builds a MATRIX using each vector as
  the row named by its label;
* ``COLMATRIX`` does the same with columns.

Labels are 1-based. Every aggregate is implemented as a pair of
*accumulate* and *merge* steps so the engine can run distributed
partial aggregation before the shuffle.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ExecutionError, RuntimeTypeError, TypeCheckError
from ..types import (
    DOUBLE,
    INTEGER,
    DataType,
    DoubleType,
    IntegerType,
    LabeledScalar,
    LabeledScalarType,
    Matrix,
    MatrixType,
    StringType,
    Vector,
    VectorType,
)
from ..types.scalar import DEFAULT_UNKNOWN_DIM


class Aggregate:
    """Base class; one instance per (aggregate, input type) is stateless —
    state lives in the accumulator objects the methods pass around."""

    name = "AGGREGATE"

    #: True when partial aggregation before the shuffle is algebraically
    #: valid (it is for every aggregate here except AVG, which instead
    #: decomposes into SUM/COUNT inside the engine).
    distributive = True

    def result_type(self, arg_type: DataType) -> DataType:
        """Result type for the given input type; raises TypeCheckError when
        the overload does not exist."""
        raise NotImplementedError

    def create(self):
        """A fresh accumulator (None means 'no input seen yet')."""
        return None

    def add(self, state, value):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def finish(self, state):
        return state

    def fold_column(self, column, layout) -> Optional[list]:
        """Every group's state at once, from a NULL-free
        :class:`~repro.columnar.ColumnData` (None for ``COUNT(*)``) and a
        :class:`~repro.columnar.GroupLayout`; bit for bit what folding
        :meth:`add` over each group's rows in row order gives. None when
        only that row fold can guarantee it."""
        return None

    def add_flops(self, arg_type: DataType) -> float:
        """FLOPs charged for accumulating one input value."""
        return _elements(arg_type)


def _elements(arg_type: DataType) -> float:
    if isinstance(arg_type, VectorType):
        length = arg_type.length if arg_type.length is not None else DEFAULT_UNKNOWN_DIM
        return float(length)
    if isinstance(arg_type, MatrixType):
        rows = arg_type.rows if arg_type.rows is not None else DEFAULT_UNKNOWN_DIM
        cols = arg_type.cols if arg_type.cols is not None else DEFAULT_UNKNOWN_DIM
        return float(rows * cols)
    return 1.0


def _fold_input(column) -> Optional[np.ndarray]:
    """A column's values as one array — typed int64/float64 data or a
    dense tensor block — or None for anything else."""
    if column.is_numeric:
        return column.data
    return column.block()


def _fold_groups(column, data: np.ndarray, layout, fold) -> list:
    """One state per group: ``fold`` maps a ``(groups, size, ...)``
    gather of ``data`` to one result row per group; a one-row group's
    state is the value itself, as ``add`` returns it (label included)."""
    states = [None] * layout.count
    for members, rows in layout.classes:
        if rows.shape[1] == 1:
            picked = column.cells(rows[:, 0])
        else:
            results = fold(data[rows])
            if results.ndim == 1:
                picked = results.tolist()
            elif results.ndim == 2:
                picked = [Vector(values) for values in results]
            else:
                picked = [Matrix(values) for values in results]
        for g, state in zip(members.tolist(), picked):
            states[g] = state
    return states


def _numeric(value):
    if isinstance(value, LabeledScalar):
        return value.value
    return value


class SumAggregate(Aggregate):
    name = "SUM"

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, IntegerType):
            return INTEGER
        if isinstance(arg_type, (DoubleType, LabeledScalarType)):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"SUM is not defined over {arg_type!r}")

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        return value if state is None else state + value

    merge = add

    def fold_column(self, column, layout):
        data = _fold_input(column)
        if data is None:
            return None
        if data.dtype == np.int64 and len(data):
            # Python ints never overflow: every partial sum must fit int64
            largest = max(abs(int(data.min())), abs(int(data.max())))
            if largest * max(rows.shape[1] for _, rows in layout.classes) >= 2**63:
                return None
        # accumulate adds left to right like the chain of ``+``;
        # np.add.reduce would not (it sums pairwise, and turns two -0.0
        # rows into +0.0)
        return _fold_groups(
            column, data, layout, lambda rows: np.add.accumulate(rows, axis=1)[:, -1]
        )


class CountAggregate(Aggregate):
    name = "COUNT"

    def result_type(self, arg_type: DataType) -> DataType:
        return INTEGER

    def create(self):
        return 0

    def add(self, state, value):
        return state + (0 if value is None else 1)

    def merge(self, left, right):
        return left + right

    def fold_column(self, column, layout):
        states = [0] * layout.count
        for members, rows in layout.classes:
            for g in members.tolist():
                states[g] = rows.shape[1]  # the column holds no NULLs
        return states

    def add_flops(self, arg_type: DataType) -> float:
        return 1.0


class MinAggregate(Aggregate):
    """MIN over scalars; over VECTOR/MATRIX it is *element-wise* (the same
    overloading convention that makes SUM entry-by-entry, section 3.2),
    which the blocked distance computation relies on."""

    name = "MIN"
    _np_pick = staticmethod(np.minimum)

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, (IntegerType, DoubleType, StringType)):
            return arg_type
        if isinstance(arg_type, LabeledScalarType):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"{self.name} is not defined over {arg_type!r}")

    def _pick_pair(self, state, value):
        if isinstance(state, Vector) or isinstance(value, Vector):
            if not isinstance(state, Vector) or not isinstance(value, Vector):
                raise RuntimeTypeError(f"{self.name}: mixed vector/scalar inputs")
            if state.length != value.length:
                raise RuntimeTypeError(
                    f"{self.name}: vector lengths differ "
                    f"({state.length} vs {value.length})"
                )
            return Vector(type(self)._np_pick(state.data, value.data))
        if isinstance(state, Matrix) or isinstance(value, Matrix):
            if not isinstance(state, Matrix) or not isinstance(value, Matrix):
                raise RuntimeTypeError(f"{self.name}: mixed matrix/scalar inputs")
            if state.shape != value.shape:
                raise RuntimeTypeError(
                    f"{self.name}: matrix shapes differ "
                    f"({state.shape} vs {value.shape})"
                )
            return Matrix(type(self)._np_pick(state.data, value.data))
        if self.name == "MIN":
            return min(state, value)
        return max(state, value)

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        return value if state is None else self._pick_pair(state, value)

    merge = add

    def fold_column(self, column, layout):
        data = _fold_input(column)
        if data is None or (data.dtype == np.float64 and np.isnan(data).any()):
            return None
        if data.ndim == 1:
            # min()/max() keep the first of equal values (0.0 vs -0.0
            # included): the first-occurrence arg-extreme
            first = np.argmin if self.name == "MIN" else np.argmax

            def fold(values):
                return values[np.arange(len(values)), first(values, axis=1)]

        else:
            # element-wise, left to right, as the chain of _pick_pair
            pick = type(self)._np_pick

            def fold(values):
                return pick.accumulate(values, axis=1)[:, -1]

        return _fold_groups(column, data, layout, fold)


class MaxAggregate(MinAggregate):
    name = "MAX"
    _np_pick = staticmethod(np.maximum)


class AvgAggregate(Aggregate):
    """AVG decomposes into (SUM, COUNT) so it can still be partially
    aggregated before the shuffle."""

    name = "AVG"
    distributive = True

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, (IntegerType, DoubleType, LabeledScalarType)):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"AVG is not defined over {arg_type!r}")

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        if state is None:
            return (value, 1)
        total, count = state
        return (total + value, count + 1)

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return (left[0] + right[0], left[1] + right[1])

    def finish(self, state):
        if state is None:
            return None
        total, count = state
        return total / count


class VectorizeAggregate(Aggregate):
    """Build a VECTOR from LABELED_SCALAR values (paper section 3.3)."""

    name = "VECTORIZE"

    def result_type(self, arg_type: DataType) -> DataType:
        if not isinstance(arg_type, LabeledScalarType):
            raise TypeCheckError(
                f"VECTORIZE requires a LABELED_SCALAR input (build one with "
                f"label_scalar), got {arg_type!r}"
            )
        return VectorType(None)

    def create(self):
        return {}

    def add(self, state: Dict[int, float], value):
        if value is None:
            return state
        if not isinstance(value, LabeledScalar):
            raise RuntimeTypeError(
                f"VECTORIZE expects LABELED_SCALAR values, got {type(value).__name__}"
            )
        if value.label < 1:
            raise ExecutionError(
                f"VECTORIZE: label {value.label} is not a valid 1-based "
                f"position; use label_scalar to set it"
            )
        state[value.label] = value.value
        return state

    def merge(self, left: Dict[int, float], right: Dict[int, float]):
        left.update(right)
        return left

    def finish(self, state: Optional[Dict[int, float]]):
        if not state:
            return None
        length = max(state)
        data = np.zeros(length)
        for label, value in state.items():
            data[label - 1] = value
        return Vector(data)

    def add_flops(self, arg_type: DataType) -> float:
        return 1.0


class _MatrixFromVectors(Aggregate):
    """Shared machinery for ROWMATRIX and COLMATRIX."""

    #: 'row' or 'col'
    orientation = "row"

    def result_type(self, arg_type: DataType) -> DataType:
        if not isinstance(arg_type, VectorType):
            raise TypeCheckError(
                f"{self.name} requires VECTOR inputs, got {arg_type!r}"
            )
        if self.orientation == "row":
            return MatrixType(None, arg_type.length)
        return MatrixType(arg_type.length, None)

    def create(self):
        return {}

    def add(self, state: Dict[int, Vector], value):
        if value is None:
            return state
        if not isinstance(value, Vector):
            raise RuntimeTypeError(
                f"{self.name} expects VECTOR values, got {type(value).__name__}"
            )
        if value.label < 1:
            raise ExecutionError(
                f"{self.name}: vector label {value.label} is not a valid "
                f"1-based position; set it with label_vector"
            )
        state[value.label] = value
        return state

    def merge(self, left, right):
        left.update(right)
        return left

    def finish(self, state: Optional[Dict[int, Vector]]):
        if not state:
            return None
        lengths = {vector.length for vector in state.values()}
        if len(lengths) != 1:
            raise RuntimeTypeError(
                f"{self.name}: input vectors have differing lengths {sorted(lengths)}"
            )
        width = lengths.pop()
        count = max(state)
        data = np.zeros((count, width))
        for label, vector in state.items():
            data[label - 1] = vector.data
        matrix = Matrix(data)
        if self.orientation == "col":
            matrix = Matrix(data.T.copy())
        return matrix


class RowMatrixAggregate(_MatrixFromVectors):
    name = "ROWMATRIX"
    orientation = "row"


class ColMatrixAggregate(_MatrixFromVectors):
    name = "COLMATRIX"
    orientation = "col"


_AGGREGATES: Dict[str, Aggregate] = {
    agg.name: agg
    for agg in (
        SumAggregate(),
        CountAggregate(),
        MinAggregate(),
        MaxAggregate(),
        AvgAggregate(),
        VectorizeAggregate(),
        RowMatrixAggregate(),
        ColMatrixAggregate(),
    )
}


def lookup_aggregate(name: str) -> Optional[Aggregate]:
    """Find an aggregate by (case-insensitive) name, or None."""
    return _AGGREGATES.get(name.upper())


def is_aggregate_name(name: str) -> bool:
    return name.upper() in _AGGREGATES
