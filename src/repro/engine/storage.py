"""Partitioned tuple storage, columnar batches, and in-flight
distributed relations.

Two representations flow through the executor, selected by
``ClusterConfig.execution_mode``:

* **row** — partitions are lists of Python tuples, processed
  tuple-at-a-time (the original interpreter);
* **batch** — partitions are :class:`Batch` columnar chunks: one
  :class:`~repro.columnar.ColumnData` per column, with cached per-row
  byte sizes, processed by vectorized operators.

Both produce identical result rows and identical simulated costs; the
batch path only changes *real* wall-clock time (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..catalog import Schema
from ..columnar import ColumnData
from ..errors import ExecutionError
from .cluster import stable_hash, value_bytes


@dataclass(frozen=True)
class Partitioning:
    """How a distributed relation is spread over the cluster's slots.

    ``kind`` is one of:

    * ``roundrobin`` — rows dealt out in arrival order;
    * ``hash`` — co-located by ``stable_hash`` of the key expressions
      (``keys`` holds the structural keys of those expressions);
    * ``broadcast`` — every slot holds a full copy;
    * ``single`` — everything on slot 0 (gathered).
    """

    kind: str
    keys: Tuple = ()

    def co_partitioned_with(self, key_signature: Tuple) -> bool:
        return self.kind == "hash" and self.keys == tuple(key_signature)


ROUND_ROBIN = Partitioning("roundrobin")
BROADCAST = Partitioning("broadcast")
SINGLE = Partitioning("single")

#: per-row serialization overhead, shared with ``cluster.row_bytes``
ROW_OVERHEAD_BYTES = 16.0


class RowView:
    """Adapts a positional row tuple to the column-id lookups that
    :class:`~repro.plan.expressions.TypedExpr` evaluation performs."""

    __slots__ = ("values", "index")

    def __init__(self, values: Sequence, index: Dict[int, int]):
        self.values = values
        self.index = index

    def __getitem__(self, column_id: int):
        return self.values[self.index[column_id]]


def column_value_bytes(column: ColumnData) -> np.ndarray:
    """Serialized size of every value in a column (vectorized where the
    dtype makes sizes constant); mirrors ``cluster.value_bytes``."""
    n = len(column)
    block = column.block(build=False)
    if block is not None:
        # a dense column's cells share one shape: Vector/Matrix.size_bytes
        return np.full(n, 8.0 * math.prod(block.shape[1:]) + 8.0)
    if column.is_numeric:
        sizes = np.full(n, 8.0)
    elif column.is_bool:
        sizes = np.full(n, 1.0)
    else:
        return np.fromiter(
            (value_bytes(value) for value in column.pylist()),
            dtype=np.float64,
            count=n,
        )
    if column.nulls is not None:
        sizes[column.nulls] = 1.0  # NULL serializes to one byte
    return sizes


class Batch:
    """A columnar chunk: the rows of one partition stored column-wise.

    ``column_ids`` gives the plan-wide column id of every column, in
    positional order. Batches are immutable once built — operators
    derive new batches with :meth:`filter`, :meth:`take` and
    :meth:`concat`, which also slice the cached per-row byte sizes so
    they are computed at most once per row across the whole plan.
    """

    __slots__ = ("column_ids", "columns", "length", "index", "_row_bytes", "_rows")

    def __init__(
        self,
        column_ids: Sequence[int],
        columns: List[ColumnData],
        length: int,
        row_bytes: Optional[np.ndarray] = None,
    ):
        self.column_ids = tuple(column_ids)
        self.columns = columns
        self.length = length
        self.index = {column_id: i for i, column_id in enumerate(self.column_ids)}
        self._row_bytes = row_bytes
        self._rows: Optional[List[tuple]] = None

    @classmethod
    def from_rows(
        cls,
        column_ids: Sequence[int],
        rows: Sequence[tuple],
        row_bytes: Optional[np.ndarray] = None,
    ) -> "Batch":
        if rows:
            columns = [ColumnData.from_values(col) for col in zip(*rows)]
        else:
            columns = [
                ColumnData(np.empty(0, dtype=object)) for _ in column_ids
            ]
        return cls(column_ids, columns, len(rows), row_bytes=row_bytes)

    @classmethod
    def empty_like(cls, column_ids: Sequence[int]) -> "Batch":
        return cls.from_rows(column_ids, [])

    def __len__(self) -> int:
        return self.length

    def col(self, column_id: int) -> ColumnData:
        return self.columns[self.index[column_id]]

    def rows(self) -> List[tuple]:
        """Materialize Python row tuples (cached). Typed columns convert
        back to exact Python scalars."""
        if self._rows is None:
            if self.length == 0:
                self._rows = []
            else:
                self._rows = list(
                    zip(*[column.pylist() for column in self.columns])
                )
        return self._rows

    # -- byte accounting ----------------------------------------------------

    def row_bytes_array(self) -> np.ndarray:
        """Per-row serialized sizes, identical to ``cluster.row_bytes``
        per row; computed once and propagated through filter/take."""
        if self._row_bytes is None:
            total = np.full(self.length, ROW_OVERHEAD_BYTES)
            for column in self.columns:
                total += column_value_bytes(column)
            self._row_bytes = total
        return self._row_bytes

    def total_bytes(self) -> float:
        if self.length == 0:
            return 0.0
        return float(np.sum(self.row_bytes_array()))

    # -- derivation ---------------------------------------------------------

    def with_ids(self, column_ids: Sequence[int]) -> "Batch":
        """The same data under different plan column ids."""
        return Batch(
            column_ids, self.columns, self.length, row_bytes=self._row_bytes
        )

    def filter(self, mask: np.ndarray) -> "Batch":
        kept = int(np.count_nonzero(mask))
        if kept == self.length:
            return self
        return Batch(
            self.column_ids,
            [column.filter(mask) for column in self.columns],
            kept,
            row_bytes=None if self._row_bytes is None else self._row_bytes[mask],
        )

    def take(self, indices: Union[np.ndarray, slice]) -> "Batch":
        """Rows by position array, or a contiguous ``slice`` of them."""
        return Batch(
            self.column_ids,
            [column.take(indices) for column in self.columns],
            len(range(self.length)[indices])
            if isinstance(indices, slice)
            else len(indices),
            row_bytes=None
            if self._row_bytes is None
            else self._row_bytes[indices],
        )

    @classmethod
    def concat(cls, column_ids: Sequence[int], batches: List["Batch"]) -> "Batch":
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return cls.empty_like(column_ids)
        if len(batches) == 1:
            return batches[0].with_ids(column_ids)
        columns = [
            ColumnData.concat([batch.columns[i] for batch in batches])
            for i in range(len(column_ids))
        ]
        if all(batch._row_bytes is not None for batch in batches):
            row_bytes = np.concatenate([batch._row_bytes for batch in batches])
        else:
            row_bytes = None
        return cls(
            column_ids,
            columns,
            sum(batch.length for batch in batches),
            row_bytes=row_bytes,
        )


#: one partition of a distributed relation: row tuples or a columnar batch
PartitionData = Union[List[tuple], Tuple[tuple, ...], Batch]


def partition_rows(part: PartitionData) -> Sequence[tuple]:
    """The rows of a partition regardless of representation."""
    if isinstance(part, Batch):
        return part.rows()
    return part


class DistributedRelation:
    """Rows spread across the cluster's slots.

    ``column_ids`` gives the positional layout: value ``j`` of every row
    belongs to plan column ``column_ids[j]``. Partitions are either row
    lists/tuples (row mode) or :class:`Batch` chunks (batch mode).

    ``partition_row_bytes``/``partition_total_bytes`` memoize per-row
    and per-partition serialized sizes so each operator downstream of a
    materialization reuses — not recomputes — the same byte accounting
    for disk, network, memory-guard and ``bytes_out`` charges.
    """

    def __init__(
        self,
        column_ids: Sequence[int],
        partitions: List[PartitionData],
        partitioning: Partitioning,
        row_bytes: Optional[List[Optional[List[float]]]] = None,
    ):
        self.column_ids = tuple(column_ids)
        self.partitions = partitions
        self.partitioning = partitioning
        self.index = {column_id: i for i, column_id in enumerate(self.column_ids)}
        self._row_bytes: List[Optional[List[float]]] = (
            list(row_bytes)
            if row_bytes is not None
            else [None] * len(partitions)
        )
        self._total_bytes: List[Optional[float]] = [None] * len(partitions)

    @property
    def row_count(self) -> int:
        if self.partitioning.kind == "broadcast":
            return len(self.partitions[0]) if self.partitions else 0
        return sum(len(part) for part in self.partitions)

    def view(self, values: Sequence) -> RowView:
        return RowView(values, self.index)

    def all_rows(self) -> List[tuple]:
        if self.partitioning.kind == "broadcast":
            return (
                list(partition_rows(self.partitions[0])) if self.partitions else []
            )
        out: List[tuple] = []
        for part in self.partitions:
            out.extend(partition_rows(part))
        return out

    # -- byte accounting (row mode) -----------------------------------------

    def partition_row_bytes(self, slot: int) -> List[float]:
        """Per-row serialized sizes of one partition, computed once."""
        cached = self._row_bytes[slot]
        if cached is None:
            part = self.partitions[slot]
            if isinstance(part, Batch):
                cached = list(part.row_bytes_array())
            else:
                from .cluster import row_bytes

                cached = [row_bytes(row) for row in part]
            self._row_bytes[slot] = cached
        return cached

    def partition_total_bytes(self, slot: int) -> float:
        cached = self._total_bytes[slot]
        if cached is None:
            part = self.partitions[slot]
            if isinstance(part, Batch):
                cached = part.total_bytes()
            else:
                cached = sum(self.partition_row_bytes(slot))
            self._total_bytes[slot] = cached
        return cached


class PartitionedTable:
    """Base-table storage: rows partitioned across slots at load time."""

    def __init__(
        self,
        schema: Schema,
        slots: int,
        partition_by: Optional[Sequence[str]] = None,
        segment_rows: int = 4096,
    ):
        self.schema = schema
        self.slots = slots
        #: rows per logical columnar segment (the zone-map granule);
        #: chunk boundaries match the disk back end's sealed segments
        self.segment_rows = max(1, int(segment_rows))
        #: column names the table is hash-partitioned on (None = round robin)
        self.partition_by = list(partition_by) if partition_by else None
        self._key_positions: Optional[List[int]] = None
        if self.partition_by:
            self._key_positions = []
            for name in self.partition_by:
                position = schema.index_of(name)
                if position is None:
                    raise ExecutionError(
                        f"cannot partition on unknown column {name!r}"
                    )
                self._key_positions.append(position)
        self.partitions: List[List[tuple]] = [[] for _ in range(slots)]
        self._next = 0
        #: bumped on every mutation; invalidates the columnar scan cache
        self._version = 0
        self._columnar_cache: Dict[int, Tuple[int, List[ColumnData], np.ndarray]] = {}
        self._segment_cache: Dict[int, Tuple[int, list]] = {}

    @property
    def row_count(self) -> int:
        return sum(len(part) for part in self.partitions)

    def insert(self, row: Sequence) -> None:
        values = tuple(row)
        if self._key_positions is None:
            slot = self._next % self.slots
            self._next += 1
        else:
            key = tuple(values[i] for i in self._key_positions)
            slot = stable_hash(key) % self.slots
        self.partitions[slot].append(values)
        self._version += 1

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def truncate(self) -> None:
        self.partitions = [[] for _ in range(self.slots)]
        self._next = 0
        self._version += 1

    def mutated(self) -> None:
        """Callers that rewrite ``partitions`` in place (DELETE) must
        invalidate the columnar cache."""
        self._version += 1

    def partition_rows(self, slot: int) -> List[tuple]:
        """The rows of one partition (shared storage-back-end API)."""
        return self.partitions[slot]

    def replace_partition(self, slot: int, rows: Sequence[tuple]) -> None:
        """Rewrite one partition (DELETE; shared storage-back-end API)."""
        self.partitions[slot] = [tuple(row) for row in rows]
        self.mutated()

    def segments(self, slot: int) -> list:
        """The partition as logical columnar segments: consecutive
        insert-order chunks of ``segment_rows`` rows, each carrying lazy
        zone maps and per-row serialized sizes. The chunk boundaries —
        and therefore pruning decisions and charged scan bytes — are
        identical to the disk back end's sealed segment files."""
        cached = self._segment_cache.get(slot)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from ..storage.segment import MemorySegment, chunk_offsets

        rows = self.partitions[slot] if slot < len(self.partitions) else []
        width = len(self.schema.types)
        segments = [
            MemorySegment(rows[start:stop], width)
            for start, stop in chunk_offsets(len(rows), self.segment_rows)
        ]
        self._segment_cache[slot] = (self._version, segments)
        return segments

    def all_rows(self) -> List[tuple]:
        out: List[tuple] = []
        for part in self.partitions:
            out.extend(part)
        return out

    def total_bytes(self) -> float:
        from .cluster import row_bytes

        return sum(row_bytes(row) for part in self.partitions for row in part)

    def columnar(self, slot: int) -> Tuple[List[ColumnData], np.ndarray]:
        """The columnar form of one partition plus its per-row byte
        sizes, cached until the table is mutated."""
        cached = self._columnar_cache.get(slot)
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        rows = self.partitions[slot] if slot < len(self.partitions) else []
        width = len(self.schema.types)
        if rows:
            columns = [ColumnData.from_values(col) for col in zip(*rows)]
        else:
            columns = [ColumnData(np.empty(0, dtype=object)) for _ in range(width)]
        sizes = np.full(len(rows), ROW_OVERHEAD_BYTES)
        for column in columns:
            sizes += column_value_bytes(column)
        self._columnar_cache[slot] = (self._version, columns, sizes)
        return columns, sizes
