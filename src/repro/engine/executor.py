"""Physical plan execution on the simulated cluster.

Operators materialize their outputs partition by partition (the
MapReduce-style execution model SimSQL inherits from Hadoop), processing
**real tuples** — results are exact — while charging simulated time:

* per-tuple iterator overhead on the slot that owns the partition;
* actual FLOPs / streamed bytes measured while evaluating expressions
  over the real values (``EvalCost``);
* network seconds for every exchange;
* one job-startup charge per hash/gather exchange (job boundaries).

Per-operator wall clocks land in :class:`QueryMetrics`, giving the
Figure 4 breakdown for free; per-slot busy times expose skew.

Two interpreter back ends share this file, selected by
``ClusterConfig.execution_mode``:

* ``"row"`` — the original tuple-at-a-time loops;
* ``"batch"`` — columnar :class:`~repro.engine.storage.Batch` chunks
  with vectorized expression evaluation (``TypedExpr.evaluate_batch``).

Both charge identical simulated costs and produce identical rows; the
batch path only improves *real* wall-clock time. The equivalence
contract is documented in ``docs/ENGINE.md`` and enforced by
``tests/test_exec_modes.py``.

Each operator runs its partitions in partition order on the
statement's own thread, charging one :class:`OperatorRun`. Fault
injection is a pure hash of ``(plan seed, kind, operator pre-order
index, partition, attempt)`` — per-statement coordinates, never thread
identity or real time — so it is deterministic across runs and across
concurrently admitted statements.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..columnar import ColumnData, GroupLayout, group_ids, truth
from ..errors import (
    ExecutionError,
    FaultRecoveryExhaustedError,
    TransientClusterError,
)
from ..faults import FaultInjector
from ..plan.expressions import EvalCost
from ..types import Matrix, Vector
from ..plan.physical import (
    PDistinct,
    PExchange,
    PFilter,
    PFinalAggregate,
    PHashJoin,
    PNestedLoopJoin,
    PPartialAggregate,
    PProject,
    PScan,
    PhysicalNode,
    PSortLimit,
    PTopK,
    PViewScan,
    resolve_prune_predicates,
)
from ..storage.segment import segment_pruned
from .cluster import Cluster, row_bytes, stable_hash, value_bytes
from .metrics import OperatorMetrics, OperatorTrace, QueryMetrics
from .storage import (
    BROADCAST,
    ROUND_ROBIN,
    SINGLE,
    Batch,
    DistributedRelation,
    Partitioning,
    column_value_bytes,
    partition_rows,
)

if False:  # pragma: no cover - typing only, avoids an import cycle at runtime
    from ..storage.engine import StorageEngine

EXECUTION_MODES = ("row", "batch")


def count_job_boundaries(node: PhysicalNode) -> int:
    count = 0
    if isinstance(node, PExchange) and node.is_job_boundary:
        count += 1
    for child in node.children():
        count += count_job_boundaries(child)
    return count


class CheckpointStore:
    """Simulated checkpoints of exchange (shuffle) outputs.

    Job-boundary exchanges materialize their partitions to distributed
    storage — Hadoop's model, which is what makes lineage-based recovery
    possible: a consumer that finds a partition lost recomputes it from
    the checkpointed producer instead of restarting the query. Entries
    live for the duration of one ``Executor.run`` and are evicted when
    the query completes (success or failure).

    Entries are keyed by plan-node identity and hold one statement's
    exchange outputs, so every statement gets its own store (fresh
    executors never share entries) — but the cumulative eviction counter
    is database-wide observability, shared across the fresh executors of
    one database."""

    def __init__(self, evictions: Optional["_EvictionCounter"] = None):
        self._entries: Dict[int, Tuple[DistributedRelation, OperatorMetrics]] = {}
        self._evictions = _EvictionCounter() if evictions is None else evictions

    @property
    def evicted(self) -> int:
        """Total entries evicted across every store sharing the counter."""
        return self._evictions.count

    def put(
        self,
        node_id: int,
        relation: DistributedRelation,
        op: OperatorMetrics,
    ) -> None:
        self._entries[node_id] = (relation, op)

    def get(
        self, node_id: int
    ) -> Optional[Tuple[DistributedRelation, OperatorMetrics]]:
        return self._entries.get(node_id)

    def clear(self) -> int:
        """Evict everything; returns how many entries were dropped."""
        dropped = len(self._entries)
        self._evictions.add(dropped)
        self._entries.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class _EvictionCounter:
    """Cumulative checkpoint-eviction count, shared by the per-statement
    stores of one database (statements clear their stores concurrently)."""

    __slots__ = ("count", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        if n:
            with self._lock:
                self.count += n


class Executor:
    def __init__(
        self,
        cluster: Cluster,
        execution_mode: Optional[str] = None,
        storage: Optional["StorageEngine"] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.slots = cluster.config.slots
        #: the database's storage engine (segment files, buffer pool,
        #: physical spill); None behaves exactly like memory mode
        self.storage = storage
        #: per-slot operator-state budget; tracked state above it spills
        self.spill_budget = cluster.config.effective_buffer_pool_bytes
        mode = execution_mode or cluster.config.execution_mode
        if mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution_mode {mode!r}; pick one of {EXECUTION_MODES}"
            )
        self.execution_mode = mode
        if mode == "batch":
            self._handlers = {
                PScan: self._scan_batch,
                PFilter: self._filter_batch,
                PProject: self._project_batch,
                PExchange: self._exchange_batch,
                PHashJoin: self._hash_join_batch,
                PNestedLoopJoin: self._nested_loop_join_batch,
                PPartialAggregate: self._partial_aggregate_batch,
                PFinalAggregate: self._final_aggregate_batch,
                PDistinct: self._distinct_batch,
                PSortLimit: self._sort_limit_batch,
                PTopK: self._top_k_batch,
                PViewScan: self._view_scan_batch,
            }
        else:
            self._handlers = {
                PScan: self._scan,
                PFilter: self._filter,
                PProject: self._project,
                PExchange: self._exchange,
                PHashJoin: self._hash_join,
                PNestedLoopJoin: self._nested_loop_join,
                PPartialAggregate: self._partial_aggregate,
                PFinalAggregate: self._final_aggregate,
                PDistinct: self._distinct,
                PSortLimit: self._sort_limit,
                PTopK: self._top_k,
                PViewScan: self._view_scan,
            }
        fault_plan = cluster.config.fault_plan
        if injector is not None:
            self.injector: Optional[FaultInjector] = injector
        else:
            self.injector = (
                FaultInjector(fault_plan)
                if fault_plan is not None
                and (fault_plan.enabled or fault_plan.storage_enabled)
                else None
            )
        #: relations memoized by plan-node identity — the lineage store.
        #: A child executed once is never re-executed when a faulted
        #: parent retries; retries replay against these memoized inputs,
        #: which is what keeps recovery deterministic.
        self._materialized: Dict[int, DistributedRelation] = {}
        #: simulated checkpoints of job-boundary exchange outputs,
        #: evicted when the query completes
        self.checkpoints = CheckpointStore()
        #: pre-order position of the operator currently being dispatched
        self._op_sequence = 0
        #: per-plan-node bookkeeping for the OperatorTrace tree
        self._node_ops: Dict[int, OperatorMetrics] = {}
        self._node_index: Dict[int, int] = {}
        self._node_retries: Dict[int, int] = {}
        self._node_faults: Dict[int, int] = {}

    def fresh(self) -> "Executor":
        """A new executor sharing this one's cluster, mode, storage and
        fault injector, with clean per-statement state. The database
        runs every statement on a fresh executor so concurrently
        admitted statements never share lineage memos, checkpoints or
        trace bookkeeping; the shared injector keeps cumulative fault
        counts cluster-wide."""
        twin = Executor(
            self.cluster,
            execution_mode=self.execution_mode,
            storage=self.storage,
            injector=self.injector,
        )
        # per-statement entries, database-wide eviction count
        twin.checkpoints = CheckpointStore(self.checkpoints._evictions)
        return twin

    def run(self, plan: PhysicalNode) -> Tuple[List[tuple], QueryMetrics]:
        """Execute a plan; returns (all result rows, metrics for this
        statement, carrying the per-operator estimate-vs-actual trace).
        The cluster's running metrics are reset first."""
        self.cluster.reset_metrics()
        self._materialized.clear()
        self._op_sequence = 0
        self._node_ops.clear()
        self._node_index.clear()
        self._node_retries.clear()
        self._node_faults.clear()
        try:
            for _ in range(max(1, count_job_boundaries(plan))):
                self.cluster.record_job()
            relation = self.execute(plan)
            # snapshot the trace before lineage memos are dropped (and
            # after all fault rewrites of operator timings landed)
            trace = self._build_trace(plan)
            metrics = self.cluster.reset_metrics()
            metrics.trace = trace
            return relation.all_rows(), metrics
        finally:
            # the query is over (either way): drop lineage memos and
            # evict this query's checkpointed exchange outputs
            self._materialized.clear()
            self.checkpoints.clear()

    def _build_trace(self, node: PhysicalNode) -> OperatorTrace:
        """The OperatorTrace tree mirroring ``node``'s plan shape, with
        the measured actuals of this run filled in."""
        key = id(node)
        trace = OperatorTrace(
            name=node.describe(),
            op_index=self._node_index.get(key, 0),
            children=[self._build_trace(child) for child in node.children()],
            retries=self._node_retries.get(key, 0),
            fault_count=self._node_faults.get(key, 0),
        )
        op = self._node_ops.get(key)
        # a node with no recorded operator run was skipped entirely (the
        # LIMIT 0 short-circuit never executes its child subtree): its
        # zeros are not measurements, so q_error stays undefined and
        # cardinality feedback ignores it
        trace.executed = op is not None
        if op is not None:
            trace.rows_in = op.rows_in
            trace.rows_out = op.rows_out
            trace.wall_seconds = op.wall_seconds
            trace.network_bytes = op.network_bytes
            trace.skew_ratio = op.skew_ratio
            trace.spill_bytes = op.spill_bytes
            trace.spill_events = op.spill_events
            trace.segments_pruned = op.segments_pruned
            trace.segments_scanned = op.segments_scanned
            trace.pool_hits = op.pool_hits
            trace.pool_misses = op.pool_misses
            trace.peak_memory_bytes = op.peak_memory_bytes
        relation = self._materialized.get(key)
        if relation is not None:
            # materialized output bytes; partition sizes were already
            # computed (and cached) by the memory check
            trace.bytes_out = sum(
                relation.partition_total_bytes(slot)
                for slot in range(len(relation.partitions))
            )
        return trace

    # -- dispatch ------------------------------------------------------------

    def execute(self, node: PhysicalNode) -> DistributedRelation:
        cached = self._materialized.get(id(node))
        if cached is not None:
            return cached
        handler = self._handlers.get(type(node))
        if handler is None:
            raise ExecutionError(f"no executor for {type(node).__name__}")
        op_index = self._op_sequence
        self._op_sequence += 1
        try:
            relation, own, retries, faults = self._run_operator(
                node, handler, op_index
            )
            self.cluster.check_memory_relation(node.describe(), relation)
        except ExecutionError as exc:
            # annotate with the operator the failure surfaced in; inner
            # frames win (the first annotation sticks), and the original
            # cause chain stays intact — no string concatenation
            if exc.operator is None:
                exc.operator = node.describe()
                exc.plan_position = op_index
            raise
        self._materialized[id(node)] = relation
        self._node_index[id(node)] = op_index
        self._node_retries[id(node)] = retries
        self._node_faults[id(node)] = faults
        if own is not None:
            # the materialized output is part of the operator's working
            # set (partition sizes were cached by the memory check);
            # state extras — build sides, hash tables, staging — were
            # already noted by the handler via OperatorRun.note_peak
            peak = max(
                (
                    relation.partition_total_bytes(slot)
                    for slot in range(len(relation.partitions))
                ),
                default=0.0,
            )
            if peak > own.peak_memory_bytes:
                own.peak_memory_bytes = peak
            self._node_ops[id(node)] = own
        return relation

    def _run_operator(
        self, node, handler, op_index: int
    ) -> Tuple[DistributedRelation, Optional[OperatorMetrics], int, int]:
        """Run one operator's handler, injecting faults and charging
        recovery when a FaultPlan is active.

        Transient exchange errors trigger *genuine* re-execution: the
        handler runs again against its memoized (checkpointed) inputs —
        lineage-based recompute — and produces bit-identical output.
        Slot crashes and stragglers are applied to the successful
        attempt's per-slot timings; lost input partitions extend the
        checkpointed producer's timeline with the recompute."""
        injector = self.injector
        if injector is None:
            metrics = self.cluster.metrics
            before = len(metrics.operators)
            relation = handler(node)
            # children record their operators first; the handler's own
            # record is the last one appended
            own = metrics.operators[-1] if len(metrics.operators) > before else None
            return relation, own, 0, 0
        metrics = self.cluster.metrics
        plan = injector.plan
        failures = 0
        faults_before = sum(metrics.fault_events.values())
        while True:
            before = len(metrics.operators)
            relation = handler(node)
            own = metrics.operators[-1] if len(metrics.operators) > before else None
            if not (
                isinstance(node, PExchange)
                and injector.transient_error(op_index, failures)
            ):
                break
            # this exchange job attempt died to a transient network
            # error: its full wall clock is wasted, and a replacement
            # job is launched against the memoized child relations
            self._count("transient_error")
            failures += 1
            if own is not None:
                metrics.wasted_seconds += own.wall_seconds
                own.name += " [failed attempt]"
            if failures > plan.max_partition_retries:
                raise FaultRecoveryExhaustedError(
                    f"exchange job failed {failures} attempt(s); retry "
                    f"budget ({plan.max_partition_retries}) exhausted"
                ) from TransientClusterError(
                    "injected transient network error during exchange"
                )
            self.cluster.record_job()
            metrics.recovery_seconds += self.cluster.config.job_startup_s
        if own is not None:
            self._apply_slot_faults(node, relation, own, op_index)
            self._apply_lost_inputs(node, op_index)
            if isinstance(node, PExchange) and node.is_job_boundary:
                self.checkpoints.put(id(node), relation, own)
        faults = sum(metrics.fault_events.values()) - faults_before
        return relation, own, failures, faults

    def _count(self, kind: str) -> None:
        """Record one injected fault, both per-statement (QueryMetrics)
        and cumulatively (the injector's counters)."""
        self.injector.count(kind)
        events = self.cluster.metrics.fault_events
        events[kind] = events.get(kind, 0) + 1

    def _apply_slot_faults(
        self,
        node: PhysicalNode,
        relation: DistributedRelation,
        op: OperatorMetrics,
        op_index: int,
    ) -> None:
        """Inject stragglers (with speculative backups) and slot crashes
        (with bounded re-execution) into one operator's per-slot busy
        times, then rewrite the operator's wall clock."""
        injector = self.injector
        plan = injector.plan
        metrics = self.cluster.metrics
        base = list(op.slot_seconds)
        busy = sorted(s for s in base if s > 0.0)
        if not busy:
            return
        # the scheduler's notion of this operator's "typical" task time,
        # used to decide when a backup copy launches
        typical = busy[len(busy) // 2]
        adjusted = list(base)
        changed = False
        for slot, s0 in enumerate(base):
            if s0 <= 0.0:
                continue
            run_time = s0
            factor = injector.straggler_factor(op_index, slot)
            if factor > 1.0:
                self._count("straggler")
                slowed = s0 * factor
                if plan.speculation:
                    launch = typical * plan.speculation_threshold
                    backup_finish = launch + s0
                    if backup_finish < slowed:
                        # the backup copy wins; the straggling original
                        # is killed when the backup commits, and
                        # everything it consumed was duplicated work
                        run_time = backup_finish
                        metrics.speculative_seconds += run_time
                        self._count("speculation_win")
                    else:
                        # the original limps across first; the backup
                        # ran from launch until then for nothing
                        run_time = slowed
                        metrics.speculative_seconds += max(0.0, slowed - launch)
                else:
                    run_time = slowed
            crashes = 0
            total = 0.0
            while True:
                frac = injector.crash_fraction(op_index, slot, crashes)
                if frac is None:
                    total += run_time
                    break
                self._count("slot_crash")
                crashes += 1
                lost = run_time * frac
                refetch = self._refetch_seconds(node, relation, slot)
                total += lost + plan.crash_detection_s + refetch
                metrics.wasted_seconds += lost
                metrics.recovery_seconds += plan.crash_detection_s + refetch
                if crashes > plan.max_partition_retries:
                    raise FaultRecoveryExhaustedError(
                        f"slot {slot} crashed {crashes} time(s) in a row; "
                        f"retry budget ({plan.max_partition_retries}) "
                        f"exhausted"
                    ) from TransientClusterError(
                        f"injected slot crash on slot {slot}"
                    )
            if total != s0:
                adjusted[slot] = total
                changed = True
        if changed:
            op.rewrite_slot_seconds(adjusted)

    def _refetch_seconds(self, node: PhysicalNode, relation, slot: int) -> float:
        """Simulated cost of re-reading a restarted task's inputs from
        the lineage store (local checkpoint/scan re-read)."""
        config = self.cluster.config
        sources = [
            rel
            for rel in (
                self._materialized.get(id(child)) for child in node.children()
            )
            if rel is not None
        ]
        if not sources:
            # a leaf (scan): the restarted task re-reads its own
            # partition of the base table
            sources = [relation]
        seconds = 0.0
        for rel in sources:
            if slot < len(rel.partitions):
                seconds += (
                    rel.partition_total_bytes(slot) / config.disk_rate_per_slot
                )
        return seconds

    def _apply_lost_inputs(self, node: PhysicalNode, op_index: int) -> None:
        """When a consumer finds one of its checkpointed input
        partitions lost, the producing exchange recomputes it from
        lineage and the partition is refetched; the producer's timeline
        is extended accordingly."""
        injector = self.injector
        config = self.cluster.config
        metrics = self.cluster.metrics
        for child in node.children():
            entry = self.checkpoints.get(id(child))
            if entry is None:
                continue
            relation, op = entry
            base = list(op.slot_seconds)
            adjusted = list(base)
            changed = False
            for slot in range(len(relation.partitions)):
                if len(relation.partitions[slot]) == 0:
                    continue
                if not injector.partition_lost(op_index, slot):
                    continue
                self._count("lost_partition")
                nbytes = relation.partition_total_bytes(slot)
                redo = base[slot] if slot < len(base) else 0.0
                refetch = nbytes / config.disk_rate_per_slot + nbytes / (
                    config.network_rate / config.cores_per_machine
                )
                charge = redo + refetch
                if slot < len(adjusted):
                    adjusted[slot] += charge
                metrics.recovery_seconds += charge
                changed = True
            if changed:
                op.rewrite_slot_seconds(adjusted)

    # -- helpers ------------------------------------------------------------

    def _over_budget(self, nbytes: float) -> bool:
        return nbytes > 0.0 and nbytes > self.spill_budget

    def _spill_state(self, run, slot: int, nbytes: float) -> bool:
        """Check one slot's operator state against the working-memory
        budget; over-budget state is charged as a spill (write plus
        reload at disk rate). The decision and the charge are pure byte
        accounting, identical across storage and execution modes.
        Returns True when the state spilled."""
        run.note_peak(nbytes)
        if not self._over_budget(nbytes):
            return False
        run.charge_spill(slot, nbytes)
        if self.storage is not None:
            self.storage.note_spill(nbytes)
        return True

    def _spill_roundtrip_rows(self, rows) -> list:
        """Physically round-trip spilled rows through a spill file in
        disk mode (the segment codec is exact, so values are unchanged);
        in memory mode the spill is simulated and the rows stay put."""
        if self.storage is not None and self.storage.mode == "disk":
            return self.storage.spill_roundtrip(rows)
        return rows if isinstance(rows, list) else list(rows)

    def _spill_roundtrip_batch(self, batch: Batch, column_ids) -> Batch:
        """Batch-mode twin of :meth:`_spill_roundtrip_rows`."""
        if (
            self.storage is not None
            and self.storage.mode == "disk"
            and batch.length
        ):
            rows = self.storage.spill_roundtrip(batch.rows())
            return Batch.from_rows(column_ids, rows)
        return batch

    def _scan_partition(
        self, storage, slot: int, predicates, run
    ) -> Tuple[List[tuple], List[float]]:
        """One partition's rows and per-row sizes, skipping zone-map
        pruned segments; disk-backed segments are read through the
        buffer pool. Both table back ends chunk partitions identically
        (consecutive insert-order chunks of ``segment_rows``), so
        pruning decisions — and the scan charges they remove — match
        across storage modes."""
        if not hasattr(storage, "segments"):
            rows = (
                list(storage.partitions[slot])
                if slot < len(storage.partitions)
                else []
            )
            return rows, [row_bytes(row) for row in rows]
        pool = self.storage.buffer_pool if self.storage is not None else None
        rows = []
        sizes: List[float] = []
        for segment in storage.segments(slot):
            if predicates and segment_pruned(segment, predicates):
                run.segments_pruned += 1
                continue
            run.segments_scanned += 1
            seg_rows, seg_sizes, outcome = segment.read(pool)
            if outcome == "hit":
                run.pool_hits += 1
            elif outcome == "miss":
                run.pool_misses += 1
            rows.extend(seg_rows)
            sizes.extend(seg_sizes)
        return rows, sizes

    def _effective_partitions(
        self, relation: DistributedRelation
    ) -> Tuple[list, bool]:
        """For row-wise operators: the partitions to process and whether
        the input was broadcast (process one copy, stay broadcast)."""
        if relation.partitioning.kind == "broadcast":
            return [relation.partitions[0]], True
        return relation.partitions, False

    def _wrap_output(
        self,
        column_ids,
        parts: list,
        was_broadcast: bool,
        partitioning: Partitioning,
        row_bytes_lists: Optional[list] = None,
    ) -> DistributedRelation:
        if was_broadcast:
            part = parts[0]
            if not isinstance(part, Batch):
                # share one immutable copy: a list aliased across slots
                # would let an in-place mutation corrupt every "copy"
                part = tuple(part)
            shared_bytes = (
                [row_bytes_lists[0]] * self.slots
                if row_bytes_lists is not None
                else None
            )
            return DistributedRelation(
                column_ids, [part] * self.slots, BROADCAST, row_bytes=shared_bytes
            )
        return DistributedRelation(
            column_ids, parts, partitioning, row_bytes=row_bytes_lists
        )

    # =======================================================================
    # row-at-a-time operators
    # =======================================================================

    def _scan(self, node: PScan) -> DistributedRelation:
        storage = node.table.storage
        if storage is None:
            raise ExecutionError(f"table {node.table.name!r} has no data loaded")
        run = self.cluster.operator(f"Scan({node.table.name})")
        predicates = resolve_prune_predicates(
            getattr(node, "prune_predicates", ())
        )
        parts = []
        parts_bytes = []
        for slot in range(self.slots):
            rows, sizes = self._scan_partition(storage, slot, predicates, run)
            scanned = sum(sizes)
            run.charge_disk(slot, scanned)
            run.charge_cpu(slot, tuples=len(rows))
            run.rows_out += len(rows)
            run.bytes_out += scanned
            parts.append(rows)
            parts_bytes.append(sizes)
        run.rows_in = run.rows_out
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(
            column_ids, parts, node.partitioning, row_bytes=parts_bytes
        )

    def _view_scan(self, node: PViewScan) -> DistributedRelation:
        """Answer from a materialized view's stored state: slot 0 emits
        the view's rows (for an incremental view, the merged + finished
        accumulator states — deferred maintenance catches up here, under
        the view's lock), every other slot is empty, matching the SINGLE
        layout of the final aggregate or gathered result it replaces."""
        run = self.cluster.operator(f"ViewScan({node.view.name})")
        rows = node.view.answer_rows(node.spec_indices)
        sizes = [row_bytes(row) for row in rows]
        run.charge_cpu(0, tuples=len(rows))
        run.rows_in = run.rows_out = len(rows)
        run.bytes_out += sum(sizes)
        parts = [rows] + [[] for _ in range(self.slots - 1)]
        parts_bytes = [sizes] + [[] for _ in range(self.slots - 1)]
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(
            column_ids, parts, node.partitioning, row_bytes=parts_bytes
        )

    def _filter(self, node: PFilter) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("Filter")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        parts_bytes = []
        for slot, rows in enumerate(parts_in):
            cost = EvalCost()
            child_bytes = child.partition_row_bytes(slot)
            kept = []
            kept_bytes = []
            for i, row in enumerate(rows):
                view = child.view(row)
                if node.predicate.evaluate(view, cost):
                    kept.append(row)
                    kept_bytes.append(child_bytes[i])
            run.charge_eval(slot, len(rows), cost)
            run.rows_in += len(rows)
            run.rows_out += len(kept)
            parts_out.append(kept)
            parts_bytes.append(kept_bytes)
        self.cluster.record(run)
        return self._wrap_output(
            child.column_ids,
            parts_out,
            was_broadcast,
            child.partitioning,
            row_bytes_lists=parts_bytes,
        )

    def _project(self, node: PProject) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("Project")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        parts_bytes = []
        for slot, rows in enumerate(parts_in):
            cost = EvalCost()
            out = []
            sizes = []
            for row in rows:
                view = child.view(row)
                projected = tuple(expr.evaluate(view, cost) for expr in node.exprs)
                out.append(projected)
                sizes.append(row_bytes(projected))
            run.charge_eval(slot, len(rows), cost)
            run.rows_in += len(rows)
            run.rows_out += len(out)
            run.bytes_out += sum(sizes)
            parts_out.append(out)
            parts_bytes.append(sizes)
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return self._wrap_output(
            column_ids,
            parts_out,
            was_broadcast,
            node.partitioning,
            row_bytes_lists=parts_bytes,
        )

    def _exchange(self, node: PExchange) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Exchange({node.kind})")
        source_parts, _ = self._effective_partitions(child)

        if node.kind == "broadcast":
            rows = []
            all_bytes: List[float] = []
            for slot, part in enumerate(source_parts):
                rows.extend(part)
                all_bytes.extend(child.partition_row_bytes(slot))
            total = sum(all_bytes)
            run.charge_network(total * self.cluster.config.machines)
            cores = self.cluster.config.cores_per_machine
            for machine in range(self.cluster.config.machines):
                run.charge_cpu(machine * cores, tuples=len(rows))
            run.rows_in = run.rows_out = len(rows)
            run.bytes_out = total * self.cluster.config.machines
            self.cluster.record(run)
            return DistributedRelation(
                child.column_ids,
                [tuple(rows)] * self.slots,
                BROADCAST,
                row_bytes=[all_bytes] * self.slots,
            )

        parts_out: List[List[tuple]] = [[] for _ in range(self.slots)]
        bytes_out: List[List[float]] = [[] for _ in range(self.slots)]
        if node.kind == "gather":
            gathered = 0.0
            for slot, part in enumerate(source_parts):
                moved = child.partition_total_bytes(slot)
                run.charge_cpu(slot, tuples=len(part))
                run.charge_disk(slot, moved)  # map output spill
                run.charge_network(moved)
                gathered += moved
                parts_out[0].extend(part)
                bytes_out[0].extend(child.partition_row_bytes(slot))
                run.rows_in += len(part)
            # gather staging on the reducer is exchange state: when the
            # collected partition exceeds the budget it spills before
            # the reduce-side read
            if self._spill_state(run, 0, gathered):
                parts_out[0] = self._spill_roundtrip_rows(parts_out[0])
            # the single reducer owns the whole machine's disk bandwidth
            cores = self.cluster.config.cores_per_machine
            run.charge_disk(0, gathered / cores)
            run.charge_cpu(0, tuples=len(parts_out[0]))
            run.rows_out = len(parts_out[0])
            self.cluster.record(run)
            return DistributedRelation(
                child.column_ids, parts_out, SINGLE, row_bytes=bytes_out
            )

        # hash repartition: the map side evaluates partition keys and
        # scatters rows in (source slot, row) order — that order fixes
        # both the per-target row order and the balanced first-seen key
        # assignment — then the reduce side charges the receive.
        balanced_assignment: Dict[tuple, int] = {}
        for slot, part in enumerate(source_parts):
            cost = EvalCost()
            moved = 0.0
            child_bytes = child.partition_row_bytes(slot)
            for i, row in enumerate(part):
                view = child.view(row)
                key = tuple(expr.evaluate(view, cost) for expr in node.keys)
                moved += child_bytes[i]
                if self.cluster.config.balanced_placement:
                    target = balanced_assignment.setdefault(
                        key, len(balanced_assignment) % self.slots
                    )
                else:
                    target = stable_hash(key) % self.slots
                parts_out[target].append(row)
                bytes_out[target].append(child_bytes[i])
            run.charge_eval(slot, len(part), cost)
            run.charge_disk(slot, moved)  # map output spill
            run.charge_network(moved)
            run.rows_in += len(part)

        for slot in range(self.slots):
            rows = parts_out[slot]
            received = sum(bytes_out[slot])
            # reduce-side staging above the budget spills before the read
            if self._spill_state(run, slot, received):
                parts_out[slot] = rows = self._spill_roundtrip_rows(rows)
            run.charge_disk(slot, received)  # reduce-side read
            run.charge_cpu(slot, tuples=len(rows))
            run.rows_out += len(rows)
            run.bytes_out += received
        self.cluster.record(run)
        return DistributedRelation(
            child.column_ids, parts_out, node.partitioning, row_bytes=bytes_out
        )

    def _hash_join(self, node: PHashJoin) -> DistributedRelation:
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        run = self.cluster.operator("HashJoin")

        build_broadcast = build_rel.partitioning.kind == "broadcast"
        probe_parts, probe_was_broadcast = self._effective_partitions(probe_rel)
        if probe_was_broadcast:
            raise ExecutionError("hash join probe side cannot be broadcast")

        # build per-slot hash tables; the build side is this join's
        # in-memory state and is checked against the working-memory
        # budget (a broadcast build is a full copy on every slot, so
        # every slot charges its own spill)
        if build_broadcast:
            shared_rows = build_rel.partitions[0]
            shared_bytes = build_rel.partition_total_bytes(0)
            if self._over_budget(shared_bytes):
                shared_rows = self._spill_roundtrip_rows(shared_rows)
        tables = []
        for slot in range(self.slots):
            if build_broadcast:
                build_rows, build_bytes = shared_rows, shared_bytes
            else:
                build_rows = build_rel.partitions[slot]
                build_bytes = build_rel.partition_total_bytes(slot)
                if self._over_budget(build_bytes):
                    build_rows = self._spill_roundtrip_rows(build_rows)
            self._spill_state(run, slot, build_bytes)
            cost = EvalCost()
            table: Dict[tuple, List[tuple]] = {}
            for row in build_rows:
                view = build_rel.view(row)
                key = tuple(expr.evaluate(view, cost) for expr in node.build_keys)
                if any(value is None for value in key):
                    continue
                table.setdefault(key, []).append(row)
            run.charge_eval(slot, len(build_rows), cost)
            run.rows_in += len(build_rows)
            tables.append(table)

        out_index = {
            column.column_id: i for i, column in enumerate(node.columns)
        }
        parts_out = []
        for slot, rows in enumerate(probe_parts):
            cost = EvalCost()
            table = tables[slot]
            out: List[tuple] = []
            for row in rows:
                view = probe_rel.view(row)
                key = tuple(expr.evaluate(view, cost) for expr in node.probe_keys)
                if any(value is None for value in key):
                    continue
                matches = table.get(key)
                if not matches:
                    continue
                for build_row in matches:
                    joined = (
                        row + build_row if node.probe_is_left else build_row + row
                    )
                    if node.residual is not None:
                        joined_view = RowJoinView(joined, out_index)
                        if not node.residual.evaluate(joined_view, cost):
                            continue
                    out.append(joined)
            run.charge_eval(slot, len(rows) + len(out), cost)
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _nested_loop_join(self, node: PNestedLoopJoin) -> DistributedRelation:
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        if build_rel.partitioning.kind != "broadcast":
            raise ExecutionError("nested-loop build side must be broadcast")
        run = self.cluster.operator("NestedLoopJoin")
        build_rows = build_rel.partitions[0]
        probe_parts, probe_was_broadcast = self._effective_partitions(probe_rel)
        if probe_was_broadcast:
            raise ExecutionError("nested-loop probe side cannot be broadcast")
        out_index = {column.column_id: i for i, column in enumerate(node.columns)}
        parts_out = []
        for slot, rows in enumerate(probe_parts):
            cost = EvalCost()
            out: List[tuple] = []
            for row in rows:
                for build_row in build_rows:
                    joined = (
                        row + build_row if node.probe_is_left else build_row + row
                    )
                    if node.residual is not None:
                        joined_view = RowJoinView(joined, out_index)
                        if not node.residual.evaluate(joined_view, cost):
                            continue
                    out.append(joined)
            run.charge_eval(
                slot, len(rows) * max(len(build_rows), 1) + len(out), cost
            )
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _partial_aggregate(self, node: PPartialAggregate) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("PartialAggregate")
        parts_in, _ = self._effective_partitions(child)
        if child.partitioning.kind == "broadcast":
            raise ExecutionError("aggregating a broadcast relation")
        parts_out = []
        for slot, rows in enumerate(parts_in):
            cost = EvalCost()
            groups: Dict[tuple, list] = {}
            for row in rows:
                view = child.view(row)
                key = tuple(expr.evaluate(view, cost) for expr in node.group_exprs)
                bucket = groups.get(key)
                if bucket is None:
                    states = [
                        set() if spec.distinct else spec.aggregate.create()
                        for spec in node.aggregates
                    ]
                    bucket = [key, states]
                    groups[key] = bucket
                states = bucket[1]
                for i, spec in enumerate(node.aggregates):
                    value = (
                        spec.arg.evaluate(view, cost) if spec.arg is not None else 1
                    )
                    if spec.distinct:
                        if value is not None:
                            states[i].add(value)
                            cost.stream_bytes += value_bytes(value)
                    else:
                        states[i] = spec.aggregate.add(states[i], value)
                        if value is not None:
                            cost.stream_bytes += value_bytes(value)
            out: List[tuple] = []
            for key, states in groups.values():
                out.append(tuple(key) + tuple(states))
            # the group hash table is this operator's in-memory state;
            # above the budget the partition spills. The reload is
            # simulated in every mode — DISTINCT states are Python sets
            # whose iteration order would not survive a physical round
            # trip, and the final fold must stay bit-identical.
            self._spill_state(run, slot, sum(row_bytes(row) for row in out))
            # hash aggregation costs ~2x a plain per-tuple pass: hash the
            # key, probe the table, update the state (this is why the
            # paper's Figure 4 shows aggregation dominating the join)
            run.charge_eval(slot, 2 * len(rows) + len(out), cost)
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(column_ids, parts_out, ROUND_ROBIN)

    def _final_aggregate(self, node: PFinalAggregate) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("FinalAggregate")
        key_count = len(node.group_columns)
        parts_out = []
        for slot, part in enumerate(child.partitions):
            rows = partition_rows(part)
            cost = EvalCost()
            merged: Dict[tuple, list] = {}
            for row in rows:
                key = row[:key_count]
                states = row[key_count:]
                bucket = merged.get(key)
                if bucket is None:
                    merged[key] = [key, list(states)]
                else:
                    existing = bucket[1]
                    for i, spec in enumerate(node.aggregates):
                        if spec.distinct:
                            existing[i] |= states[i]
                        else:
                            existing[i] = spec.aggregate.merge(existing[i], states[i])
                for state in states:
                    cost.stream_bytes += value_bytes(state) if state is not None else 1.0
            out: List[tuple] = []
            for key, states in merged.values():
                finished = []
                for spec, state in zip(node.aggregates, states):
                    if spec.distinct:
                        fold = spec.aggregate.create()
                        for value in state:
                            fold = spec.aggregate.add(fold, value)
                        state = fold
                    finished.append(spec.aggregate.finish(state))
                out.append(tuple(key) + tuple(finished))
            run.charge_eval(slot, len(rows), cost)
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        if key_count == 0 and run.rows_in == 0:
            # SQL scalar aggregates yield exactly one row on empty input
            finished = []
            for spec in node.aggregates:
                finished.append(spec.aggregate.finish(spec.aggregate.create()))
            parts_out[0].append(tuple(finished))
            run.rows_out += 1
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _distinct(self, node: PDistinct) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Distinct({'local' if node.local else 'final'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        for slot, rows in enumerate(parts_in):
            seen = {}
            for row in rows:
                seen.setdefault(row, row)
            out = list(seen.values())
            run.charge_cpu(
                slot,
                tuples=len(rows),
                stream_bytes=child.partition_total_bytes(slot),
            )
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _sort_limit(self, node: PSortLimit) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Sort({'final' if node.final else 'local'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        for slot, rows in enumerate(parts_in):
            ordered = list(rows)
            for expr, ascending in reversed(node.keys):
                cost = EvalCost()
                ordered.sort(
                    key=lambda row: _sort_key(expr.evaluate(child.view(row), cost)),
                    reverse=not ascending,
                )
                run.charge_eval(slot, 0, cost)
            if node.limit is not None:
                ordered = ordered[: node.limit]
            comparisons = len(rows) * max(1.0, math.log2(len(rows) + 1))
            run.charge_cpu(slot, tuples=comparisons)
            # the full sort materializes an ordered copy of the whole
            # partition before any LIMIT truncation — O(n) state (the
            # bounded-heap PTopK holds O(k); see _top_k)
            run.note_peak(child.partition_total_bytes(slot))
            run.rows_in += len(rows)
            run.rows_out += len(ordered)
            parts_out.append(ordered)
        self.cluster.record(run)
        return self._wrap_output(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _top_k(self, node: PTopK) -> DistributedRelation:
        if node.limit <= 0:
            return self._top_k_empty(node)
        child = self.execute(node.child)
        run = self.cluster.operator(f"TopK({'final' if node.final else 'local'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        ascending = [asc for _, asc in node.keys]
        parts_out = []
        for slot, rows in enumerate(parts_in):
            key_columns = []
            for expr, _asc in node.keys:
                cost = EvalCost()
                key_columns.append(
                    [
                        _sort_key(expr.evaluate(child.view(row), cost))
                        for row in rows
                    ]
                )
                run.charge_eval(slot, 0, cost)
            chosen = _top_k_indices(key_columns, ascending, len(rows), node.limit)
            out = [rows[i] for i in chosen]
            sizes = child.partition_row_bytes(slot)
            run.charge_cpu(slot, tuples=_top_k_comparisons(len(rows), node.limit))
            # only the heap's k survivors are ever held, not the partition
            run.note_peak(float(sum(sizes[i] for i in chosen)))
            run.rows_in += len(rows)
            run.rows_out += len(out)
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _top_k_empty(self, node: PTopK) -> DistributedRelation:
        """``LIMIT 0``: emit nothing — and never execute the child
        subtree (the zero-row short-circuit; skipped operators are
        marked not-executed in the trace)."""
        run = self.cluster.operator(
            f"TopK({'final' if node.final else 'local'})"
        )
        self.cluster.record(run)
        column_ids = [column.column_id for column in node.columns]
        if self.execution_mode == "batch":
            parts: list = [Batch.empty_like(column_ids) for _ in range(self.slots)]
        else:
            parts = [[] for _ in range(self.slots)]
        return DistributedRelation(column_ids, parts, node.partitioning)

    # =======================================================================
    # batch-columnar operators
    #
    # Every handler mirrors its row twin charge for charge: the same
    # tuples/flops/stream-bytes/disk/network totals land on the same
    # slots, so simulated metrics are identical in both modes (byte and
    # cost totals are sums of integer-valued floats, which float
    # addition computes exactly in any order).
    # =======================================================================

    def _wrap_output_batch(
        self, column_ids, parts: List[Batch], was_broadcast: bool, partitioning
    ) -> DistributedRelation:
        if was_broadcast:
            # a Batch is immutable, so every slot can share one chunk
            return DistributedRelation(column_ids, [parts[0]] * self.slots, BROADCAST)
        return DistributedRelation(column_ids, parts, partitioning)

    def _scan_batch(self, node: PScan) -> DistributedRelation:
        storage = node.table.storage
        if storage is None:
            raise ExecutionError(f"table {node.table.name!r} has no data loaded")
        run = self.cluster.operator(f"Scan({node.table.name})")
        column_ids = [column.column_id for column in node.columns]
        predicates = resolve_prune_predicates(
            getattr(node, "prune_predicates", ())
        )
        disk_mode = self.storage is not None and self.storage.mode == "disk"
        # the fully-cached columnar path is memory-mode only: in disk
        # mode every scan goes segment by segment through the buffer
        # pool so hit/miss counters match the row back end's, and a
        # pruned scan assembles its batch from the surviving rows
        use_columnar = (
            not predicates and not disk_mode and hasattr(storage, "columnar")
        )
        parts = []
        for slot in range(self.slots):
            if use_columnar:
                columns, sizes = storage.columnar(slot)
                batch = Batch(column_ids, columns, len(sizes), row_bytes=sizes)
                if hasattr(storage, "segments"):
                    run.segments_scanned += len(storage.segments(slot))
            else:
                rows, size_list = self._scan_partition(
                    storage, slot, predicates, run
                )
                batch = Batch.from_rows(
                    column_ids,
                    rows,
                    row_bytes=np.asarray(size_list, dtype=np.float64),
                )
            scanned = batch.total_bytes()
            run.charge_disk(slot, scanned)
            run.charge_cpu(slot, tuples=batch.length)
            run.rows_out += batch.length
            run.bytes_out += scanned
            parts.append(batch)
        run.rows_in = run.rows_out
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts, node.partitioning)

    def _view_scan_batch(self, node: PViewScan) -> DistributedRelation:
        """Batch twin of :meth:`_view_scan` — same rows, same single
        partition, wrapped as columnar batches."""
        run = self.cluster.operator(f"ViewScan({node.view.name})")
        column_ids = [column.column_id for column in node.columns]
        rows = node.view.answer_rows(node.spec_indices)
        sizes = [row_bytes(row) for row in rows]
        run.charge_cpu(0, tuples=len(rows))
        run.rows_in = run.rows_out = len(rows)
        run.bytes_out += sum(sizes)
        answered = Batch.from_rows(
            column_ids, rows, row_bytes=np.asarray(sizes, dtype=np.float64)
        )
        parts = [answered] + [
            Batch.empty_like(column_ids) for _ in range(self.slots - 1)
        ]
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts, node.partitioning)

    def _filter_batch(self, node: PFilter) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("Filter")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        for slot, batch in enumerate(parts_in):
            cost = EvalCost()
            mask = truth(node.predicate.evaluate_batch(batch, cost))
            kept = batch.filter(mask)
            run.charge_eval(slot, batch.length, cost)
            run.rows_in += batch.length
            run.rows_out += kept.length
            parts_out.append(kept)
        self.cluster.record(run)
        return self._wrap_output_batch(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _project_batch(self, node: PProject) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("Project")
        parts_in, was_broadcast = self._effective_partitions(child)
        column_ids = [column.column_id for column in node.columns]
        parts_out = []
        for slot, batch in enumerate(parts_in):
            cost = EvalCost()
            columns = [expr.evaluate_batch(batch, cost) for expr in node.exprs]
            out = Batch(column_ids, columns, batch.length)
            run.charge_eval(slot, batch.length, cost)
            run.rows_in += batch.length
            run.rows_out += out.length
            run.bytes_out += out.total_bytes()
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output_batch(
            column_ids, parts_out, was_broadcast, node.partitioning
        )

    def _exchange_batch(self, node: PExchange) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Exchange({node.kind})")
        source_parts, _ = self._effective_partitions(child)

        if node.kind == "broadcast":
            merged = Batch.concat(child.column_ids, list(source_parts))
            total = merged.total_bytes()
            run.charge_network(total * self.cluster.config.machines)
            cores = self.cluster.config.cores_per_machine
            for machine in range(self.cluster.config.machines):
                run.charge_cpu(machine * cores, tuples=merged.length)
            run.rows_in = run.rows_out = merged.length
            run.bytes_out = total * self.cluster.config.machines
            self.cluster.record(run)
            return DistributedRelation(
                child.column_ids, [merged] * self.slots, BROADCAST
            )

        if node.kind == "gather":
            gathered = 0.0
            for slot, batch in enumerate(source_parts):
                moved = batch.total_bytes()
                run.charge_cpu(slot, tuples=batch.length)
                run.charge_disk(slot, moved)  # map output spill
                run.charge_network(moved)
                gathered += moved
                run.rows_in += batch.length
            merged = Batch.concat(child.column_ids, list(source_parts))
            # gather staging on the reducer is exchange state: when the
            # collected partition exceeds the budget it spills before
            # the reduce-side read
            if self._spill_state(run, 0, gathered):
                merged = self._spill_roundtrip_batch(merged, child.column_ids)
            parts_out = [merged] + [
                Batch.empty_like(child.column_ids) for _ in range(self.slots - 1)
            ]
            # the single reducer owns the whole machine's disk bandwidth
            cores = self.cluster.config.cores_per_machine
            run.charge_disk(0, gathered / cores)
            run.charge_cpu(0, tuples=merged.length)
            run.rows_out = merged.length
            self.cluster.record(run)
            return DistributedRelation(child.column_ids, parts_out, SINGLE)

        # hash repartition. The map side evaluates the keys and places
        # each row: a single key by its column's cached placement hashes,
        # balanced placement (first-seen key assignment) and multi-key
        # tuples per row. Then every row moves in one pass: the sources
        # concatenated in slot order, stably sorted by target and cut
        # into contiguous per-target slices, so each target receives its
        # rows in (source slot, row) order, as the row path appends them.
        balanced = self.cluster.config.balanced_placement
        balanced_assignment: Dict[tuple, int] = {}
        sources: List[Batch] = []
        targets: List[np.ndarray] = []
        for slot, batch in enumerate(source_parts):
            cost = EvalCost()
            keys = [expr.evaluate_batch(batch, cost) for expr in node.keys]
            moved = batch.total_bytes()
            run.charge_eval(slot, batch.length, cost)
            run.charge_disk(slot, moved)  # map output spill
            run.charge_network(moved)
            run.rows_in += batch.length
            if not batch.length:
                continue
            if len(keys) == 1 and not balanced:
                placed = keys[0].hashes() % np.uint64(self.slots)
            else:
                placed = np.fromiter(
                    (
                        balanced_assignment.setdefault(
                            key, len(balanced_assignment) % self.slots
                        )
                        if balanced
                        else stable_hash(key) % self.slots
                        for key in _key_tuples(keys, batch.length)
                    ),
                    dtype=np.int64,
                    count=batch.length,
                )
            sources.append(batch)
            targets.append(placed.astype(np.int64, copy=False))

        target = np.concatenate(targets) if targets else np.zeros(0, np.int64)
        counts = np.bincount(target, minlength=self.slots).tolist()
        moved_rows = Batch.concat(child.column_ids, sources).take(
            np.argsort(target, kind="stable")
        )
        parts_out = []
        start = 0
        for slot, count in enumerate(counts):
            received_batch = (
                moved_rows.take(slice(start, start + count))
                if count
                else Batch.empty_like(child.column_ids)
            )
            start += count
            received = received_batch.total_bytes()
            # reduce-side staging above the budget spills before the read
            if self._spill_state(run, slot, received):
                received_batch = self._spill_roundtrip_batch(
                    received_batch, child.column_ids
                )
            run.charge_disk(slot, received)  # reduce-side read
            run.charge_cpu(slot, tuples=received_batch.length)
            run.rows_out += received_batch.length
            run.bytes_out += received
            parts_out.append(received_batch)
        self.cluster.record(run)
        return DistributedRelation(child.column_ids, parts_out, node.partitioning)

    def _build_join_table(
        self, batch: Batch, key_exprs
    ) -> Tuple[EvalCost, "_JoinTable"]:
        cost = EvalCost()
        keys = [expr.evaluate_batch(batch, cost) for expr in key_exprs]
        return cost, _JoinTable(keys, batch.length)

    def _assemble_join(
        self,
        column_ids,
        probe_batch: Batch,
        build_batch: Batch,
        probe_indices: List[int],
        build_indices: List[int],
        probe_is_left: bool,
    ) -> Batch:
        probe_take = probe_batch.take(np.asarray(probe_indices, dtype=np.int64))
        build_take = build_batch.take(np.asarray(build_indices, dtype=np.int64))
        if probe_is_left:
            columns = list(probe_take.columns) + list(build_take.columns)
        else:
            columns = list(build_take.columns) + list(probe_take.columns)
        # a joined row's serialized size is both sides' sizes minus one
        # double-counted per-row overhead (sums of integral floats: exact)
        joined_bytes = (
            probe_take.row_bytes_array() + build_take.row_bytes_array() - 16.0
        )
        return Batch(column_ids, columns, probe_take.length, row_bytes=joined_bytes)

    def _hash_join_batch(self, node: PHashJoin) -> DistributedRelation:
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        run = self.cluster.operator("HashJoin")

        build_broadcast = build_rel.partitioning.kind == "broadcast"
        probe_parts, probe_was_broadcast = self._effective_partitions(probe_rel)
        if probe_was_broadcast:
            raise ExecutionError("hash join probe side cannot be broadcast")
        column_ids = [column.column_id for column in node.columns]

        # build per-slot join tables; a broadcast build side is one shared
        # chunk and table, but the row path re-evaluates its keys on every
        # slot, so the identical cost is charged per slot here as well
        if build_broadcast:
            shared = build_rel.partitions[0]
            shared_bytes = build_rel.partition_total_bytes(0)
            if self._over_budget(shared_bytes):
                shared = self._spill_roundtrip_batch(shared, build_rel.column_ids)
            shared_cost, shared_table = self._build_join_table(
                shared, node.build_keys
            )
        tables = []
        build_batches = []
        for slot in range(self.slots):
            if build_broadcast:
                batch, build_bytes = shared, shared_bytes
                cost, table = shared_cost, shared_table
            else:
                batch = build_rel.partitions[slot]
                build_bytes = build_rel.partition_total_bytes(slot)
                if self._over_budget(build_bytes):
                    batch = self._spill_roundtrip_batch(
                        batch, build_rel.column_ids
                    )
                cost, table = self._build_join_table(batch, node.build_keys)
            self._spill_state(run, slot, build_bytes)
            run.charge_eval(slot, batch.length, cost)
            run.rows_in += batch.length
            tables.append(table)
            build_batches.append(batch)

        parts_out = []
        for slot, batch in enumerate(probe_parts):
            cost = EvalCost()
            keys = [expr.evaluate_batch(batch, cost) for expr in node.probe_keys]
            probe_indices, build_indices = tables[slot].match(keys, batch.length)
            joined = self._assemble_join(
                column_ids,
                batch,
                build_batches[slot],
                probe_indices,
                build_indices,
                node.probe_is_left,
            )
            if node.residual is not None and joined.length:
                residual_mask = truth(node.residual.evaluate_batch(joined, cost))
                joined = joined.filter(residual_mask)
            run.charge_eval(slot, batch.length + joined.length, cost)
            run.rows_in += batch.length
            run.rows_out += joined.length
            parts_out.append(joined)
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _nested_loop_join_batch(self, node: PNestedLoopJoin) -> DistributedRelation:
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        if build_rel.partitioning.kind != "broadcast":
            raise ExecutionError("nested-loop build side must be broadcast")
        run = self.cluster.operator("NestedLoopJoin")
        build_batch = build_rel.partitions[0]
        probe_parts, probe_was_broadcast = self._effective_partitions(probe_rel)
        if probe_was_broadcast:
            raise ExecutionError("nested-loop probe side cannot be broadcast")
        column_ids = [column.column_id for column in node.columns]
        build_count = build_batch.length
        parts_out = []
        for slot, batch in enumerate(probe_parts):
            cost = EvalCost()
            probe_count = batch.length
            # probe-major cross product, matching the row path's loop order
            probe_indices = np.repeat(
                np.arange(probe_count, dtype=np.int64), build_count
            )
            build_indices = np.tile(
                np.arange(build_count, dtype=np.int64), probe_count
            )
            joined = self._assemble_join(
                column_ids,
                batch,
                build_batch,
                probe_indices,
                build_indices,
                node.probe_is_left,
            )
            if node.residual is not None and joined.length:
                residual_mask = truth(node.residual.evaluate_batch(joined, cost))
                joined = joined.filter(residual_mask)
            run.charge_eval(
                slot, probe_count * max(build_count, 1) + joined.length, cost
            )
            run.rows_in += probe_count
            run.rows_out += joined.length
            parts_out.append(joined)
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _partial_aggregate_batch(self, node: PPartialAggregate) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("PartialAggregate")
        parts_in, _ = self._effective_partitions(child)
        if child.partitioning.kind == "broadcast":
            raise ExecutionError("aggregating a broadcast relation")
        column_ids = [column.column_id for column in node.columns]
        specs = node.aggregates
        parts_out = []
        for slot, batch in enumerate(parts_in):
            cost = EvalCost()
            key_columns = [
                expr.evaluate_batch(batch, cost) for expr in node.group_exprs
            ]
            arg_columns = [
                spec.arg.evaluate_batch(batch, cost) if spec.arg is not None else None
                for spec in specs
            ]
            # number the rows' groups in first-seen order (vectorized for
            # numeric keys, else through a dict exactly like the row
            # path's), then aggregate column by column: states see the
            # per-group row subsequence the row path feeds them, and the
            # (integral) streamed-bytes totals are order-independent
            gid = group_ids(key_columns, batch.length)
            if gid is None:
                numbers: Dict[tuple, int] = {}
                gid = np.fromiter(
                    (
                        numbers.setdefault(key, len(numbers))
                        for key in zip(*[column.pylist() for column in key_columns])
                    ),
                    dtype=np.int64,
                    count=batch.length,
                )
            layout = GroupLayout(gid)
            keys = [column.cells(layout.first_rows) for column in key_columns]
            spec_states = [
                self._aggregate_column(spec, arg_columns[j], layout, cost)
                for j, spec in enumerate(specs)
            ]
            out_rows = [
                tuple(values[g] for values in keys)
                + tuple(states[g] for states in spec_states)
                for g in range(layout.count)
            ]
            # same spill rule as the row path (simulated reload — see
            # the DISTINCT-state note there); the sequential sum visits
            # rows in the identical first-seen group order
            self._spill_state(
                run, slot, sum(row_bytes(row) for row in out_rows)
            )
            run.charge_eval(slot, 2 * batch.length + len(out_rows), cost)
            run.rows_in += batch.length
            run.rows_out += len(out_rows)
            parts_out.append(Batch.from_rows(column_ids, out_rows))
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts_out, ROUND_ROBIN)

    def _aggregate_column(
        self,
        spec,
        column: Optional[ColumnData],
        layout: GroupLayout,
        cost: EvalCost,
    ) -> list:
        """Partial-aggregate one column (None for ``COUNT(*)``) over
        grouped rows, returning one state per group."""
        if not spec.distinct and (column is None or column.nulls is None):
            states = spec.aggregate.fold_column(column, layout)
            if states is not None:
                if column is None:
                    cost.stream_bytes += 8.0 * sum(
                        rows.size for _, rows in layout.classes
                    )
                else:
                    cost.stream_bytes += float(np.sum(column_value_bytes(column)))
                return states
        values = column.pylist() if column is not None else None
        states = [None] * layout.count
        for g, rows in layout.groups():
            state = set() if spec.distinct else spec.aggregate.create()
            for i in rows.tolist():
                value = values[i] if values is not None else 1
                if not spec.distinct:
                    state = spec.aggregate.add(state, value)
                elif value is not None:
                    state.add(value)
                if value is not None:
                    cost.stream_bytes += value_bytes(value)
            states[g] = state
        return states

    def _final_aggregate_batch(self, node: PFinalAggregate) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("FinalAggregate")
        key_count = len(node.group_columns)
        column_ids = [column.column_id for column in node.columns]
        parts_out = []
        for slot, part in enumerate(child.partitions):
            # state merging is inherently value-at-a-time; materialize rows
            rows = partition_rows(part)
            cost = EvalCost()
            merged: Dict[tuple, list] = {}
            for row in rows:
                key = row[:key_count]
                states = row[key_count:]
                bucket = merged.get(key)
                if bucket is None:
                    merged[key] = [key, list(states)]
                else:
                    existing = bucket[1]
                    for i, spec in enumerate(node.aggregates):
                        if spec.distinct:
                            existing[i] |= states[i]
                        else:
                            existing[i] = spec.aggregate.merge(existing[i], states[i])
                for state in states:
                    cost.stream_bytes += value_bytes(state) if state is not None else 1.0
            out_rows: List[tuple] = []
            for key, states in merged.values():
                finished = []
                for spec, state in zip(node.aggregates, states):
                    if spec.distinct:
                        fold = spec.aggregate.create()
                        for value in state:
                            fold = spec.aggregate.add(fold, value)
                        state = fold
                    finished.append(spec.aggregate.finish(state))
                out_rows.append(tuple(key) + tuple(finished))
            run.charge_eval(slot, len(rows), cost)
            run.rows_in += len(rows)
            run.rows_out += len(out_rows)
            parts_out.append(Batch.from_rows(column_ids, out_rows))
        if key_count == 0 and run.rows_in == 0:
            # SQL scalar aggregates yield exactly one row on empty input
            finished = []
            for spec in node.aggregates:
                finished.append(spec.aggregate.finish(spec.aggregate.create()))
            parts_out[0] = Batch.from_rows(column_ids, [tuple(finished)])
            run.rows_out += 1
        self.cluster.record(run)
        return DistributedRelation(column_ids, parts_out, node.partitioning)

    def _distinct_batch(self, node: PDistinct) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Distinct({'local' if node.local else 'final'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        for slot, batch in enumerate(parts_in):
            rows = batch.rows()
            seen: Dict[tuple, int] = {}
            keep: List[int] = []
            for i, row in enumerate(rows):
                if row not in seen:
                    seen[row] = i
                    keep.append(i)
            out = batch.take(np.asarray(keep, dtype=np.int64))
            run.charge_cpu(
                slot, tuples=batch.length, stream_bytes=batch.total_bytes()
            )
            run.rows_in += batch.length
            run.rows_out += out.length
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output_batch(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _sort_limit_batch(self, node: PSortLimit) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator(f"Sort({'final' if node.final else 'local'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        parts_out = []
        for slot, batch in enumerate(parts_in):
            order = list(range(batch.length))
            for expr, ascending in reversed(node.keys):
                cost = EvalCost()
                sort_keys = [
                    _sort_key(value)
                    for value in expr.evaluate_batch(batch, cost).pylist()
                ]
                order.sort(key=sort_keys.__getitem__, reverse=not ascending)
                run.charge_eval(slot, 0, cost)
            if node.limit is not None:
                order = order[: node.limit]
            out = batch.take(np.asarray(order, dtype=np.int64))
            comparisons = batch.length * max(1.0, math.log2(batch.length + 1))
            run.charge_cpu(slot, tuples=comparisons)
            # the full sort materializes an ordered copy of the whole
            # partition before any LIMIT truncation — O(n) state (the
            # bounded-heap PTopK holds O(k); see _top_k_batch)
            run.note_peak(child.partition_total_bytes(slot))
            run.rows_in += batch.length
            run.rows_out += out.length
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output_batch(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )

    def _top_k_batch(self, node: PTopK) -> DistributedRelation:
        if node.limit <= 0:
            return self._top_k_empty(node)
        child = self.execute(node.child)
        run = self.cluster.operator(f"TopK({'final' if node.final else 'local'})")
        parts_in, was_broadcast = self._effective_partitions(child)
        ascending = [asc for _, asc in node.keys]
        parts_out = []
        for slot, batch in enumerate(parts_in):
            key_columns = []
            for expr, _asc in node.keys:
                cost = EvalCost()
                key_columns.append(
                    [
                        _sort_key(value)
                        for value in expr.evaluate_batch(batch, cost).pylist()
                    ]
                )
                run.charge_eval(slot, 0, cost)
            chosen = _top_k_indices(
                key_columns, ascending, batch.length, node.limit
            )
            out = batch.take(np.asarray(chosen, dtype=np.int64))
            sizes = child.partition_row_bytes(slot)
            run.charge_cpu(
                slot, tuples=_top_k_comparisons(batch.length, node.limit)
            )
            # only the heap's k survivors are ever held, not the partition
            run.note_peak(float(sum(sizes[i] for i in chosen)))
            run.rows_in += batch.length
            run.rows_out += out.length
            parts_out.append(out)
        self.cluster.record(run)
        return self._wrap_output_batch(
            child.column_ids, parts_out, was_broadcast, child.partitioning
        )


class RowJoinView:
    """Column-id lookup over a freshly joined row."""

    __slots__ = ("values", "index")

    def __init__(self, values, index: Dict[int, int]):
        self.values = values
        self.index = index

    def __getitem__(self, column_id: int):
        return self.values[self.index[column_id]]


def _key_tuples(columns: List[ColumnData], n: int) -> List[tuple]:
    """Per-row key tuples (``None`` for NULL) of evaluated key columns."""
    if not columns:
        return [()] * n
    return list(zip(*[column.pylist() for column in columns]))


class _JoinTable:
    """A batch hash join's build side, indexed for probing.

    A single NULL-free int64/float64 key without NaN is stably argsorted
    and probed by ``np.searchsorted`` when the probe key has the same
    dtype; any other key goes through a dict of key tuples, as in the
    row path (numpy and Python compare a large int with a float
    differently). Both give the row path's output order: probe row
    ascending, each probe row's matches in build order. NULL keys match
    nothing, NaN probe keys neither, and ``0.0`` matches ``-0.0``."""

    def __init__(self, keys: List[ColumnData], length: int):
        self.keys = keys
        self.length = length
        self.sorted = None
        self._dict: Optional[Dict[tuple, List[int]]] = None
        key = keys[0] if len(keys) == 1 else None
        if (
            key is not None
            and key.nulls is None
            and key.is_numeric
            and not (key.data.dtype == np.float64 and np.isnan(key.data).any())
        ):
            order = np.argsort(key.data, kind="stable")
            self.sorted = (order, key.data[order])

    def match(self, probe_keys: List[ColumnData], n: int):
        """(probe rows, build rows) of every matching pair of the ``n``
        probe rows."""
        probe = probe_keys[0] if self.sorted is not None else None
        if probe is not None and probe.is_numeric and (
            probe.data.dtype == self.keys[0].data.dtype
        ):
            order, sorted_keys = self.sorted
            lo = np.searchsorted(sorted_keys, probe.data, "left")
            counts = np.searchsorted(sorted_keys, probe.data, "right") - lo
            if probe.nulls is not None:
                counts[probe.nulls] = 0
            probe_rows = np.repeat(np.arange(n), counts)
            # output position p of probe row i pairs with sorted build
            # position lo[i] + (p - first output position of row i)
            shift = np.repeat(np.cumsum(counts) - counts - lo, counts)
            return probe_rows, order[np.arange(len(probe_rows)) - shift]
        if self._dict is None:
            table: Dict[tuple, List[int]] = {}
            for j, key in enumerate(_key_tuples(self.keys, self.length)):
                if not any(value is None for value in key):
                    table.setdefault(key, []).append(j)
            self._dict = table
        probe_rows: List[int] = []
        build_rows: List[int] = []
        for i, key in enumerate(_key_tuples(probe_keys, n)):
            if any(value is None for value in key):
                continue
            for j in self._dict.get(key, ()):
                probe_rows.append(i)
                build_rows.append(j)
        return probe_rows, build_rows


def _sort_key(value):
    if value is None:
        return (0, 0)
    if type(value) is Vector:
        # tensors carry no __lt__; order vectors lexicographically by
        # element, matrices by shape then entries, so ORDER BY over a
        # tensor column is well-defined (and identical for the full sort
        # and the Top-K heap)
        return (1, (0, tuple(value.data.tolist())))
    if type(value) is Matrix:
        return (1, (1, value.shape, tuple(value.data.ravel().tolist())))
    return (1, value)


class _HeapWorst:
    """heapq wrapper with *inverted* comparison, so ``heap[0]`` is the
    worst (greatest, in final output order) of the selected rows.

    True order is the composite sort order of the full sort: keys in
    ORDER BY sequence, each with its own direction, ties broken by
    input position ascending — which is exactly what the chain of
    stable sorts in ``_sort_limit`` computes. Matching it key-for-key
    (including the tiebreak) is what makes Top-K bit-identical to the
    full sort, ties at rank k included.
    """

    __slots__ = ("keys", "index", "ascending")

    def __init__(self, keys, index, ascending):
        self.keys = keys
        self.index = index
        self.ascending = ascending

    def _truly_less(self, other: "_HeapWorst") -> bool:
        for mine, theirs, asc in zip(self.keys, other.keys, self.ascending):
            if mine == theirs:
                continue
            return mine < theirs if asc else theirs < mine
        return self.index < other.index

    def __lt__(self, other: "_HeapWorst") -> bool:
        # inverted: heapq's min-heap then surfaces the truly-greatest
        return other._truly_less(self)


def _top_k_indices(key_columns, ascending, count, k):
    """Input positions of the k first rows under the composite sort
    order, returned in that order. Bounded state: the heap never holds
    more than k entries, so selection is O(n log k) time and O(k)
    space regardless of the partition size."""
    heap: List[_HeapWorst] = []
    for i in range(count):
        item = _HeapWorst(tuple(col[i] for col in key_columns), i, ascending)
        if len(heap) < k:
            heapq.heappush(heap, item)
        elif heap[0] < item:
            # the new row truly precedes the current worst survivor
            heapq.heapreplace(heap, item)
    # ascending wrapper order is descending true order; reverse it
    return [item.index for item in sorted(heap)][::-1]


def _top_k_comparisons(count: int, limit: int) -> float:
    """Simulated comparison count for a bounded-heap selection —
    ``n·log2(min(k, n)+1)`` against the full sort's ``n·log2(n+1)``.
    Identical in row and batch mode by construction."""
    return count * max(1.0, math.log2(min(limit, count) + 1))
