"""Workload ``ingest-views``: durable batched appends under an eager
incremental materialized view, with reads beside them, then recovery.

One in-process caller, on a 2x2 cluster with ``durability_mode="wal"``,
``storage_mode="disk"``, 512-row segments and a 200 KB buffer pool. A
round sets up the database, its table ``points(i, x, v VECTOR[8])`` and
the view ``normal``, and bulk-loads 4000 rows; then for each of 24
batches of 1000 rows: a ``Database.load`` (the view folds it), a read
the view answers, and a zone-map range scan. At the end the database is abandoned without a clean shutdown and
``Database.restore(data_dir)`` is timed. Each round does the same fixed
work, because append cost grows with table size; a run does rounds
until its time is up.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from common import Outcome

INITIAL_ROWS, BATCHES, BATCH_ROWS, DIMS = 4000, 24, 1000, 8
TOTAL_ROWS = INITIAL_ROWS + BATCHES * BATCH_ROWS
SCAN_WIDTH = 200
POOL_BYTES = 200_000
#: bytes of user data per row: i, x and 8 vector components
USER_BYTES_PER_ROW = 8 + 8 + 8 * DIMS
RTOL = 1e-9
CLASSES = ["append", "view_read", "scan_read", "recover"]

VIEW = """CREATE MATERIALIZED VIEW normal AS
SELECT SUM(outer_product(v, v)) AS g, SUM(v * x) AS b FROM points"""
VIEW_READ = "SELECT SUM(outer_product(v, v)), SUM(v * x) FROM points"
SCAN_READ = "SELECT COUNT(i), SUM(x) FROM points WHERE i >= :lo AND i < :hi"


class Inputs:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.V = rng.normal(size=(TOTAL_ROWS, DIMS))
        self.x = rng.normal(size=TOTAL_ROWS)
        rows = [(i, float(self.x[i]), self.V[i]) for i in range(TOTAL_ROWS)]
        self.initial = rows[:INITIAL_ROWS]
        self.batches = [
            rows[INITIAL_ROWS + b * BATCH_ROWS : INITIAL_ROWS + (b + 1) * BATCH_ROWS]
            for b in range(BATCHES)
        ]
        #: start of each batch's range scan, inside the rows loaded so far
        self.scan_lo = [
            int(rng.integers(0, self.loaded(b) - SCAN_WIDTH + 1)) for b in range(BATCHES)
        ]

    @staticmethod
    def loaded(batch: int) -> int:
        """Rows in the table once ``batch`` is appended."""
        return INITIAL_ROWS + (batch + 1) * BATCH_ROWS


def _close(actual, expected) -> bool:
    actual = np.asarray(actual, dtype=float)
    scale = float(np.max(np.abs(expected))) or 1.0
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= RTOL * scale)
    )


class Totals:
    """Per-round figures the per-layer metrics need."""

    def __init__(self):
        self.reads = self.view_hits = self.view_misses = 0
        self.appended_rows = 0
        self.pool_hits = self.pool_misses = self.pool_evictions = 0
        self.wal_bytes = self.spill_bytes = 0
        self.records_replayed = 0


def one_round(
    inputs: Inputs, data_dir: Path, outcome: Outcome, record: bool, totals: Totals,
    batches: int = BATCHES,
):
    from repro import Database
    from repro.bench.recoverbench import state_fingerprint
    from repro.config import ClusterConfig

    def observe(cls: str, ms: float) -> None:
        outcome.attempted += 1
        if record:
            outcome.latencies[cls].append(ms)

    shutil.rmtree(data_dir, ignore_errors=True)
    config = ClusterConfig(
        machines=2, cores_per_machine=2, job_startup_s=1.0,
        durability_mode="wal", data_dir=str(data_dir), storage_mode="disk",
        segment_rows=512, buffer_pool_bytes=POOL_BYTES,
    )
    start = time.perf_counter()
    db = Database(config)
    db.execute("CREATE TABLE points (i INTEGER, x DOUBLE, v VECTOR[8])")
    db.execute(VIEW)
    db.load("points", inputs.initial)
    totals.appended_rows += INITIAL_ROWS
    if record:
        outcome.setup_s.append(time.perf_counter() - start)

    for b, batch in enumerate(inputs.batches[:batches]):
        outcome.calibrate()
        start = time.perf_counter()
        db.load("points", batch)
        observe("append", (time.perf_counter() - start) * 1e3)
        loaded = inputs.loaded(b)
        totals.appended_rows += BATCH_ROWS

        start = time.perf_counter()
        result = db.execute(VIEW_READ)
        observe("view_read", (time.perf_counter() - start) * 1e3)
        V, x = inputs.V[:loaded], inputs.x[:loaded]
        gram, moment = result.rows[0]
        if result.metrics.view_hits != 1:
            outcome.fail(f"batch {b}: view read not answered by the view")
        elif not (_close(gram.data, V.T @ V) and _close(moment.data, V.T @ x)):
            outcome.fail(f"batch {b}: view read differs from NumPy")

        lo = inputs.scan_lo[b]
        start = time.perf_counter()
        scan = db.execute(SCAN_READ, {"lo": lo, "hi": lo + SCAN_WIDTH})
        observe("scan_read", (time.perf_counter() - start) * 1e3)
        count, total = scan.rows[0]
        expected = inputs.x[lo : lo + SCAN_WIDTH]
        if count != SCAN_WIDTH or not _close(total, expected.sum()):
            outcome.fail(f"batch {b}: range scan differs from NumPy")
        totals.reads += 2
        totals.view_hits += result.metrics.view_hits
        totals.view_misses += result.metrics.view_misses

    pool = db.storage.stats()["buffer_pool"]
    totals.pool_hits += pool["hits"]
    totals.pool_misses += pool["misses"]
    totals.pool_evictions += pool["evictions"]
    totals.spill_bytes += db.storage.stats()["spilled_bytes"]
    totals.wal_bytes += db.durability.wal_bytes()
    expected_state = state_fingerprint(db)

    # abandon without close(): the state a crash leaves behind
    start = time.perf_counter()
    recovered = Database.restore(str(data_dir))
    observe("recover", (time.perf_counter() - start) * 1e3)
    totals.records_replayed += recovered.durability.records_replayed
    if state_fingerprint(recovered) != expected_state:
        outcome.fail("recovered state differs from the abandoned database")
    recovered.close()
    db.close()
    shutil.rmtree(data_dir, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = Inputs(seed)
    outcome = Outcome(classes=CLASSES)
    # run.py points the temporary directory inside the checkout
    data_dir = Path(tempfile.gettempdir()) / "ingest"
    totals = Totals()
    # warm: a short round loads every code path, including recovery
    one_round(inputs, data_dir, outcome, record=False, totals=Totals(), batches=2)
    if not trace:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            one_round(inputs, data_dir, outcome, record=True, totals=totals)
        return outcome

    import layers

    one_round(inputs, data_dir, outcome, record=True, totals=Totals())
    untraced = {k: list(v) for k, v in outcome.latencies.items()}
    for values in outcome.latencies.values():
        values.clear()
    tracer = outcome.start_trace()
    one_round(inputs, data_dir, outcome, record=True, totals=totals)
    outcome.stop_trace()
    ctx = outcome.trace_context(untraced)
    ctx.update(
        reads=totals.reads,
        view_hits=totals.view_hits,
        view_misses=totals.view_misses,
        appended_rows=totals.appended_rows,
        pool_hits=totals.pool_hits,
        pool_misses=totals.pool_misses,
        pool_evictions=totals.pool_evictions,
        wal_bytes=totals.wal_bytes,
        user_bytes=totals.appended_rows * USER_BYTES_PER_ROW,
        spill_bytes=totals.spill_bytes,
        records_replayed=totals.records_replayed,
    )
    outcome.layers = layers.layer_metrics(tracer.summary(), ctx)
    return outcome
