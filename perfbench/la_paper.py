"""Workload ``la-paper``: the paper's Gram, regression and distance
computations in tuple, vector and block form, in-process on the default
``ClusterConfig()`` (what ``Database()`` gives a user).

One caller runs a closed loop through ``Database.execute``; every
result is checked against NumPy on the same arrays.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import Outcome, median_ms, timed

VECTOR_ROWS, TUPLE_ROWS, DISTANCE_ROWS, DIMS, BLOCK = 20000, 2000, 400, 10, 1000
SETUPS = 3
#: cycles of the untraced and of the traced pass in a traced run
TRACE_CYCLES = 2
#: relative tolerance of every float comparison against NumPy (the
#: engine sums per partition, NumPy pairwise: the order differs)
RTOL = 1e-9

QUERIES: Dict[str, List[str]] = {
    "gram_vector": ["SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x"],
    "gram_tuple": [
        """SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
        FROM x AS x1, x AS x2
        WHERE x1.row_index = x2.row_index
        GROUP BY x1.col_index, x2.col_index"""
    ],
    "gram_block": [
        "SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) FROM MLX AS mlx"
    ],
    "regression": [
        """SELECT matrix_vector_multiply(
               matrix_inverse(SUM(outer_product(x.value, x.value))),
               SUM(x.value * y.y_i))
        FROM x_vm AS x, y_vm AS y
        WHERE x.id = y.id"""
    ],
    "distance": [
        """CREATE TABLE distancesm AS
        SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
        FROM d_vm AS a, MX AS mxx
        WHERE a.id <> mxx.id
        GROUP BY a.id""",
        """SELECT d.id
        FROM distancesm AS d,
             (SELECT MAX(dd.dist) AS g FROM distancesm AS dd) AS gg
        WHERE d.dist = gg.g""",
    ],
}


class Inputs:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.X = rng.normal(size=(VECTOR_ROWS, DIMS))
        self.y = self.X @ rng.normal(size=DIMS) + 0.1 * rng.normal(size=VECTOR_ROWS)
        self.T = self.X[:TUPLE_ROWS]
        self.D = rng.normal(size=(DISTANCE_ROWS, DIMS))
        base = rng.normal(size=(DIMS, DIMS))
        self.A = base @ base.T / DIMS + np.eye(DIMS)
        self.tuple_rows = [
            (i + 1, j + 1, float(self.T[i, j]))
            for i in range(TUPLE_ROWS)
            for j in range(DIMS)
        ]


def build(inputs: Inputs):
    from repro import Database
    from repro.config import ClusterConfig

    db = Database(ClusterConfig())
    X = inputs.X
    db.execute("CREATE TABLE x_vm (id INTEGER, value VECTOR[])")
    db.load("x_vm", [(i, X[i]) for i in range(len(X))])
    db.execute("CREATE TABLE y_vm (id INTEGER, y_i DOUBLE)")
    db.load("y_vm", [(i, float(inputs.y[i])) for i in range(len(X))])
    db.execute("CREATE TABLE x (row_index INTEGER, col_index INTEGER, value DOUBLE)")
    db.load("x", inputs.tuple_rows)
    db.execute("CREATE TABLE block_index (mi INTEGER)")
    db.load("block_index", [(b,) for b in range(len(X) // BLOCK)])
    db.execute(
        f"""CREATE VIEW MLX (mi, m) AS
        SELECT ind.mi, ROWMATRIX(label_vector(x.value, x.id - ind.mi * {BLOCK} + 1))
        FROM x_vm AS x, block_index AS ind
        WHERE x.id / {BLOCK} = ind.mi
        GROUP BY ind.mi"""
    )
    db.execute("CREATE TABLE d_vm (id INTEGER, value VECTOR[])")
    db.load("d_vm", [(i, inputs.D[i]) for i in range(len(inputs.D))])
    db.execute("CREATE TABLE mm (mat MATRIX[][])")
    db.load("mm", [(inputs.A,)])
    db.execute(
        """CREATE VIEW MX (id, mx_data) AS
        SELECT x.id, matrix_vector_multiply(mm.mat, x.value)
        FROM d_vm AS x, mm AS mm"""
    )
    return db


class Oracle:
    """NumPy answers on the same arrays."""

    def __init__(self, inputs: Inputs):
        X, y, T, D, A = inputs.X, inputs.y, inputs.T, inputs.D, inputs.A
        self.gram = X.T @ X
        self.gram_tuple = T.T @ T
        self.beta = np.linalg.solve(X.T @ X, X.T @ y)
        dist = D @ A @ D.T
        np.fill_diagonal(dist, np.inf)
        self.mins = dist.min(axis=1)

    @staticmethod
    def close(actual, expected, rtol=RTOL) -> bool:
        actual = np.asarray(actual, dtype=float)
        scale = float(np.max(np.abs(expected))) or 1.0
        return actual.shape == expected.shape and bool(
            np.all(np.abs(actual - expected) <= rtol * scale)
        )

    def check(self, query: str, result) -> bool:
        if query == "gram_vector" or query == "gram_block":
            return self.close(result.scalar().data, self.gram)
        if query == "regression":
            # the engine inverts, NumPy solves: allow for conditioning
            return self.close(result.scalar().data, self.beta, rtol=1e-7)
        if query == "gram_tuple":
            gram = np.full_like(self.gram_tuple, np.nan)
            for i, j, value in result.rows:
                gram[i - 1, j - 1] = value
            return self.close(gram, self.gram_tuple)
        # distance: every returned id has (within tolerance) the largest
        # minimum distance, which keeps the check immune to near-ties
        ids = [row[0] for row in result.rows]
        best = float(self.mins.max())
        return bool(ids) and all(
            abs(float(self.mins[i]) - best) <= RTOL * abs(best) for i in ids
        )


def run_query(db, query: str):
    """One timed operation; returns (ms, final result)."""
    statements = QUERIES[query]
    start = time.perf_counter()
    for sql in statements:
        result = db.execute(sql)
    elapsed = (time.perf_counter() - start) * 1e3
    if query == "distance":
        db.execute("DROP TABLE distancesm")
    return elapsed, result


def numpy_refs(inputs: Inputs) -> Dict[str, float]:
    """Median ms of the same computations in NumPy."""
    X, y, T, D, A = inputs.X, inputs.y, inputs.T, inputs.D, inputs.A
    blocks = [X[b : b + BLOCK] for b in range(0, len(X), BLOCK)]

    def distance():
        dist = D @ A @ D.T
        np.fill_diagonal(dist, np.inf)
        return int(np.argmax(dist.min(axis=1)))

    kernels = {
        "gram_vector": lambda: X.T @ X,
        "gram_tuple": lambda: T.T @ T,
        "gram_block": lambda: sum(B.T @ B for B in blocks),
        "regression": lambda: np.linalg.solve(X.T @ X, X.T @ y),
        "distance": distance,
    }
    return {name: median_ms(kernel, repeats=21) for name, kernel in kernels.items()}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = Inputs(seed)
    oracle = Oracle(inputs)
    outcome = Outcome(classes=list(QUERIES))
    db = None
    for _ in range(SETUPS):
        elapsed, db = timed(build, inputs)
        outcome.setup_s.append(elapsed)

    def cycle(record: bool) -> None:
        for query in QUERIES:
            outcome.calibrate()
            ms, result = run_query(db, query)
            outcome.attempted += 1
            if not oracle.check(query, result):
                outcome.fail(f"{query}: answer differs from NumPy")
            elif record:
                outcome.latencies[query].append(ms)

    cycle(record=False)  # warm: first-run plans and feedback settle
    if not trace:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cycle(record=True)
        return outcome

    import layers

    # traced run: a fixed number of cycles untraced, then the same traced
    for _ in range(TRACE_CYCLES):
        cycle(record=True)
    untraced = {q: list(v) for q, v in outcome.latencies.items()}
    tracer = outcome.start_trace()
    for query in QUERIES:
        outcome.latencies[query].clear()
    for _ in range(TRACE_CYCLES):
        cycle(record=True)
    outcome.stop_trace()
    ctx = outcome.trace_context(untraced)
    ctx["reads"] = ctx["ops"]
    ctx["spill_bytes"] = db.storage.stats()["spilled_bytes"]
    for query, ms in numpy_refs(inputs).items():
        ctx[f"numpy_ms.{query}"] = ms
        ctx[f"engine_ms.{query}"] = float(np.median(untraced[query]))
    outcome.layers = layers.layer_metrics(tracer.summary(), ctx)
    return outcome
