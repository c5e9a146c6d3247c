"""Span wrappers around each layer's public entry points, and the
per-layer metrics computed from what they record.

A layer is a module under ``src/repro/``. Every wrapper is installed at
the name its caller resolves (``repro.db.parse_statement`` is what
``Database.execute`` calls, ``repro.service.session.parse_statement``
what ``Session.execute`` calls), so the program itself is unchanged.

:data:`PER_LAYER` lists every per-layer metric: its unit, and the
end-to-end metric and workload it should move (see NOTES.md). Times
are mean milliseconds per timed operation of the traced pass; counts
are totals over the traced pass, whose work is fixed by the seed, so
counts repeat exactly run to run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Tracer

LA_QUERIES = ("gram_vector", "gram_tuple", "gram_block", "regression", "distance")

#: (name, unit, better, layer, e2e metric it should move, workload)
PER_LAYER: List[Tuple[str, str, str, str, str, str]] = [
    ("server.outside_service_ms", "ms/op", "lower", "server", "op_ms_p50, ops_per_s", "serve-mix"),
    ("server.encode_ms", "ms/op", "lower", "server", "op_ms_p50", "serve-mix"),
    ("server.pages_per_query", "ratio", "lower", "server", "op_ms_p50", "serve-mix"),
    ("server.shed_total", "count", "lower", "server", "failed (error rate)", "serve-mix"),
    ("service.plan_cache_hit_rate", "ratio", "higher", "service", "op_ms_p50", "serve-mix"),
    ("service.plan_cache_lookup_ms", "ms/op", "lower", "service", "op_ms_p50", "serve-mix"),
    ("service.execute_self_ms", "ms/op", "lower", "service", "ops_per_s", "serve-mix"),
    ("admission.wait_ms", "ms/op", "lower", "admission", "op_ms_p90", "serve-mix"),
    ("sql.parse_ms", "ms/op", "lower", "sql", "op_ms_p50", "serve-mix, ingest-views"),
    ("sql.parse_calls", "count", "lower", "sql", "op_ms_p50", "serve-mix, ingest-views"),
    ("plan.bind_ms", "ms/op", "lower", "plan", "op_ms_p50", "serve-mix, ingest-views"),
    ("plan.optimize_ms", "ms/op", "lower", "plan", "op_ms_p50", "serve-mix, ingest-views"),
    ("plan.physical_ms", "ms/op", "lower", "plan", "op_ms_p50", "serve-mix, ingest-views"),
    ("plan.annotate_ms", "ms/op", "lower", "plan", "op_ms_p50", "serve-mix, ingest-views"),
    ("plan.replans_per_read", "ratio", "lower", "plan", "op_ms_p50", "ingest-views"),
    ("engine.run_self_ms", "ms/op", "lower", "engine", "mix_ms_geomean", "la-paper"),
    ("engine.value_bytes_calls", "count", "lower", "engine", "mix_ms_geomean", "la-paper"),
    ("engine.sim_seconds", "s", "lower", "engine", "none: the simulated model must not move", "all"),
    ("engine.jobs", "count", "lower", "engine", "none: the simulated model must not move", "all"),
    ("engine.operator_rows", "count", "lower", "engine", "none: rows must not change", "all"),
    ("la.kernel_ms", "ms/op", "lower", "la", "mix_ms_geomean", "la-paper"),
    ("la.rows_per_kernel_call", "ratio", "higher", "la", "mix_ms_geomean", "la-paper"),
    ("types.tensors_built_per_row", "ratio", "lower", "types", "mix_ms_geomean", "la-paper, ingest-views"),
    ("storage.segments_decoded", "count", "lower", "storage", "op_ms_p90", "ingest-views"),
    ("storage.segment_decode_ms", "ms/op", "lower", "storage", "op_ms_p90", "ingest-views"),
    ("storage.segments_written", "count", "lower", "storage", "op_ms_p90", "ingest-views"),
    ("storage.pool_hit_rate", "ratio", "higher", "storage", "op_ms_p50", "ingest-views"),
    ("storage.pool_evictions", "count", "lower", "storage", "op_ms_p50", "ingest-views"),
    ("storage.wal_append_ms", "ms/op", "lower", "storage", "op_ms_p90", "ingest-views"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower", "storage", "ops_per_s, mix_ms_geomean", "ingest-views"),
    ("storage.spill_bytes", "count", "lower", "storage", "mix_ms_geomean", "la-paper, ingest-views"),
    ("views.fold_ms", "ms/op", "lower", "views", "op_ms_p90", "ingest-views"),
    ("views.rows_decoded_per_row_folded", "ratio", "lower", "views", "op_ms_p90", "ingest-views"),
    ("views.hit_rate", "ratio", "higher", "views", "op_ms_p50", "ingest-views"),
    ("catalog.stats_ms", "ms/op", "lower", "catalog", "op_ms_p90", "ingest-views"),
    ("recover.records_replayed", "count", "lower", "persist", "mix_ms_geomean", "ingest-views"),
    ("recover.replay_ms_per_record", "ms", "lower", "persist", "mix_ms_geomean", "ingest-views"),
] + [
    (f"ref.numpy_ms.{query}", "ms", "lower", "reference", "none: NumPy on the same arrays", "la-paper")
    for query in LA_QUERIES
] + [
    (f"ref.engine_over_numpy.{query}", "ratio", "lower", "reference", "mix_ms_geomean", "la-paper")
    for query in LA_QUERIES
] + [
    ("trace.overhead", "ratio", "lower", "benchmark", "none: traced over untraced time, minus 1", "all"),
    ("bench.count_drift", "count", "lower", "benchmark", "none: counts that differ from an earlier run", "all"),
]

#: counts that must repeat exactly for the same code and seed
DETERMINISTIC_COUNTS = (
    "sql.parse_calls",
    "engine.value_bytes_calls",
    "engine.sim_seconds",
    "engine.jobs",
    "engine.operator_rows",
    "types.tensors_built_per_row",
    "la.rows_per_kernel_call",
    "storage.segments_decoded",
    "storage.segments_written",
    "storage.wal_bytes_per_user_byte",
    "storage.spill_bytes",
    "views.rows_decoded_per_row_folded",
    "recover.records_replayed",
    "server.pages_per_query",
)


def _tally_run(tracer: Tracer):
    """on_result hook of ``Executor.run``: fold each statement's
    simulated metrics into the tracer."""

    def observe(result) -> None:
        _rows, metrics = result
        operator_rows = 0
        leaf_rows = 0
        stack = [metrics.trace] if metrics.trace is not None else []
        while stack:
            node = stack.pop()
            operator_rows += node.rows_out
            if not node.children:
                leaf_rows += node.rows_out
            stack.extend(node.children)
        tracer.record("engine.sim_seconds", metrics.total_seconds)
        tracer.count("engine.jobs", metrics.jobs)
        tracer.count("engine.operator_rows", operator_rows)
        tracer.count("engine.leaf_rows", leaf_rows)

    return observe


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.db
    import repro.engine.executor
    import repro.la.aggregates
    import repro.service.session
    import repro.storage.disk
    import repro.storage.segment
    import repro.storage.wal
    from repro.admission import AdmissionGate
    from repro.engine.executor import Executor
    from repro.la.functions import all_builtins
    from repro.plan import Binder, CostModel, Optimizer, PhysicalPlanner
    from repro.service.plan_cache import PlanCache
    from repro.service.session import Session
    from repro.storage.wal import WriteAheadLog
    from repro.types import Matrix, Vector
    from repro.views.definition import MaterializedView

    span, leaf, counter = tracer.wrap_span, tracer.wrap_leaf, tracer.wrap_counter
    # sql
    span(repro.db, "parse_statement", "sql.parse")
    span(repro.service.session, "parse_statement", "sql.parse")
    # plan
    span(Binder, "bind_select", "plan.bind")
    span(Optimizer, "optimize", "plan.optimize")
    span(PhysicalPlanner, "plan", "plan.physical")
    span(CostModel, "annotate_trace", "plan.annotate")
    # service and admission
    span(Session, "execute", "service.execute")
    span(PlanCache, "lookup", "service.plan_cache_lookup")
    span(AdmissionGate, "acquire_shared", "admission.wait")
    span(AdmissionGate, "acquire_exclusive", "admission.wait")
    # engine
    span(Executor, "run", "engine.run", on_result=_tally_run(tracer))
    counter(repro.engine.executor, "row_bytes", "engine.value_bytes")
    counter(repro.engine.executor, "value_bytes", "engine.value_bytes")
    # la: builtin kernels and aggregate folds
    for builtin in all_builtins():
        leaf(builtin, "impl", "la.kernel", units=lambda args, result: 1)
        if builtin.batch_impl is not None:
            leaf(
                builtin, "batch_impl", "la.kernel",
                units=lambda args, result: len(args[1]),
            )
    for value in vars(repro.la.aggregates).values():
        if (
            isinstance(value, type)
            and issubclass(value, repro.la.aggregates.Aggregate)
            and "add" in vars(value)
        ):
            leaf(value, "add", "la.kernel", units=lambda args, result: 1)
    # types
    counter(Vector, "__init__", "types.tensor")
    counter(Matrix, "__init__", "types.tensor")
    # storage
    leaf(
        repro.storage.segment, "decode_segment", "storage.decode",
        units=lambda args, result: len(result), span_count="rows_decoded",
    )
    counter(repro.storage.disk, "write_segment_file", "storage.segment_write")
    span(WriteAheadLog, "append", "storage.wal_append")
    # views
    span(
        MaterializedView, "fold_new_rows", "views.fold",
        on_result=lambda folded: tracer.count("views.rows_folded", folded),
    )
    # catalog statistics, as Database calls them
    span(repro.db, "append_stats", "catalog.stats")
    span(repro.db, "collect_stats", "catalog.stats")
    # recovery
    span(repro.storage.wal, "recover_database", "recover.replay")


def install_server(tracer: Tracer) -> None:
    """The network layer's entry points (server process only)."""
    import repro.server.app
    from repro.server.app import Server

    tracer.wrap_span(Server, "_query", "server.query")
    tracer.wrap_span(Server, "_fetch", "server.fetch")
    tracer.wrap_span(Server, "_render", "server.encode")
    tracer.wrap_span(repro.server.app, "encode_rows", "server.encode")
    tracer.wrap_span(repro.server.app, "decode_params", "server.encode")




def _total(summary, name: str, key: str = "total_ms") -> float:
    return float(summary.get(name, {}).get(key, 0.0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: Dict[str, Dict[str, float]], ctx: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a summary and the workload's
    own context: ``ops`` (timed operations in the traced pass), ``reads``,
    ``appended_rows``, plus whatever client-side figures it measured.
    A layer the workload does not exercise reports 0."""
    ops = ctx["ops"]

    def per_op(*names: str, key: str = "total_ms") -> float:
        return _ratio(sum(_total(summary, name, key) for name in names), ops)

    def calls(name: str) -> float:
        return _total(summary, name, "calls")

    queries = ctx.get("queries", 0)
    out = {
        "server.outside_service_ms": _ratio(
            ctx.get("client_ms", 0.0) - _total(summary, "service.execute"), queries
        ) if queries else 0.0,
        "server.encode_ms": _ratio(_total(summary, "server.encode"), queries),
        "server.pages_per_query": _ratio(ctx.get("pages", 0), queries),
        "server.shed_total": ctx.get("shed", 0),
        "service.plan_cache_hit_rate": _ratio(
            ctx.get("plan_cache_hits", 0),
            ctx.get("plan_cache_hits", 0) + ctx.get("plan_cache_misses", 0),
        ),
        "service.plan_cache_lookup_ms": per_op("service.plan_cache_lookup"),
        "service.execute_self_ms": per_op("service.execute", key="self_ms"),
        "admission.wait_ms": per_op("admission.wait"),
        "sql.parse_ms": per_op("sql.parse"),
        "sql.parse_calls": calls("sql.parse"),
        "plan.bind_ms": per_op("plan.bind"),
        "plan.optimize_ms": per_op("plan.optimize"),
        "plan.physical_ms": per_op("plan.physical"),
        "plan.annotate_ms": per_op("plan.annotate"),
        "plan.replans_per_read": _ratio(calls("plan.bind"), ctx.get("reads", 0)),
        "engine.run_self_ms": per_op("engine.run", key="self_ms"),
        "engine.value_bytes_calls": calls("count:engine.value_bytes"),
        "engine.sim_seconds": _total(summary, "sum:engine.sim_seconds", "value"),
        "engine.jobs": calls("count:engine.jobs"),
        "engine.operator_rows": calls("count:engine.operator_rows"),
        "la.kernel_ms": per_op("leaf:la.kernel"),
        "la.rows_per_kernel_call": _ratio(
            _total(summary, "leaf:la.kernel", "units"), calls("leaf:la.kernel")
        ),
        "types.tensors_built_per_row": _ratio(
            calls("count:types.tensor"),
            calls("count:engine.leaf_rows") + ctx.get("appended_rows", 0),
        ),
        "storage.segments_decoded": calls("leaf:storage.decode"),
        "storage.segment_decode_ms": per_op("leaf:storage.decode"),
        "storage.segments_written": calls("count:storage.segment_write"),
        "storage.pool_hit_rate": _ratio(
            ctx.get("pool_hits", 0), ctx.get("pool_hits", 0) + ctx.get("pool_misses", 0)
        ),
        "storage.pool_evictions": ctx.get("pool_evictions", 0),
        "storage.wal_append_ms": per_op("storage.wal_append"),
        "storage.wal_bytes_per_user_byte": _ratio(
            ctx.get("wal_bytes", 0), ctx.get("user_bytes", 0)
        ),
        "storage.spill_bytes": ctx.get("spill_bytes", 0),
        "views.fold_ms": per_op("views.fold"),
        "views.rows_decoded_per_row_folded": _ratio(
            _total(summary, "views.fold", "rows_decoded"),
            calls("count:views.rows_folded"),
        ),
        "views.hit_rate": _ratio(
            ctx.get("view_hits", 0), ctx.get("view_hits", 0) + ctx.get("view_misses", 0)
        ),
        "catalog.stats_ms": per_op("catalog.stats"),
        "recover.records_replayed": ctx.get("records_replayed", 0),
        "recover.replay_ms_per_record": _ratio(
            _total(summary, "recover.replay"), ctx.get("records_replayed", 0)
        ),
        "trace.overhead": ctx.get("trace_overhead", 0.0),
        "bench.count_drift": ctx.get("count_drift", 0),
    }
    for query in LA_QUERIES:
        numpy_ms = ctx.get(f"numpy_ms.{query}", 0.0)
        out[f"ref.numpy_ms.{query}"] = numpy_ms
        out[f"ref.engine_over_numpy.{query}"] = _ratio(
            ctx.get(f"engine_ms.{query}", 0.0), numpy_ms
        )
    return out
