"""Names and units of every metric the benchmark reports.

``END_TO_END`` is what a run with ``--trace 0`` prints, ``PER_LAYER``
what a run with ``--trace 1`` prints; ``BENCHMARK.json`` lists the same
names.  Every workload reports every name.  A per-layer metric of a
layer the workload leaves idle (the server layers on the batch
workloads, the in-process engine layers on serve-churn, whose engine
runs inside the server process) reads 0.
"""

END_TO_END = {
    "setup_s": "s",
    "eval_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
}

PER_LAYER = {
    # front end, timed around parse_rules / check_program / stratify
    "parser.parse_s": "s",
    "program.check_s": "s",
    "program.stratify_s": "s",
    # EDB ingest: building the Database from canonical atoms
    "engine.ingest_s": "s",
    "engine.ingest_rows_per_s": "rows/s",
    "terms.id_table_growth": "count",
    # fixpoint: evaluate_component calls, split by the MetricsCollector
    "engine.fixpoint_s": "s",
    "engine.fixpoint_self_s": "s",
    "engine.match_s": "s",
    "engine.plan_s": "s",
    "engine.grouping_s": "s",
    "engine.decode_s": "s",
    # attribution: wall = sum of self times + unattributed
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_eval_s": "s",
    "trace.overhead_ops_per_s": "ops/s",
    # work counters, exact for a given seed
    "engine.facts": "count",
    "engine.iterations": "count",
    "engine.rule_firings": "count",
    "exec.kernel_calls": "count",
    "exec.kernel_rows": "count",
    "exec.batch_bindings": "count",
    "exec.plans_built": "count",
    # serving tier
    "server.handler_ms": "ms",
    "server.wire_ms": "ms",
    "server.rss_mb": "MB",
    "cache.hit_rate": "ratio",
    "cache.hit_ms": "ms",
    "cache.miss_ms": "ms",
    "cache.invalidated_per_update": "count",
    "maintain.delta_updates": "count",
    "maintain.recompute_updates": "count",
    "maintain.count_adjusted_per_update": "count",
    "maintain.rederived_per_overdeleted": "ratio",
    "storage.restore_s": "s",
    "storage.wal_records_replayed": "count",
    "storage.wal_bytes_per_update": "bytes",
    # client-observed latencies and failures of the serving loop
    "client.query_p50_ms": "ms",
    "client.query_p99_ms": "ms",
    "client.update_p50_ms": "ms",
    "client.update_p99_ms": "ms",
    "error_rate": "ratio",
}


#: per-layer metrics of the serving tier: idle on the batch workloads
SERVING = tuple(
    name for name in PER_LAYER
    if name.split(".")[0] in ("server", "cache", "maintain", "storage", "client")
)

#: per-layer metrics measured inside the evaluating process: on
#: serve-churn that process is the server, which is not traced
IN_PROCESS = tuple(
    name for name in PER_LAYER
    if name.split(".")[0] in ("parser", "program", "engine", "terms", "exec")
)


def render(values: dict, units: dict) -> dict:
    """The ``metrics`` object of the result line: every name, with unit.

    A name without a value is a bug in the benchmark, not a zero.
    """
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
