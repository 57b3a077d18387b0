"""Declarations of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json`` exactly (the
smoke test checks this). ``WORKLOAD_METRICS`` are end-to-end metrics that only
some workloads have; they go to the console and the results file but not to the
final result line, which carries the metrics common to every workload.

Each per-layer metric names the end-to-end metric and workload it should move.
"Per pass" means per run of the workload's fixed request stream.
"""

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import of lcoai plus the first load of the workload input; median of the cold "
     "starts spread over the run"),
    ("wall_s", "s", "lower", 0.25,
     "time of one pass: the sum over the request stream of each request's latency, "
     "taken as the slowest of its repeats"),
    ("req_per_s", "1/s", "higher", 0.25, "requests per second of that pass time"),
    ("req_p50_ms", "ms", "lower", 0.25,
     "median over the request stream of each request's slowest repeat"),
    ("req_tail_ms", "ms", "lower", 0.25,
     "highest percentile of all request latencies with at least 10 samples beyond it"),
    ("peak_rss_mib", "MiB", "lower", 0.15, "ru_maxrss of the workload's process"),
)

# name, unit, better, request kinds, meaning
WORKLOAD_METRICS = (
    ("compute_p50_ms", "ms", "lower", ("compute",),
     "median slowest repeat of the compute requests"),
    ("breakeven_p50_ms", "ms", "lower", ("breakeven",),
     "median slowest repeat of the breakeven requests"),
    ("eval_points_per_s", "1/s", "higher", ("sweep", "tornado"),
     "sweep and tornado output points per second of those requests' slowest repeats"),
    ("table_rows_per_s", "1/s", "higher", ("table",),
     "table rows per second of the table requests' slowest repeats"),
    ("ingest_lines_per_s", "1/s", "higher", ("ingest",),
     "log lines per second of the ingest requests' slowest repeats"),
    ("failed_ratio", "ratio", "lower", (),
     "requests with a wrong output or exit code over requests attempted"),
)

# name, unit, better, (end-to-end metric, workload) it should move, meaning
PER_LAYER = (
    # cli_report
    ("cli.parser_ms", "ms/call", "lower", ("req_p50_ms", "portfolio"),
     "build_parser time per call"),
    ("schema.load_ms", "ms/call", "lower", ("setup_s", "portfolio"),
     "load_scenarios time per call; also moves req_p50_ms on portfolio"),
    ("schema.scenarios", "count/call", "higher", ("setup_s", "portfolio"),
     "scenarios returned per load_scenarios call"),
    ("render.ms", "ms/pass", "lower", ("table_rows_per_s", "portfolio"),
     "self time of build_comparison_table, ReportTable.render and sweep_series_csv; "
     "also moves eval_points_per_s on horizon-sweeps"),
    ("render.bytes", "bytes/pass", "higher", ("table_rows_per_s", "portfolio"),
     "bytes rendered by tables and sweep series"),
    # decision
    ("decision.compare_self_ms", "ms/pass", "lower", ("table_rows_per_s", "portfolio"),
     "compare self time, including the duplicate-name scan"),
    ("decision.compare_rows", "count/pass", "higher", ("table_rows_per_s", "portfolio"),
     "rows ranked by compare"),
    # sensitivity
    ("sens.sweep_self_ms", "ms/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "sweep self time"),
    ("sens.derive_ms", "ms/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "time in with_total_volume, with_opex_rate and with_capex_scaled"),
    ("sens.derive_calls", "count/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "calls of the with_* derivations"),
    ("sens.tornado_ms", "ms/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "tornado self time"),
    ("sens.breakeven_self_ms", "ms/pass", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "break_even self time (bisection control)"),
    ("sens.breakeven_probes", "count/call", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "compute_lcoai calls per break_even solve"),
    # cost_core
    ("core.compute_calls", "count/pass", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "compute_lcoai calls; also moves eval_points_per_s"),
    ("core.compute_self_us", "us/call", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "compute_lcoai self time per call; also moves breakeven_p50_ms"),
    ("core.amortize_ms", "ms/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "amortize_capex time"),
    ("core.discount_calls", "count/pass", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "discount_factor calls"),
    ("core.discount_self_ms", "ms/pass", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "discount_factor self time; also moves eval_points_per_s"),
    ("core.exact_denom_digits", "digits", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "largest exact per-inference denominator, in decimal digits"),
    # ingest
    ("ingest.lines", "count/pass", "higher", ("ingest_lines_per_s", "telemetry"),
     "lines read by parse_log"),
    ("ingest.parse_log_self_ms", "ms/pass", "lower", ("ingest_lines_per_s", "telemetry"),
     "parse_log self time (decode, JSON, enums, records)"),
    ("ingest.rfc3339_calls", "count/pass", "lower", ("ingest_lines_per_s", "telemetry"),
     "parse_rfc3339 calls"),
    ("ingest.rfc3339_ms", "ms/pass", "lower", ("ingest_lines_per_s", "telemetry"),
     "parse_rfc3339 time"),
    ("ingest.count_valid_ms", "ms/pass", "lower", ("ingest_lines_per_s", "telemetry"),
     "count_valid time"),
    ("ingest.records_held", "count", "lower", ("peak_rss_mib", "telemetry"),
     "most records held by one parse result"),
    ("ingest.traced_peak_mib", "MiB", "lower", ("peak_rss_mib", "telemetry"),
     "tracemalloc peak of the largest ingest request"),
    ("ingest.skipped", "count/pass", "lower", ("peak_rss_mib", "telemetry"),
     "malformed lines skipped in lenient mode"),
    ("ingest.valid_ratio", "ratio", "higher", ("peak_rss_mib", "telemetry"),
     "valid records over records classified by count_valid"),
    # self time per module, and the tracing overhead
    ("layer.request_self_ms", "ms/pass", "lower", ("req_p50_ms", "portfolio"),
     "request time outside every traced function: argparse parsing, handlers, output"),
    ("layer.cli_report_self_ms", "ms/pass", "lower", ("req_p50_ms", "portfolio"),
     "self time of cli_report's traced functions"),
    ("layer.decision_self_ms", "ms/pass", "lower", ("table_rows_per_s", "portfolio"),
     "self time of decision's traced functions"),
    ("layer.sensitivity_self_ms", "ms/pass", "lower", ("eval_points_per_s", "horizon-sweeps"),
     "self time of sensitivity's traced functions"),
    ("layer.cost_core_self_ms", "ms/pass", "lower", ("breakeven_p50_ms", "horizon-sweeps"),
     "self time of cost_core's traced functions"),
    ("layer.ingest_self_ms", "ms/pass", "lower", ("ingest_lines_per_s", "telemetry"),
     "self time of ingest's traced functions"),
    ("trace.self_sum_ms", "ms/pass", "lower", ("wall_s", "portfolio"),
     "sum of all self times in the traced run (every workload)"),
    ("trace.wall_ms", "ms/pass", "lower", ("wall_s", "portfolio"),
     "wall time of a traced pass (every workload)"),
    ("trace.untraced_wall_ms", "ms/pass", "lower", ("wall_s", "portfolio"),
     "wall time of an untraced pass in the same run (every workload)"),
    ("trace.overhead_ms", "ms/pass", "lower", ("wall_s", "portfolio"),
     "traced minus untraced wall time of a pass (every workload)"),
    ("trace.spans", "count/pass", "lower", ("wall_s", "portfolio"),
     "spans recorded (every workload)"),
)
