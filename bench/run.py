#!/usr/bin/env python3
"""lcoai benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload portfolio --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop with one client (one process, one thread). A
request is an in-process call of ``lcoai.cli_report.main(argv)`` with stdout
captured, or a library call for a feature the CLI lacks (tornado). The client
runs the workload's fixed request stream in passes, checks every output
against the oracle, and measures whole passes until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the spans and the tracing overhead.
Console lines name every metric with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A results
file with provenance (and, when traced, the spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_EVERY_S = 1.5  # cold starts are spread over the run, one per interval
SETUP_MIN_STARTS = 5
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
MAX_SPANS = 1_000_000  # keeps the traced run's span arrays under ~40 MiB


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcoai" / "__init__.py").is_file():
        print(f"error: no lcoai sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, timeout=900)
        worst = max(worst, child.returncode)
    return worst


# ---------------------------------------------------------------------------
# the client

class Client:
    """Sends requests in process and captures what they print."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import lcoai
        import lcoai.cli_report
        self.lcoai = lcoai
        self.cli = lcoai.cli_report

    def execute(self, request):
        """Returns (exit code, output); a raised exception gives (None, traceback)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if request.argv is not None:
                    code = self.cli.main(list(request.argv))
                    return code, out.getvalue()
                return 0, workloads.run_library(self.lcoai, request.library)
        except Exception:  # a crash counts as a failed request; keep the loop going
            return None, traceback.format_exc()


def correct(request, code, output) -> bool:
    if code != 0:
        return False
    if request.confirm is not None:
        return request.confirm(output)
    return output == request.expected


class Loop:
    """Runs whole passes of the request stream and keeps every sample."""

    def __init__(self, client, workload):
        self.client = client
        self.workload = workload
        self.attempted = 0
        self.failures: list = []
        self.request_id = 0

    def run_pass(self, tracer=None, between=None):
        """One pass; returns (wall ns, [(position, request, latency ns)]).
        Outputs are checked after the pass so that checking is not timed.
        ``between`` runs before each request, outside its latency."""
        results = []
        pass_start = time.perf_counter_ns()
        for request in self.workload.requests:
            if between is not None:
                between()
            t0 = time.perf_counter_ns()
            if tracer is None:
                code, output = self.client.execute(request)
            else:
                with tracer.span(f"request.{request.kind}", self.request_id):
                    code, output = self.client.execute(request)
            results.append((request, time.perf_counter_ns() - t0, code, output))
            self.request_id += 1
        wall = time.perf_counter_ns() - pass_start
        for request, _, code, output in results:
            self.attempted += 1
            if not correct(request, code, output):
                self.failures.append((request, code, output))
        return wall, [(i, request, ns) for i, (request, ns, _, _) in enumerate(results)]

    def measure(self, seconds: float, between=None):
        """Whole passes until ``seconds`` have passed (at least one)."""
        walls, samples = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, pass_samples = self.run_pass(between=between)
            walls.append(wall)
            samples.extend(pass_samples)
        return walls, samples

    def measure_traced(self, seconds: float, tracer):
        """Untraced and traced passes in turn, so that both see the same
        machine; returns the wall times of each."""
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start < seconds and not tracer.full):
            untraced.append(self.run_pass()[0])
            undo = tracing.install(tracer)
            try:
                traced.append(self.run_pass(tracer)[0])
            finally:
                tracing.uninstall(undo)
        return untraced, traced


# ---------------------------------------------------------------------------
# measurements

class SetupTimer:
    """Cold starts in fresh interpreters: import lcoai and load the input once.

    The host's speed changes in phases of seconds, so the starts are spread
    over the run, at most one every SETUP_EVERY_S, rather than made back to
    back in whatever phase the run begins.
    """

    def __init__(self, workload):
        kind, path = workload.setup_input
        probe = Path(__file__).resolve().parent / "setup_probe.py"
        self.argv = [sys.executable, str(probe), kind, path]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list = []
        self.last = None

    def start(self) -> None:
        child = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True,
                               text=True, timeout=120, check=True)
        self.times.append(float(child.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def when_due(self) -> None:
        if self.last is None or time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.start()

    def finish(self) -> list:
        while len(self.times) < SETUP_MIN_STARTS:
            self.start()
        return self.times


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def request_latencies(samples):
    """Each position of the request stream with its slowest repeat and all
    its latencies, in ns: [(request, ns, [ns, ...])].

    On a shared host the CPU speed changes by up to half, in phases from a
    fraction of a second to about a minute. Full speed comes in short,
    irregular stretches, so a request's fastest repeat, and the median of a
    run, depend on how many of them the run caught. The slowest, contended
    speed is bounded and comes in every run, so each request's slowest repeat
    moves least from run to run (see bench/README.md).
    """
    by_position = {}
    for position, request, ns in samples:
        by_position.setdefault(position, (request, []))[1].append(ns)
    return [(request, max(times), times)
            for _, (request, times) in sorted(by_position.items())]


def end_to_end(walls, samples, setup):
    per_request = request_latencies(samples)
    pass_ns = sum(ns for _, ns, _ in per_request)
    tail_ms, tail_pct, beyond = tail([ns / 1e6 for _, _, ns in samples])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_ns / 1e9,
        "req_per_s": len(per_request) / (pass_ns / 1e9),
        "req_p50_ms": statistics.median(ns / 1e6 for _, ns, _ in per_request),
        "req_tail_ms": tail_ms,
        "peak_rss_mib": peak_rss_mib(),
    }
    by_kind = {}
    for request, ns, _ in per_request:
        by_kind.setdefault(request.kind, []).append(ns / 1e6)
    sample_info = {
        "passes": len(walls), "pass_walls_s": [ns / 1e9 for ns in walls],
        "median_pass_wall_s": statistics.median(walls) / 1e9,
        "requests": len(samples), "setup_repeats": len(setup),
        "repetitions_per_request": sorted({len(times) for _, _, times in per_request}),
        "slowest_p50_ms_by_kind": {k: [statistics.median(v), len(v)]
                                   for k, v in sorted(by_kind.items())},
        "req_p50_samples": len(per_request), "req_tail_samples": len(samples),
        "req_tail_percentile": tail_pct, "req_tail_samples_beyond": beyond,
        "latencies_ms_by_position": [[request.kind, [ns / 1e6 for ns in times]]
                                     for request, _, times in per_request],
    }
    return values, sample_info


def workload_metrics(samples, attempted, failed):
    per_request = request_latencies(samples)
    values, counts = {}, {}
    for name, _, _, kinds, _ in metrics.WORKLOAD_METRICS:
        chosen = [(r, ns) for r, ns, _ in per_request if r.kind in kinds]
        if name == "failed_ratio":
            values[name], counts[name] = failed / attempted, attempted
        elif chosen and name.endswith("_p50_ms"):
            values[name] = statistics.median(ns / 1e6 for _, ns in chosen)
            counts[name] = len(chosen)
        elif chosen:
            values[name] = sum(r.units for r, _ in chosen) / (sum(ns for _, ns in chosen) / 1e9)
            counts[name] = len(chosen)
    return values, counts


def per_layer(summary, tracer, untraced_walls, traced_walls, peak_mib):
    calls, total, own = summary["calls"], summary["total_ns"], summary["self_ns"]
    passes = summary["passes"]
    counts, maxima = tracer.counts, tracer.maxima

    def per_pass_ms(*names, self_time=True):
        source = own if self_time else total
        return sum(source[n] for n in names) / 1e6 / passes

    def per_call(name, value):
        return value / calls[name] if calls[name] else 0.0

    derive = ("sensitivity.with_total_volume", "sensitivity.with_opex_rate",
              "sensitivity.with_capex_scaled")
    # means, like every other per-pass figure, so that the self times of a
    # pass add up to its traced wall time
    untraced = statistics.fmean(untraced_walls) / 1e6
    traced = statistics.fmean(traced_walls) / 1e6
    values = {
        "cli.parser_ms": per_call("cli_report.build_parser",
                                  total["cli_report.build_parser"] / 1e6),
        "schema.load_ms": per_call("cli_report.load_scenarios",
                                   total["cli_report.load_scenarios"] / 1e6),
        "schema.scenarios": per_call("cli_report.load_scenarios", counts["schema.scenarios"]),
        "render.ms": per_pass_ms("cli_report.build_comparison_table", tracing.RENDER_METHOD,
                                 "cli_report.sweep_series_csv"),
        "render.bytes": counts["render.bytes"] / passes,
        "decision.compare_self_ms": per_pass_ms("decision.compare"),
        "decision.compare_rows": counts["decision.compare_rows"] / passes,
        "sens.sweep_self_ms": per_pass_ms("sensitivity.sweep"),
        "sens.derive_ms": per_pass_ms(*derive, self_time=False),
        "sens.derive_calls": sum(calls[n] for n in derive) / passes,
        "sens.tornado_ms": per_pass_ms("sensitivity.tornado"),
        "sens.breakeven_self_ms": per_pass_ms("sensitivity.break_even"),
        "sens.breakeven_probes": per_call("sensitivity.break_even",
                                          summary["breakeven_probes"]),
        "core.compute_calls": calls["cost_core.compute_lcoai"] / passes,
        "core.compute_self_us": per_call("cost_core.compute_lcoai",
                                         own["cost_core.compute_lcoai"] / 1e3),
        "core.amortize_ms": per_pass_ms("cost_core.amortize_capex", self_time=False),
        "core.discount_calls": calls["cost_core.discount_factor"] / passes,
        "core.discount_self_ms": per_pass_ms("cost_core.discount_factor"),
        "core.exact_denom_digits": maxima["core.exact_denom_digits"],
        "ingest.lines": counts["ingest.lines"] / passes,
        "ingest.parse_log_self_ms": per_pass_ms("ingest.parse_log"),
        "ingest.rfc3339_calls": calls["ingest.parse_rfc3339"] / passes,
        "ingest.rfc3339_ms": per_pass_ms("ingest.parse_rfc3339", self_time=False),
        "ingest.count_valid_ms": per_pass_ms("ingest.count_valid", self_time=False),
        "ingest.records_held": maxima["ingest.records_held"],
        "ingest.traced_peak_mib": peak_mib,
        "ingest.skipped": counts["ingest.skipped"] / passes,
        "ingest.valid_ratio": (counts["ingest.valid"] / counts["ingest.classified"]
                               if counts["ingest.classified"] else 0.0),
        "layer.request_self_ms": summary["layer_self_ns"]["request"] / 1e6 / passes,
        "trace.self_sum_ms": sum(own.values()) / 1e6 / passes,
        "trace.wall_ms": traced,
        "trace.untraced_wall_ms": untraced,
        "trace.overhead_ms": traced - untraced,
        "trace.spans": sum(calls.values()) / passes,
    }
    for layer in tracing.LAYERS:
        values[f"layer.{layer}_self_ms"] = summary["layer_self_ns"][layer] / 1e6 / passes
    return values


def traced_peak_mib(loop) -> float:
    """tracemalloc peak of the largest ingest request (0 when there is none)."""
    ingests = [r for r in loop.workload.requests if r.kind == "ingest"]
    if not ingests:
        return 0.0
    request = max(ingests, key=lambda r: r.units)
    tracemalloc.start()
    try:
        code, output = loop.client.execute(request)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    loop.attempted += 1
    if not correct(request, code, output):
        loop.failures.append((request, code, output))
    return peak / 2**20


# ---------------------------------------------------------------------------
# provenance and reporting

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workload_sizes": workload.sizes,
    }


def report_failures(failures) -> None:
    for request, code, output in failures[:5]:
        shown = request.argv if request.argv is not None else request.library
        print(f"wrong output: {request.kind} {shown!r} exit={code}\n"
              f"  got: {str(output)[:300]!r}\n  expected: {str(request.expected)[:300]!r}",
              file=sys.stderr)


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")


def run_one(args) -> int:
    name = args.workload
    work_dir = OUT / "inputs" / f"{name}-{args.seed}-{args.scale}"
    workload = workloads.build(name, args.seed, work_dir, args.scale)

    loop = Loop(Client(), workload)
    loop.run_pass()  # warm-up: lazy set-up and first-time checks, not timed
    result = {"workload": name, "trace": args.trace, "provenance": provenance(args, workload)}

    if args.trace == 0:
        timer = SetupTimer(workload)
        walls, samples = loop.measure(args.seconds, between=timer.when_due)
        setup = timer.finish()
        values, sample_info = end_to_end(walls, samples, setup)
        extra, extra_counts = workload_metrics(samples, loop.attempted, len(loop.failures))
        units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.WORKLOAD_METRICS}
        print_metrics(f"{name} seed={args.seed}: {sample_info['passes']} passes, "
                      f"{loop.attempted} requests checked, {len(loop.failures)} wrong",
                      {**values, **extra}, units)
        result.update(samples=dict(sample_info, workload_metric_samples=extra_counts,
                                   setup_seconds=setup),
                      metrics=values, workload_metrics=extra)
        reported = {n: {"value": values[n], "unit": u} for n, u, *_ in metrics.END_TO_END}
    else:
        tracer = tracing.Tracer(MAX_SPANS)
        untraced_walls, traced_walls = loop.measure_traced(args.seconds, tracer)
        peak = traced_peak_mib(loop)
        summary = tracing.summarize(tracer, len(traced_walls))
        values = per_layer(summary, tracer, untraced_walls, traced_walls, peak)
        values = {m[0]: values[m[0]] for m in metrics.PER_LAYER}
        units = {m[0]: m[1] for m in metrics.PER_LAYER}
        print_metrics(f"{name} seed={args.seed} traced: {len(traced_walls)} traced passes, "
                      f"{len(untraced_walls)} untraced, {loop.attempted} requests checked, "
                      f"{len(loop.failures)} wrong", values, units)
        spans_path = OUT / f"spans-{name}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        result.update(samples={"traced_passes": len(traced_walls),
                               "untraced_passes": len(untraced_walls),
                               "spans": len(tracer.start), "spans_file": spans_path.name},
                      per_layer=values,
                      moves={m[0]: {"metric": m[3][0], "workload": m[3][1]}
                             for m in metrics.PER_LAYER})
        reported = {n: {"value": values[n], "unit": u} for n, u, *_ in metrics.PER_LAYER}

    report_failures(loop.failures)
    result["checks"] = {"attempted": loop.attempted, "failed": len(loop.failures)}
    OUT.mkdir(parents=True, exist_ok=True)
    results_path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=2, default=str) + "\n")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
