"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available benchmarks and selectors;
* ``run`` — simulate one (benchmark, selector) pair and print metrics;
* ``regions`` — dump the selected-region inventory of a run;
* ``dot`` — export a benchmark's CFG as Graphviz DOT;
* ``collect`` — record a benchmark's execution to a binary trace file;
* ``replay`` — run a selector over a previously collected trace;
* ``inspect`` — summarize a JSONL event log without re-running;
* ``bench`` — run the pinned perf workloads and write
  ``BENCH_run.json``; ``bench --against REV`` alternates paired runs of
  REV and this checkout, records both sides and scores them in
  host-normalized units (:mod:`repro.bench.regress`; see
  ``docs/performance.md``);
* ``obs report`` — render the merged fleet-telemetry JSON written by
  ``run_grid(telemetry_out=...)`` (see ``docs/observability.md``);
* ``fleet`` — run a (benchmark x selector x seed) grid as one fleet,
  one cell at a time on the fused core (see ``docs/batching.md``);
* ``serve`` — the simulation service: an asyncio HTTP server resolving
  grid-cell requests through the store / single-flight coalescing /
  the job engine (see ``docs/service.md``); ``serve --smoke`` boots a
  throwaway server, checks the cold/warm contract and exits.

``run`` and ``replay`` accept the observability flags
``--trace-events PATH`` (structured JSONL event log),
``--metrics-out PATH`` (Prometheus text metrics) and ``--profile``
(per-phase timing table on stderr); see :mod:`repro.obs`.

The figure-regeneration harness lives one level down:
``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.program.dot import program_to_dot
from repro.selection.registry import SELECTOR_FACTORIES
from repro.system.simulator import Simulator, simulate
from repro.tracing.collector import (
    collect_trace,
    replay_trace_into,
    trace_header,
)
from repro.workloads import benchmark_names, build_benchmark


def _add_common(parser: argparse.ArgumentParser, selector: bool = True) -> None:
    parser.add_argument("benchmark", choices=benchmark_names(),
                        help="synthetic SPECint2000 stand-in")
    if selector:
        parser.add_argument("selector", choices=sorted(SELECTOR_FACTORIES),
                            help="region-selection algorithm")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=1,
                        help="execution seed (default 1)")
    parser.add_argument("--cache-capacity", type=int, default=None,
                        metavar="BYTES",
                        help="bound the code cache (default unbounded)")
    parser.add_argument("--eviction", choices=("flush", "fifo"),
                        default="flush", help="bounded-cache policy")
    parser.add_argument("--reference", action="store_true",
                        help="use the reference state machine "
                             "instead of the fused fast path; results are "
                             "bit-identical (see docs/performance.md)")


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-events", metavar="PATH", default=None,
                        help="write a structured JSONL event log to PATH")
    parser.add_argument("--events-min-severity", default="debug",
                        choices=("debug", "info", "warn", "error"),
                        help="drop events below this severity (default debug)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write Prometheus-format metrics to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase timing table to stderr")


def _config_from(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        cache_capacity_bytes=getattr(args, "cache_capacity", None),
        cache_eviction_policy=getattr(args, "eviction", "flush"),
    )


def _observer_from(args: argparse.Namespace):
    """Build an Observer from the observability flags (None when off)."""
    trace_events = getattr(args, "trace_events", None)
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", False)
    if not (trace_events or metrics_out or profile):
        return None
    from repro.obs import JsonlSink, MetricsRegistry, Observer, SpanTimer

    sink = None
    if trace_events:
        sink = JsonlSink(
            trace_events,
            min_severity=getattr(args, "events_min_severity", "debug"),
        )
    return Observer(
        metrics=MetricsRegistry() if metrics_out else None,
        sink=sink,
        profiler=SpanTimer() if profile else None,
    )


def _finish_observer(observer, args: argparse.Namespace) -> None:
    """Write metrics / profile output and close the event sink."""
    if observer is None:
        return
    observer.close()
    metrics_out = getattr(args, "metrics_out", None)
    if observer.metrics is not None and metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(observer.metrics.to_prometheus())
    trace_events = getattr(args, "trace_events", None)
    if trace_events:
        print(f"event log written to {trace_events}", file=sys.stderr)
    if observer.profiler is not None:
        print(observer.profiler.format_table(), file=sys.stderr)


def _print_result(result) -> None:
    """Print a run's metric report, plus its eviction counts when the
    bounded cache evicted."""
    report = MetricReport.from_result(result)
    rows = [
        ("hit rate", f"{100 * report.hit_rate:.2f}%"),
        ("regions selected", report.region_count),
        ("code expansion (insts)", report.code_expansion),
        ("exit stubs", report.exit_stubs),
        ("region transitions", report.region_transitions),
        ("90% cover set", report.cover_set_90),
        ("spanned cycle ratio", f"{report.spanned_cycle_ratio:.3f}"),
        ("executed cycle ratio", f"{report.executed_cycle_ratio:.3f}"),
        ("peak counters", report.peak_counters),
        ("exit-dominated regions", report.exit_dominated_regions),
        ("cache size estimate (B)", report.cache_size_estimate),
        ("instructions executed", report.total_instructions),
    ]
    if result.cache_evictions:
        rows += [("cache evictions", result.cache_evictions),
                 ("regenerated regions", result.regenerated_regions)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")


def cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks:", " ".join(benchmark_names()))
    print("selectors: ", " ".join(sorted(SELECTOR_FACTORIES)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = build_benchmark(args.benchmark, scale=args.scale)
    observer = _observer_from(args)
    try:
        result = simulate(program, args.selector, _config_from(args),
                          seed=args.seed, observer=observer,
                          fast=not args.reference)
    finally:
        _finish_observer(observer, args)
    print(f"{args.benchmark} / {args.selector} (scale {args.scale}, "
          f"seed {args.seed})")
    _print_result(result)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import format_summary, load_events, summarize_events

    try:
        # load_events streams lazily, so the missing-file error only
        # surfaces once summarization starts consuming it.
        summary = summarize_events(load_events(args.events))
    except (FileNotFoundError, IsADirectoryError):
        print(f"error: no event log at {args.events!r} (write one with "
              f"`repro run ... --trace-events PATH`)", file=sys.stderr)
        return 2
    print(format_summary(summary))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the pinned workloads and record the run; with
    ``--against REV``, record paired runs of REV and this checkout and
    score them.

    ``--check`` without ``--against``, and a REV that cannot be checked
    out or run, exit 2 with a one-line ``error:`` message; ``--check``
    exits 1 when any workload's verdict is ``regression``.
    """
    from repro.bench import (
        analyze_pairs,
        format_analysis,
        format_bench_table,
        run_bench,
        run_pairs,
        write_bench_run,
    )
    from repro.errors import ConfigError

    try:
        if args.against is None:
            if args.check:
                raise ConfigError("--check needs --against REV: the "
                                  "gate scores paired runs")
            record = run_bench(quick=args.quick, repeats=args.repeats)
            print(format_bench_table(record))
        else:
            record = run_pairs(args.against, quick=args.quick,
                               repeats=args.repeats)
        path = write_bench_run(record, args.out)
        print(f"bench record written to {path}", file=sys.stderr)
        if args.against is None:
            return 0
        analysis = analyze_pairs(record)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_analysis(analysis, markdown=args.markdown))
    return 1 if args.check and analysis["verdict"] == "regression" else 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.report import format_telemetry_report
    from repro.obs.telemetry import load_telemetry

    try:
        doc = load_telemetry(args.telemetry)
    except (FileNotFoundError, IsADirectoryError):
        print(f"error: no telemetry document at {args.telemetry!r} "
              f"(write one with run_grid(telemetry_out=...))",
              file=sys.stderr)
        return 2
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    analysis = None
    if args.bench is not None:
        from repro.bench import analyze_pairs, load_record
        from repro.errors import ConfigError

        try:
            analysis = analyze_pairs(load_record(args.bench))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(format_telemetry_report(doc, analysis=analysis,
                                  markdown=args.markdown))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the grid server (or its smoke check).

    Startup failures — port already bound, store root that is not a
    directory — exit 2 with a one-line ``error:`` message, matching the
    ``repro inspect`` / ``repro bench --check`` convention.
    """
    import asyncio

    from repro.errors import ServeError, StoreError
    from repro.obs import JsonlSink, MetricsRegistry, Observer
    from repro.serve import GridServer, SimulationService, run_smoke
    from repro.store import ResultStore

    # --store/--port default to None so smoke mode can tell "explicit"
    # from "unset": unset means a throwaway store and an ephemeral port.
    store_root = args.store if args.store is not None else ".repro-store"
    port = args.port if args.port is not None else 8765

    if args.smoke:
        try:
            record = run_smoke(
                store_root=args.store,
                host=args.host,
                port=args.port if args.port is not None else 0,
                latency_out=args.latency_out,
            )
        except (ServeError, StoreError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"smoke ok: cold {record['cold_ms']:.1f} ms, warm p50 "
              f"{record['warm_p50_ms']:.2f} ms "
              f"({record['warm_speedup']}x), 1 job launched")
        if args.latency_out:
            print(f"latency report written to {args.latency_out}",
                  file=sys.stderr)
        return 0

    sink = None
    if args.trace_events:
        sink = JsonlSink(args.trace_events)
    observer = Observer(metrics=MetricsRegistry(), sink=sink)

    async def _serve() -> None:
        store = ResultStore(store_root, observer=observer,
                            shard_width=args.shard_width,
                            max_bytes=args.store_max_bytes)
        service = SimulationService(
            store,
            workers=args.workers,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
            observer=observer,
            code_version=args.code_version,
        )
        server = GridServer(service, host=args.host, port=port,
                            observer=observer)
        await server.start()
        print(f"serving on http://{server.host}:{server.port} "
              f"(store: {store_root}, workers: {args.workers})",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        return 0
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    except (StoreError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        observer.close()
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: run a (benchmark x selector x seed) grid as one
    fleet.

    The cells run one at a time on the fused core — the CLI face of
    :func:`repro.batch.run_fleet`.  Reports aggregate throughput plus a
    per-cell metric line; every cell's numbers are bit-identical to
    what ``repro run`` prints for it.
    """
    from repro.batch import BatchCell, run_fleet

    benchmarks = (args.benchmarks.split(",") if args.benchmarks
                  else list(benchmark_names()))
    selectors = (args.selectors.split(",") if args.selectors
                 else ["net", "lei"])
    cells = [
        BatchCell(bench, selector, scale=args.scale, seed=seed)
        for bench in benchmarks
        for selector in selectors
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    try:
        fleet = run_fleet(cells, config=_config_from(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{fleet.lanes} cells: {fleet.steps:,} events in "
          f"{fleet.wall_seconds:.2f}s "
          f"({fleet.events_per_second:,.0f} events/s)")
    print(f"{'benchmark':<22s} {'selector':<14s} {'seed':>4s} "
          f"{'hit%':>7s} {'regions':>8s} {'transitions':>12s}")
    for cell in cells:
        report = fleet.reports[cell]
        print(f"{cell.benchmark:<22s} {cell.selector:<14s} "
              f"{cell.seed:>4d} {100 * report.hit_rate:>7.2f} "
              f"{report.region_count:>8d} "
              f"{report.region_transitions:>12d}")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    program = build_benchmark(args.benchmark, scale=args.scale)
    result = simulate(program, args.selector, _config_from(args),
                      seed=args.seed, fast=not args.reference)
    print(f"{result.region_count} regions selected "
          f"({args.benchmark} / {args.selector}):")
    for region in result.regions:
        labels = " ".join(block.label for block in region.block_list)
        flags = []
        if region.spans_cycle:
            flags.append("cycle")
        if region.kind == "cfg":
            flags.append("multipath")
        flag_text = f" [{','.join(flags)}]" if flags else ""
        print(f"  #{region.selection_order:<4d} {region.entry.full_label:30s} "
              f"insts={region.instruction_count:<4d} "
              f"stubs={region.exit_stub_count:<3d} "
              f"executed={region.executed_instructions:<9d}{flag_text}")
        print(f"        {labels}")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    program = build_benchmark(args.benchmark, scale=args.scale)
    print(program_to_dot(program, title=args.benchmark))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_runs

    program = build_benchmark(args.benchmark, scale=args.scale)
    config = _config_from(args)
    subject = simulate(program, args.selector, config, seed=args.seed,
                       fast=not args.reference)
    baseline = simulate(program, args.baseline, config, seed=args.seed,
                        fast=not args.reference)
    for line in compare_runs(subject, baseline).summary_lines():
        print(line)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import (
        first_hot_window,
        phase_shifts,
        window_rates,
    )

    program = build_benchmark(args.benchmark, scale=args.scale)
    try:
        result = simulate(program, args.selector, _config_from(args),
                          seed=args.seed, sample_every=args.window,
                          fast=not args.reference)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.benchmark} / {args.selector}: windowed hit rates "
          f"(window = {args.window} steps)")
    print(f"{'steps':>18s} {'hit%':>7s} {'insts':>9s} {'new regions':>12s} "
          f"{'transitions':>12s}")
    for rate in window_rates(result.samples):
        print(f"{rate.start_step:8d}-{rate.end_step:<9d} "
              f"{100 * rate.hit_rate:7.2f} {rate.instructions:9d} "
              f"{rate.regions_selected:12d} {rate.region_transitions:12d}")
    warm = first_hot_window(result.samples)
    print(f"first window at >=95% hit rate ends at step: "
          f"{warm if warm is not None else 'never'}")
    shifts = phase_shifts(result.samples)
    print(f"phase shifts: {len(shifts)}")
    for shift in shifts:
        print(f"  step {shift.step:<9d} {shift.signal:<10s} {shift.move}")
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    from repro.analysis.layout import layout_map, page_crossing_fraction

    program = build_benchmark(args.benchmark, scale=args.scale)
    result = simulate(program, args.selector, _config_from(args),
                      seed=args.seed, fast=not args.reference)
    print(layout_map(result))
    print(f"linked pairs crossing a 4 KiB page: "
          f"{100 * page_crossing_fraction(result):.1f}%")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    """``repro collect``; an unwritable output path exits 2 with a
    one-line ``error:`` message, like ``repro inspect``."""
    program = build_benchmark(args.benchmark, scale=args.scale)
    engine = ExecutionEngine(program, seed=args.seed)
    try:
        steps = collect_trace(engine, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"collected {steps} steps of {args.benchmark!r} into {args.output}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``; a missing, unreadable or malformed trace exits
    2 with a one-line ``error:`` message, like ``repro inspect``."""
    from repro.errors import TraceFormatError

    try:
        header = trace_header(args.trace)
        program = build_benchmark(header.program_name, scale=args.scale)
        observer = _observer_from(args)
        simulator = Simulator(program, args.selector, _config_from(args),
                              observer=observer)
        try:
            result = simulator.run_push(
                lambda consume: replay_trace_into(args.trace, program, consume)
            )
        finally:
            _finish_observer(observer, args)
    except (TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {header.program_name!r} through {args.selector}")
    _print_result(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Region-selection reproduction toolkit (MICRO 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and selectors").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="simulate and print metrics")
    _add_common(run)
    _add_obs(run)
    run.set_defaults(func=cmd_run)

    inspect = sub.add_parser(
        "inspect", help="summarize a JSONL event log (no simulation)")
    inspect.add_argument("events",
                         help="event log written by `repro run --trace-events`")
    inspect.set_defaults(func=cmd_inspect)

    bench = sub.add_parser(
        "bench", help="run the pinned perf workloads and record the run")
    bench.add_argument("--quick", action="store_true",
                       help="reduced-scale smoke variant (CI)")
    bench.add_argument("--out", metavar="PATH", default="BENCH_run.json",
                       help="where to write the record (default "
                            "BENCH_run.json)")
    bench.add_argument("--against", metavar="REV", default=None,
                       help="alternate paired runs of git revision REV "
                            "and this checkout, record both sides and "
                            "score the median pair")
    bench.add_argument("--check", action="store_true",
                       help="with --against: exit 1 if any workload's "
                            "median pair fell 15%% or more below REV")
    bench.add_argument("--repeats", type=int, default=5, metavar="N",
                       help="passes per workload in every run; the "
                            "median normalized pass is recorded "
                            "(default: 5)")
    bench.add_argument("--markdown", action="store_true",
                       help="emit the verdicts as Markdown")
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve", help="serve grid-cell simulations over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8765; --smoke defaults to "
                            "an ephemeral port)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="result-store root (default .repro-store; "
                            "--smoke defaults to a throwaway directory)")
    serve.add_argument("--workers", type=int, default=2,
                       help="max concurrent job-engine workers (default 2)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job timeout for cold cells (default none)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="per-job retry budget (default 2)")
    serve.add_argument("--store-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="byte budget enforced by store GC "
                            "(default unbounded)")
    serve.add_argument("--shard-width", type=int, default=2,
                       help="digest chars naming a store shard directory "
                            "(default 2 = 256 shards)")
    serve.add_argument("--code-version", default=None,
                       help="pin the store address component that normally "
                            "tracks the git SHA")
    serve.add_argument("--trace-events", metavar="PATH", default=None,
                       help="write a structured JSONL event log to PATH")
    serve.add_argument("--smoke", action="store_true",
                       help="boot a throwaway server, check the cold/warm "
                            "contract (one job, warm from store), exit")
    serve.add_argument("--latency-out", metavar="PATH", default=None,
                       help="with --smoke: write the latency report JSON")
    serve.set_defaults(func=cmd_serve)

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a merged fleet-telemetry JSON document")
    obs_report.add_argument(
        "telemetry",
        help="document written by run_grid(telemetry_out=...)")
    obs_report.add_argument(
        "--bench", metavar="PATH", default=None,
        help="also include the verdicts of this paired bench record "
             "(`repro bench --against REV`)")
    obs_report.add_argument("--markdown", action="store_true",
                            help="emit the report as Markdown")
    obs_report.set_defaults(func=cmd_obs_report)

    fleet = sub.add_parser(
        "fleet", help="run a (benchmark x selector x seed) grid as one "
                      "fleet")
    fleet.add_argument("--benchmarks", default=None, metavar="CSV",
                       help="comma-separated benchmarks (accepts "
                            "micro:<motif>; default: all SPEC stand-ins)")
    fleet.add_argument("--selectors", default=None, metavar="CSV",
                       help="comma-separated selectors (default net,lei)")
    fleet.add_argument("--scale", type=float, default=0.1,
                       help="workload scale factor (default 0.1)")
    fleet.add_argument("--seed", type=int, default=1,
                       help="first execution seed (default 1)")
    fleet.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="seeds per (benchmark, selector) pair, "
                            "counting up from --seed (default 1)")
    fleet.add_argument("--cache-capacity", type=int, default=None,
                       metavar="BYTES",
                       help="bound every cell's code cache "
                            "(default unbounded)")
    fleet.add_argument("--eviction", choices=("flush", "fifo"),
                       default="flush", help="bounded-cache policy")
    fleet.set_defaults(func=cmd_fleet)

    regions = sub.add_parser("regions", help="dump the selected regions")
    _add_common(regions)
    regions.set_defaults(func=cmd_regions)

    dot = sub.add_parser("dot", help="export a benchmark CFG as DOT")
    _add_common(dot, selector=False)
    dot.set_defaults(func=cmd_dot)

    layout = sub.add_parser("layout", help="code-cache layout map")
    _add_common(layout)
    layout.set_defaults(func=cmd_layout)

    compare = sub.add_parser("compare", help="compare two selectors on a benchmark")
    _add_common(compare)
    compare.add_argument("baseline", choices=sorted(SELECTOR_FACTORIES),
                         help="selector to divide by")
    compare.set_defaults(func=cmd_compare)

    timeline = sub.add_parser("timeline", help="windowed hit-rate timeline")
    _add_common(timeline)
    timeline.add_argument("--window", type=int, default=20_000,
                          help="steps per timeline window (default 20000)")
    timeline.set_defaults(func=cmd_timeline)

    collect = sub.add_parser("collect", help="record a binary trace")
    _add_common(collect, selector=False)
    collect.add_argument("--output", "-o", required=True,
                         help="trace file to write (.rtrc)")
    collect.set_defaults(func=cmd_collect)

    replay = sub.add_parser("replay", help="simulate over a recorded trace")
    replay.add_argument("trace", help="trace file written by `repro collect`")
    replay.add_argument("selector", choices=sorted(SELECTOR_FACTORIES))
    replay.add_argument("--scale", type=float, default=1.0,
                        help="scale used when the trace was collected")
    replay.add_argument("--cache-capacity", type=int, default=None)
    replay.add_argument("--eviction", choices=("flush", "fifo"), default="flush")
    _add_obs(replay)
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
