"""The three sweep workloads: grid-serial, grid-fleet, trace-replay.

An operation is one cell (one replay on trace-replay).  Its latency is
the time from the start of the library call that computes it until the
program reports that cell done, so every cell's latency is a
measurement of its own: one ``run_grid`` call per (simulation seed,
benchmark) and the cell's ``job_completed`` event, one ``run_fleet``
call per simulation seed and the cell's ``fleet_lane_finished`` event,
one ``run_push`` replay and its return.  The events reach a
``CollectingSink``; both calls emit them once per cell at batch
granularity, never per simulation step.  The untraced run calls exactly
the program's entry points; the traced run calls the same layers one at
a time with a span around each call.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Optional, Tuple

import inputs
from common import WORK, HostSpeed, Outcome, Spans, percentile, tail_rank
from oracle import Oracle, Spec

perf = time.perf_counter


def _noop(block, taken, target) -> None:
    return None


def settle_seconds(sink, kind: str, started: float) -> Dict[tuple, float]:
    """Seconds from ``started`` (wall clock) to each ``kind`` event in
    ``sink``, keyed by the event's (benchmark, selector) or job id."""
    settled = {}
    for event in sink.events:
        if event.kind == kind:
            fields = event.payload
            key = (fields["job_id"] if "job_id" in fields
                   else (fields["benchmark"], fields["selector"]))
            settled[key] = event.ts - started
    return settled


def check_names() -> None:
    """The benchmark's cell lists must name the program's grid."""
    from repro.selection.registry import SELECTOR_NAMES
    from repro.workloads import benchmark_names

    if tuple(benchmark_names()) != inputs.SPEC:
        raise RuntimeError(f"SPEC stand-ins changed: {benchmark_names()}")
    missing = set(inputs.SELECTORS) - set(SELECTOR_NAMES)
    if missing:
        raise RuntimeError(f"selectors missing: {sorted(missing)}")


class Sweep:
    """Shared timed loop: whole operations until ``seconds`` of them."""

    name = ""

    def __init__(self, seed: int, oracle: Oracle) -> None:
        self.seed = seed
        self.oracle = oracle
        self.seeds = inputs.grid_seeds(seed)
        #: (spec, MetricReport) of every operation, checked after timing.
        self.outputs: List[Tuple[Spec, object]] = []
        self.latencies: List[float] = []
        self.scaled_latencies: List[float] = []
        self.instructions = 0
        self.details: Dict[str, object] = {}

    def specs_before(self) -> List[Spec]:
        """Oracle entries the inputs are derived from (none by default)."""
        return []

    def setup(self, spans: Optional[Spans] = None) -> None:
        check_names()

    def teardown(self) -> None:
        pass

    def batches(self):
        """One callable per operation batch, in run order."""
        raise NotImplementedError

    def timed(self, ops, out: Outcome, host: HostSpeed,
              seconds: Optional[float] = None) -> Tuple[float, float]:
        """Run ``ops`` round robin until they took ``seconds`` (one pass
        when None), probing the host before and after each one.

        Returns the seconds the operations took, raw and host-scaled
        (each operation divided by the mean factor of its two probes);
        cell latencies are scaled the same way.
        """
        busy = scaled = 0.0
        done = 0
        before = host.sample()
        while done < len(ops) if seconds is None else busy < seconds:
            first = len(self.latencies)
            started = perf()
            ops[done % len(ops)](out)
            took = perf() - started
            after = host.sample()
            factor = (before + after) / 2
            busy += took
            scaled += took / factor
            self.scaled_latencies += [latency / factor for latency
                                      in self.latencies[first:]]
            before = after
            done += 1
        return busy, scaled

    def run(self, seconds: float, out: Outcome, host: HostSpeed) -> None:
        busy, scaled = self.timed(self.batches(), out, host, seconds)
        cells = len(self.latencies)
        out.put_host("sim_instr_per_s", self.instructions / busy,
                     self.instructions / scaled, "instr/s")
        out.put_host("max_rate_rps", cells / busy, cells / scaled, "req/s")
        rank = tail_rank(cells)
        for name, q in (("p50_ms", 0.5), ("p99_ms", rank)):
            out.put_host(name, percentile(self.latencies, q) * 1000,
                         percentile(self.scaled_latencies, q) * 1000, "ms")
        out.details.update(self.details, busy_s=busy, cells=cells,
                           host_factor=busy / scaled,
                           latency={"samples": cells, "p99_ms_rank": rank})

    def record(self, spec: Spec, report, seconds: float) -> None:
        self.outputs.append((spec, report))
        self.latencies.append(seconds)
        self.instructions += report.total_instructions

    def check(self, out: Outcome) -> None:
        """Compare every operation's report with the oracle's."""
        from repro.analysis.serialize import report_to_dict

        self.oracle.ensure(spec for spec, _ in self.outputs)
        for spec, report in self.outputs:
            if not self.oracle.check(spec, report_to_dict(report)):
                out.fail(1, f"report differs from oracle: "
                            f"{inputs.cell_id(*spec)}")

    # -- traced run ------------------------------------------------------
    def traced(self, seconds: float, out: Outcome, spans: Spans,
               host: HostSpeed) -> None:
        """One untraced pass, then one pass layer by layer under spans;
        the overhead compares their host-scaled instruction rates."""
        _, scaled = self.timed(self.batches(), out, host)
        untraced_rate = self.instructions / scaled
        before_instructions = self.instructions
        before = host.sample()
        busy = self.traced_pass(out, spans)
        factor = (before + host.sample()) / 2
        traced_rate = (self.instructions - before_instructions) * factor / busy
        out.put("trace.overhead_pct",
                (untraced_rate / traced_rate - 1.0) * 100, "%")
        out.details.update(self.details)


class GridSerial(Sweep):
    """The paper's grid through ``run_grid(workers=1)``, one simulation
    seed and one benchmark per call."""

    name = "grid-serial"

    def setup(self, spans: Optional[Spans] = None) -> None:
        from repro.experiments import run_grid  # noqa: F401 (import cost)

        check_names()

    def batches(self):
        from repro.experiments import run_grid
        from repro.obs import CollectingSink, Observer

        def one_call(sim_seed, bench):
            def batch(out: Outcome) -> None:
                cells = len(inputs.SELECTORS)
                out.attempted += cells
                sink = CollectingSink()
                started = time.time()
                try:
                    grid = run_grid(scale=inputs.GRID_SCALE, seed=sim_seed,
                                    benchmarks=(bench,),
                                    selectors=inputs.SELECTORS, workers=1,
                                    observer=Observer(sink=sink))
                except Exception as exc:  # a failed call fails its cells
                    out.fail(cells, f"run_grid {bench} seed {sim_seed}: "
                                    f"{exc!r}")
                    return
                settled = settle_seconds(sink, "job_completed", started)
                for (name, selector), report in grid.reports.items():
                    self.record(((name, selector, inputs.GRID_SCALE,
                                  sim_seed), None), report,
                                settled[f"{name}:{selector}"])
            return batch

        return [one_call(sim_seed, bench) for sim_seed in self.seeds
                for bench in inputs.SPEC]

    def traced_pass(self, out: Outcome, spans: Spans) -> float:
        from repro.execution import ExecutionEngine
        from repro.metrics.summary import MetricReport
        from repro.obs import Observer, SpanTimer
        from repro.system.simulator import simulate
        from repro.workloads import build_benchmark

        timers = []
        results = []
        busy = 0.0
        steps = 0
        for bench, selector, scale, sim_seed in inputs.grid_cells(self.seed):
            cell = (bench, selector, scale, sim_seed)
            op = inputs.cell_id(cell)
            out.attempted += 1
            with spans.span("cell", op) as whole:
                with spans.span("workloads.build"):
                    program = build_benchmark(bench, scale=scale)
                timer = SpanTimer()
                with spans.span("system.simulate"):
                    result = simulate(program, selector, seed=sim_seed,
                                      observer=Observer(profiler=timer))
                with spans.span("metrics.report"):
                    report = MetricReport.from_result(result)
            busy += whole.seconds
            self.outputs.append(((cell, None), report))
            self.instructions += report.total_instructions
            timers.append(timer)
            results.append(result)
            with spans.span("execution.run_into", op):
                steps += ExecutionEngine(program, seed=sim_seed).run_into(
                    _noop)
        put_system(out, timers)
        put_cache(out, results)
        out.put("workloads.build_s", spans.total("workloads.build"), "s")
        out.put("metrics.report_s", spans.total("metrics.report"), "s")
        out.put("execution.events_per_s",
                steps / spans.total("execution.run_into"), "1/s")
        return busy


class GridFleet(Sweep):
    """The same cells as grid-serial through numpy ``run_fleet``, one
    fleet per simulation seed (48 cells over 32 live lanes)."""

    name = "grid-fleet"

    def setup(self, spans: Optional[Spans] = None) -> None:
        check_names()
        try:
            import numpy
        except ImportError:
            raise RuntimeError("numpy is not installed: grid-fleet measures "
                               "the numpy fleet, not the Python fallback")
        from repro.batch import HAVE_NUMPY, BatchCell

        if not HAVE_NUMPY:
            raise RuntimeError("repro.batch did not pick up numpy")
        self.details["numpy"] = numpy.__version__
        self.fleets = [
            [BatchCell(bench, selector, scale=inputs.GRID_SCALE, seed=sim_seed)
             for bench in inputs.SPEC for selector in inputs.SELECTORS]
            for sim_seed in self.seeds]
        if spans is not None:
            from repro.batch import build_fleet_program

            for bench in inputs.SPEC:
                with spans.span("workloads.build", f"program/{bench}"):
                    build_fleet_program(bench, inputs.GRID_SCALE)

    def batches(self):
        return [lambda out, cells=cells: self.fleet(out, cells)
                for cells in self.fleets]

    def fleet(self, out: Outcome, cells):
        """One fleet; returns (FleetResult, its events) or None."""
        from repro.batch import run_fleet
        from repro.obs import CollectingSink, Observer

        out.attempted += len(cells)
        sink = CollectingSink()
        started = time.time()
        try:
            result = run_fleet(cells, backend="numpy",
                               max_lanes=inputs.FLEET_MAX_LANES,
                               observer=Observer(sink=sink))
        except Exception as exc:
            out.fail(len(cells), f"run_fleet: {exc!r}")
            return None
        self.details["fleet_backend"] = result.backend
        if result.backend != "numpy":
            out.fail(len(cells), f"fleet ran on {result.backend}")
            return None
        settled = settle_seconds(sink, "fleet_lane_finished", started)
        for cell in cells:
            self.record(((cell.benchmark, cell.selector, cell.scale,
                          cell.seed), None), result.reports[cell],
                        settled[(cell.benchmark, cell.selector)])
        return result, sink.events

    def traced_pass(self, out: Outcome, spans: Spans) -> float:
        busy = 0.0
        fleets = []
        for index, cells in enumerate(self.fleets):
            with spans.span("batch.run_fleet", f"fleet/{index}") as whole:
                fleet = self.fleet(out, cells)
            busy += whole.seconds
            if fleet is not None:
                fleets.append(fleet)
        put_batch(out, fleets)
        put_cache(out, [result.results[cell] for result, _ in fleets
                        for cell in result.results])
        out.put("workloads.build_s", spans.total("workloads.build"), "s")
        return busy


class TraceReplay(Sweep):
    """Collect once, replay many: every trace through the four selectors,
    with the paper's unbounded cache and with a FIFO cache below the
    trace's NET working set."""

    name = "trace-replay"

    def specs_before(self) -> List[Spec]:
        return [((bench, "net", inputs.GRID_SCALE, trace_seed), None)
                for bench, (trace_seed, _) in
                inputs.replay_traces(self.seed).items()]

    def setup(self, spans: Optional[Spans] = None) -> None:
        from repro.config import SystemConfig
        from repro.execution import ExecutionEngine
        from repro.tracing import collect_trace
        from repro.workloads import build_benchmark

        check_names()
        spans = spans if spans is not None else Spans()
        self.halves: Dict[str, Tuple[int, float]] = {}
        self.dir = os.path.join(WORK, f"traces-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.replays = []
        trace_bytes = 0
        for bench, (trace_seed, share) in inputs.replay_traces(
                self.seed).items():
            cell_op = f"trace/{bench}"
            with spans.span("workloads.build", cell_op):
                program = build_benchmark(bench, scale=inputs.GRID_SCALE)
            path = os.path.join(self.dir, f"{bench}.rtrc")
            with spans.span("tracing.collect", cell_op):
                collect_trace(ExecutionEngine(program, seed=trace_seed), path)
            trace_bytes += os.path.getsize(path)
            ws = self.oracle[((bench, "net", inputs.GRID_SCALE, trace_seed),
                              None)]["cache_bytes"]
            capacity = int(share * ws)
            for selector in inputs.SELECTORS:
                cell = (bench, selector, inputs.GRID_SCALE, trace_seed)
                for cap in (None, capacity):
                    config = SystemConfig() if cap is None else SystemConfig(
                        cache_capacity_bytes=cap,
                        cache_eviction_policy="fifo")
                    self.replays.append(((cell, cap), program, path, config))
        self.trace_bytes = trace_bytes

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def record(self, spec: Spec, report, seconds: float) -> None:
        """Also keep raw instructions and seconds per cache kind."""
        super().record(spec, report, seconds)
        half = "unbounded" if spec[1] is None else "fifo"
        instr, busy = self.halves.get(half, (0, 0.0))
        self.halves[half] = (instr + report.total_instructions,
                             busy + seconds)
        self.details["raw_instr_per_s_by_cache"] = {
            name: i / b for name, (i, b) in self.halves.items()}

    def batches(self):
        return [self.replay_op(*replay) for replay in self.replays]

    def replay_op(self, spec, program, path, config, observer=None):
        from repro.metrics.summary import MetricReport
        from repro.system.simulator import Simulator
        from repro.tracing import replay_trace_into

        def op(out: Outcome):
            out.attempted += 1
            t0 = perf()
            try:
                simulator = Simulator(program, spec[0][1], config,
                                      observer=observer)
                result = simulator.run_push(
                    lambda consume: replay_trace_into(path, program, consume))
                report = MetricReport.from_result(result)
            except Exception as exc:
                out.fail(1, f"replay {inputs.cell_id(*spec)}: {exc!r}")
                return None
            self.record(spec, report, perf() - t0)
            return result
        return op

    def traced_pass(self, out: Outcome, spans: Spans) -> float:
        from repro.obs import Observer, SpanTimer
        from repro.tracing import replay_trace_into

        timers = []
        bounded = []
        busy = 0.0
        by_cache = {"unbounded": 0.0, "fifo": 0.0}
        for spec, program, path, config in self.replays:
            op = inputs.cell_id(*spec)
            timer = SpanTimer()
            with spans.span("replay", op) as whole:
                with spans.span("system.run_push"):
                    result = self.replay_op(spec, program, path, config,
                                            Observer(profiler=timer))(out)
            busy += whole.seconds
            by_cache["unbounded" if spec[1] is None else "fifo"] += \
                whole.seconds
            timers.append(timer)
            if spec[1] is not None and result is not None:
                bounded.append(result)
            with spans.span("tracing.decode", op):
                replay_trace_into(path, program, _noop)
        put_system(out, timers)
        put_cache(out, bounded)
        out.put("workloads.build_s", spans.total("workloads.build"), "s")
        out.put("tracing.collect_s", spans.total("tracing.collect"), "s")
        out.put("tracing.decode_s", spans.total("tracing.decode"), "s")
        out.put("tracing.bytes", self.trace_bytes, "bytes")
        self.details["traced_replay_s_by_cache"] = by_cache
        return busy


# -- per-layer readers -------------------------------------------------------
PHASES = ("interpret", "cache_walk", "selector_decide", "region_build")


def put_system(out: Outcome, timers) -> None:
    """Sum the simulator's own SpanTimer phases over a pass."""
    for phase in PHASES:
        out.put(f"system.{phase}_s",
                sum(t.totals.get(phase, 0.0) for t in timers), "s")
        out.put(f"system.{phase}.entries",
                sum(t.counts.get(phase, 0) for t in timers), "count")
    out.put("system.events", sum(t.steps for t in timers), "count")


def put_cache(out: Outcome, results) -> None:
    evictions = sum(r.cache_evictions for r in results)
    regenerated = sum(r.regenerated_regions for r in results)
    installed = sum(r.region_count for r in results)
    out.put("cache.evictions", evictions, "count")
    out.put("cache.regenerated", regenerated, "count")
    out.put("cache.regen_ratio", regenerated / installed if installed else 0.0,
            "ratio")


def put_batch(out: Outcome, fleets) -> None:
    """Fleet shape from each FleetResult plus the fleet's event stamps:
    counts summed over the fleets, shares weighted by wall time."""
    rounds = refills = instructions = 0
    lane_seconds = tail = wall = 0.0
    for result, events in fleets:
        start = next(e.ts for e in events if e.kind == "fleet_started")
        end = next(e.ts for e in events if e.kind == "fleet_finished")
        refill_ts = [e.ts for e in events if e.kind == "fleet_refill"]
        # Live lanes over time: the cap fills at start, each settle
        # frees a slot and each refill takes one back.
        live = min(result.max_lanes, result.lanes)
        last = start
        for ts, delta in sorted(
                [(ts, +1) for ts in refill_ts]
                + [(e.ts, -1) for e in events
                   if e.kind in ("fleet_lane_finished", "fleet_lane_failed")]):
            lane_seconds += live * (ts - last)
            live += delta
            last = ts
        rounds += result.rounds
        refills += result.refills
        instructions += sum(r.total_instructions
                            for r in result.reports.values())
        tail += end - (max(refill_ts) if refill_ts else start)
        wall += end - start
    out.put("batch.rounds", rounds, "count")
    out.put("batch.refills", refills, "count")
    out.put("batch.instr_per_round", instructions / rounds if rounds else 0.0,
            "instr")
    out.put("batch.live_lanes_mean", lane_seconds / wall if wall else 0.0,
            "lanes")
    out.put("batch.tail_share", tail / wall if wall else 0.0, "ratio")


WORKLOADS = {cls.name: cls for cls in (GridSerial, GridFleet, TraceReplay)}
