"""Run the pinned bench workloads and serialize the measurements.

The workload set is deliberately small and fixed: the same four
(benchmark, selector) pairs at the same scale and seed every run, so
two ``BENCH_run.json`` files from different commits are comparable
point-for-point.  Each workload simulates under a fresh
:class:`~repro.obs.profile.SpanTimer`, giving per-phase self-time
(``interpret``, ``cache_walk``, ``selector_decide``, ``region_build``)
plus steps and throughput; a couple of report fields (hit rate, region
count) ride along as a behaviour fingerprint — a perf delta paired
with a fingerprint change means the code changed *what* it computes,
not just how fast.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.experiments.manifest import git_sha
from repro.metrics.summary import MetricReport
from repro.obs import Observer, SpanTimer
from repro.system.simulator import simulate
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro

#: Bumped on incompatible changes to the BENCH_run.json schema.
BENCH_VERSION = 1

#: Default output file name — the perf-trajectory sample for this run.
BENCH_RUN_NAME = "BENCH_run.json"


@dataclass(frozen=True)
class BenchWorkload:
    """One pinned measurement: a (benchmark, selector) pair at a scale."""

    name: str
    benchmark: str
    selector: str
    scale: float
    seed: int = 1


#: The pinned set: the two headline selectors plus both combined
#: variants, over benchmarks that stress different paths (gzip = tight
#: loops, gcc = the largest CFG, mcf = cycle-heavy, vortex = call-heavy,
#: chain = region->region transfers, i.e. the trace-linking fast path).
STANDARD_WORKLOADS: Tuple[BenchWorkload, ...] = (
    BenchWorkload("gzip-net", "gzip", "net", scale=0.5),
    BenchWorkload("gcc-lei", "gcc", "lei", scale=0.5),
    BenchWorkload("mcf-combined-lei", "mcf", "combined-lei", scale=0.5),
    BenchWorkload("vortex-combined-net", "vortex", "combined-net", scale=0.5),
    BenchWorkload("chain-net", "micro:linked_chain", "net", scale=0.5),
)

#: Iterations a ``micro:`` workload runs at ``scale=1.0``; scaled
#: linearly like the SPEC stand-ins so quick and standard runs stay
#: proportional.
MICRO_BASE_ITERATIONS = 6000


def _build_bench_program(benchmark: str, scale: float):
    """Build a bench program; ``micro:<name>`` selects a microbenchmark."""
    if benchmark.startswith("micro:"):
        iterations = max(1, int(round(scale * MICRO_BASE_ITERATIONS)))
        return build_micro(benchmark[len("micro:"):], iterations=iterations)
    return build_benchmark(benchmark, scale=scale)

#: Reduced-scale variant for CI smoke runs (same pairs, same seeds).
QUICK_WORKLOADS: Tuple[BenchWorkload, ...] = tuple(
    BenchWorkload(w.name, w.benchmark, w.selector, scale=0.1, seed=w.seed)
    for w in STANDARD_WORKLOADS
)


#: Passes per workload; the fastest pass is recorded.  Wall time on a
#: shared machine is one-sided noise (preemption only ever adds time),
#: so min-of-N is the standard low-variance throughput estimator.
DEFAULT_REPEATS = 3


def _run_workload(workload: BenchWorkload, config: SystemConfig,
                  repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """Measure one workload; returns its JSON-ready record.

    The workload is simulated ``repeats`` times and the fastest pass
    provides the timing and per-phase profile.  Every pass must
    produce the identical behaviour fingerprint — the runs are
    deterministic, so a mismatch means the simulator is broken, and
    the harness refuses to report a throughput number for it.
    """
    program = _build_bench_program(workload.benchmark, workload.scale)
    best_snapshot = None
    fingerprint = None
    for _ in range(max(1, repeats)):
        profiler = SpanTimer()
        observer = Observer(profiler=profiler)
        result = simulate(program, workload.selector, config,
                          seed=workload.seed, observer=observer)
        report = MetricReport.from_result(result)
        snapshot = profiler.snapshot()
        current = (report.hit_rate, report.region_count,
                   report.total_instructions, int(snapshot["steps"]))
        if fingerprint is None:
            fingerprint = current
        elif current != fingerprint:
            raise ReproError(
                f"bench workload {workload.name!r} is non-deterministic: "
                f"fingerprint {current} != {fingerprint}"
            )
        if (best_snapshot is None
                or snapshot["wall_seconds"] < best_snapshot["wall_seconds"]):
            best_snapshot = snapshot
            best_report = report
    snapshot = best_snapshot
    report = best_report
    return {
        **asdict(workload),
        "repeats": max(1, repeats),
        "wall_seconds": round(float(snapshot["wall_seconds"]), 6),
        "steps": int(snapshot["steps"]),
        "events_per_second": round(float(snapshot["steps_per_second"]), 1),
        "phases": {
            name: {
                "seconds": round(float(data["seconds"]), 6),
                "entries": int(data["entries"]),
            }
            for name, data in snapshot["phases"].items()
        },
        # Behaviour fingerprint: if these move, the delta is not (only)
        # a performance change.
        "hit_rate": report.hit_rate,
        "region_count": report.region_count,
        "total_instructions": report.total_instructions,
    }


def run_bench(
    quick: bool = False,
    workloads: Optional[Sequence[BenchWorkload]] = None,
    config: Optional[SystemConfig] = None,
    repeats: int = DEFAULT_REPEATS,
    service: bool = False,
) -> Dict[str, object]:
    """Run the pinned workload set and assemble the bench record.

    ``service=True`` additionally boots the grid server against a fresh
    store and records warm/cold request-latency percentiles under the
    ``service`` key (see :mod:`repro.bench.service`); the CLI turns it
    on by default, library callers opt in.
    """
    if workloads is None:
        workloads = QUICK_WORKLOADS if quick else STANDARD_WORKLOADS
    config = config if config is not None else SystemConfig()
    records: List[Dict[str, object]] = []
    started = time.monotonic()
    for workload in workloads:
        records.append(_run_workload(workload, config, repeats=repeats))
    service_record = None
    if service:
        from repro.bench.service import run_service_bench

        service_record = run_service_bench(quick=quick)
    total_wall = sum(float(r["wall_seconds"]) for r in records)
    total_steps = sum(int(r["steps"]) for r in records)
    return {
        "bench_version": BENCH_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": bool(quick),
        "workloads": records,
        "service": service_record,
        "totals": {
            "wall_seconds": round(total_wall, 6),
            "steps": total_steps,
            "events_per_second": (
                round(total_steps / total_wall, 1) if total_wall > 0 else 0.0
            ),
            "harness_seconds": round(time.monotonic() - started, 6),
        },
    }


def write_bench_run(run: Dict[str, object], path: str) -> str:
    """Write the bench record as JSON; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run, handle, indent=2)
        handle.write("\n")
    return path


def format_bench_table(run: Dict[str, object],
                       deltas: Optional[Dict[str, object]] = None) -> str:
    """Human-readable summary (one line per workload, plus totals)."""
    lines = [
        f"{'workload':<22s} {'steps':>9s} {'wall s':>9s} "
        f"{'events/s':>12s} {'vs baseline':>12s}"
    ]
    per_workload = (deltas or {}).get("workloads", {})
    for record in run["workloads"]:
        delta = per_workload.get(record["name"])
        if delta is None:
            delta_text = "-"
        else:
            ratio = delta["events_per_second_ratio"]
            delta_text = f"{(ratio - 1) * 100:+.1f}%"
        lines.append(
            f"{record['name']:<22s} {record['steps']:>9d} "
            f"{record['wall_seconds']:>9.4f} "
            f"{record['events_per_second']:>12,.0f} {delta_text:>12s}"
        )
    totals = run["totals"]
    if deltas is None:
        total_text = "-"
    else:
        ratio = deltas["totals"]["events_per_second_ratio"]
        total_text = f"{(ratio - 1) * 100:+.1f}%"
    lines.append(
        f"{'total':<22s} {totals['steps']:>9d} "
        f"{totals['wall_seconds']:>9.4f} "
        f"{totals['events_per_second']:>12,.0f} {total_text:>12s}"
    )
    if run.get("service"):
        from repro.bench.service import format_service_record

        lines.append(format_service_record(run["service"]))
    return "\n".join(lines)
