"""Run the pinned bench workloads and serialize the measurements.

The workload set is deliberately small and fixed: the same five
(benchmark, selector) pairs at the same scale and seed every run, so
two bench records from different commits are comparable point for
point.  Each pass simulates under a fresh
:class:`~repro.obs.profile.SpanTimer`, giving per-phase self-time
(``interpret``, ``cache_walk``, ``selector_decide``, ``region_build``)
plus steps; a few report fields (hit rate, region count, instructions)
ride along as a behaviour fingerprint — a perf delta paired with a
fingerprint change means the code changed *what* it computes, not just
how fast.

Throughput is recorded in host-normalized units.  Neighbours on a
shared host change the speed of pure-Python code by up to 2x within
minutes, and two machines differ by more, so absolute events/s pinned
on one host judge nothing on another.  Every pass runs between two
samples of :class:`HostSpeed`, a fixed pure-Python probe, and its rate
is multiplied by the mean factor of those two samples: the recorded
``norm_events_per_second`` reads as if the pass had run on a host where
the probe takes 10 ms.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch import build_fleet_program
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.experiments.manifest import git_sha
from repro.metrics.summary import MetricReport
from repro.obs import Observer, SpanTimer
from repro.system.simulator import simulate

#: Bumped on incompatible changes to the bench record; records of any
#: other version cannot be compared (version 1 held absolute events/s).
BENCH_VERSION = 2


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

#: Reduced-scale variant for CI smoke runs (same pairs, same seeds).
QUICK_WORKLOADS: Tuple[BenchWorkload, ...] = tuple(
    BenchWorkload(w.name, w.benchmark, w.selector, scale=0.1, seed=w.seed)
    for w in STANDARD_WORKLOADS
)

#: Passes per workload; the pass with the median normalized rate is
#: recorded, so one pass that a neighbour slowed or a probe sample that
#: a neighbour stretched does not set the number.
DEFAULT_REPEATS = 5


class _Node:
    __slots__ = ("succ", "count", "index")


class HostSpeed:
    """How fast this host runs Python right now, from a fixed probe.

    The probe is a fixed walk over a 32K-node object graph with dict
    counters, independent of the simulator.  :meth:`sample` returns the
    probe's time over ``REFERENCE_S``.  This is the probe perfbench
    uses (``perfbench/common.py``); perfbench must not import the
    program, so the two copies are kept alike by hand.
    """

    REFERENCE_S = 0.010
    STEPS = 30_000

    def __init__(self) -> None:
        rng = random.Random(20261017)
        nodes = [_Node() for _ in range(1 << 15)]
        for index, node in enumerate(nodes):
            node.succ = (rng.choice(nodes), rng.choice(nodes))
            node.count = 0
            node.index = index
        self._start = nodes[0]

    def sample(self) -> float:
        """Time the probe once; returns its factor."""
        counts: Dict[int, int] = {}
        node = self._start
        x = 1
        started = time.perf_counter()
        for _ in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = node.succ[x & 1]
            node.count += 1
            counts[node.index] = counts.get(node.index, 0) + 1
        return (time.perf_counter() - started) / self.REFERENCE_S


def _run_pass(workload: BenchWorkload, program,
              config: SystemConfig) -> Tuple[Dict[str, object], MetricReport]:
    profiler = SpanTimer()
    result = simulate(program, workload.selector, config,
                      seed=workload.seed, observer=Observer(profiler=profiler))
    return profiler.snapshot(), MetricReport.from_result(result)


def _record(workload: BenchWorkload,
            passes: List[Tuple[Dict[str, object], MetricReport, float]]
            ) -> Dict[str, object]:
    """One workload's JSON record from its ``(snapshot, report, factor)``
    passes.

    Every pass must produce the identical behaviour fingerprint — the
    runs are deterministic, so a mismatch means the simulator is
    broken, and the harness refuses to report a throughput number for
    it.
    """
    fingerprints = {
        (report.hit_rate, report.region_count, report.total_instructions,
         int(snapshot["steps"]))
        for snapshot, report, _ in passes
    }
    if len(fingerprints) > 1:
        raise ReproError(
            f"bench workload {workload.name!r} is non-deterministic: "
            f"fingerprints {sorted(fingerprints)}"
        )
    ranked = sorted(passes, key=lambda p: p[0]["steps_per_second"] * p[2])
    snapshot, report, factor = ranked[len(ranked) // 2]
    eps = float(snapshot["steps_per_second"])
    return {
        **asdict(workload),
        "repeats": len(passes),
        "wall_seconds": round(float(snapshot["wall_seconds"]), 6),
        "steps": int(snapshot["steps"]),
        "events_per_second": round(eps, 1),
        "host_factor": round(factor, 4),
        "norm_events_per_second": round(eps * factor, 1),
        "phases": {
            name: {
                "seconds": round(float(data["seconds"]), 6),
                "entries": int(data["entries"]),
            }
            for name, data in snapshot["phases"].items()
        },
        "hit_rate": report.hit_rate,
        "region_count": report.region_count,
        "total_instructions": report.total_instructions,
    }


def run_bench(
    quick: bool = False,
    workloads: Optional[Sequence[BenchWorkload]] = None,
    config: Optional[SystemConfig] = None,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """Run the pinned workload set and assemble the bench record.

    Passes go round robin over the workloads, so each workload's passes
    spread over the whole run instead of sharing one stretch of host
    speed; the probe is sampled between every two passes.
    """
    if workloads is None:
        workloads = QUICK_WORKLOADS if quick else STANDARD_WORKLOADS
    config = config if config is not None else SystemConfig()
    programs = [build_fleet_program(w.benchmark, w.scale) for w in workloads]
    passes: List[List[Tuple[Dict[str, object], MetricReport, float]]] = [
        [] for _ in workloads
    ]
    host = HostSpeed()
    before = host.sample()
    for _ in range(max(1, repeats)):
        for workload, program, samples in zip(workloads, programs, passes):
            snapshot, report = _run_pass(workload, program, config)
            after = host.sample()
            samples.append((snapshot, report, (before + after) / 2))
            before = after
    return {
        "bench_version": BENCH_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": bool(quick),
        "workloads": [_record(w, p) for w, p in zip(workloads, passes)],
    }


def write_bench_run(run: Dict[str, object], path: str) -> str:
    """Write a bench record (a run or a baseline) as JSON; returns the
    path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run, handle, indent=2)
        handle.write("\n")
    return path


def format_bench_table(run: Dict[str, object]) -> str:
    """Human-readable measurements, one line per workload."""
    lines = [
        f"{'workload':<22s} {'steps':>9s} {'wall s':>9s} "
        f"{'events/s':>12s} {'host':>6s} {'norm ev/s':>12s}"
    ]
    for record in run["workloads"]:
        lines.append(
            f"{record['name']:<22s} {record['steps']:>9d} "
            f"{record['wall_seconds']:>9.4f} "
            f"{record['events_per_second']:>12,.0f} "
            f"{record['host_factor']:>6.2f} "
            f"{record['norm_events_per_second']:>12,.0f}"
        )
    return "\n".join(lines)
