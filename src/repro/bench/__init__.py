"""Perf-trajectory bench harness (``repro bench``).

Runs a pinned set of simulator workloads under the :mod:`repro.obs`
span profiler, records per-phase wall time and events/sec (one
simulated basic-block event per step), compares the numbers against
the committed baseline in ``BASELINE.json``, and writes the whole run
as ``BENCH_run.json`` — one point on the repository's performance
trajectory.  See ``docs/experiments.md``.
"""

from repro.bench.baseline import (
    DEFAULT_BASELINE_PATH,
    QUICK_BASELINE_PATH,
    compare_to_baseline,
    default_baseline_path,
    load_baseline,
    regression_failures,
    write_baseline,
)
from repro.bench.harness import (
    BENCH_VERSION,
    BenchWorkload,
    QUICK_WORKLOADS,
    STANDARD_WORKLOADS,
    format_bench_table,
    run_bench,
    write_bench_run,
)
from repro.bench.regress import (
    analyze_path,
    analyze_run,
    format_analysis,
    load_trajectory,
)
from repro.bench.service import format_service_record, run_service_bench

__all__ = [
    "BENCH_VERSION",
    "BenchWorkload",
    "DEFAULT_BASELINE_PATH",
    "QUICK_BASELINE_PATH",
    "default_baseline_path",
    "QUICK_WORKLOADS",
    "STANDARD_WORKLOADS",
    "compare_to_baseline",
    "format_bench_table",
    "load_baseline",
    "regression_failures",
    "run_bench",
    "write_baseline",
    "write_bench_run",
    "analyze_path",
    "analyze_run",
    "format_analysis",
    "format_service_record",
    "load_trajectory",
    "run_service_bench",
]
