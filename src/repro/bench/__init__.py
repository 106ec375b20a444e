"""Perf bench harness and its comparator (``repro bench``).

Runs a pinned set of simulator workloads under the :mod:`repro.obs`
span profiler and records per-phase wall time and events/s (one
simulated basic-block event per step) in host-normalized units: every
pass is timed between two samples of a fixed pure-Python probe
(:mod:`repro.bench.harness`).  One comparator
(:func:`~repro.bench.regress.analyze_run`) scores a run against the
committed baseline for ``repro bench``, its ``--check`` gate, its
``--analyze`` re-read and ``repro obs report --bench``.  See
``docs/performance.md``.
"""

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
    DEFAULT_BASELINE_PATH,
    PIN_RUNS,
    QUICK_BASELINE_PATH,
    analyze_run,
    default_baseline_path,
    format_analysis,
    load_baseline,
    load_record,
    median_run,
)

__all__ = [
    "BENCH_VERSION",
    "BenchWorkload",
    "DEFAULT_BASELINE_PATH",
    "PIN_RUNS",
    "QUICK_BASELINE_PATH",
    "QUICK_WORKLOADS",
    "STANDARD_WORKLOADS",
    "analyze_run",
    "default_baseline_path",
    "format_analysis",
    "format_bench_table",
    "load_baseline",
    "load_record",
    "median_run",
    "run_bench",
    "write_bench_run",
]
