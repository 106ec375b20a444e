"""Perf bench harness and its comparator (``repro bench``).

Runs a pinned set of simulator workloads under the :mod:`repro.obs`
span profiler and records per-phase wall time and events/s (one
simulated basic-block event per step) in host-normalized units: every
pass is timed between two samples of a fixed pure-Python probe
(:mod:`repro.bench.harness`).  ``repro bench --against REV``
alternates runs of REV and of this checkout, and one comparator scores
the paired record for its ``--check`` gate and for
``repro obs report --bench`` (:mod:`repro.bench.regress`).  See
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
    PAIRS,
    analyze_pairs,
    format_analysis,
    load_record,
    run_pairs,
)

__all__ = [
    "BENCH_VERSION",
    "BenchWorkload",
    "PAIRS",
    "QUICK_WORKLOADS",
    "STANDARD_WORKLOADS",
    "analyze_pairs",
    "format_analysis",
    "format_bench_table",
    "load_record",
    "run_bench",
    "run_pairs",
    "write_bench_run",
]
