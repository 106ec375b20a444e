"""Benchmark of the paper's own traffic, end to end and per layer.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0

Run from the checkout root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
records spans around each layer call, writes them to
``.perfbench/spans/`` and reports the per-layer metrics.  The last line
of standard output is the JSON result; the line before it holds the
provenance and sample counts.  Any report that differs from the oracle
fails the run (exit 1).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (ROOT, SRC, WORK, HostSpeed, Outcome, Spans,  # noqa: E402
                    canonical, peak_rss_mb)

#: Per-layer metrics of the traced run: (name, unit).  A layer the
#: workload bypasses does no work there and reads 0.
PER_LAYER = (
    ("workloads.build_s", "s"),
    ("execution.events_per_s", "1/s"),
    ("tracing.collect_s", "s"),
    ("tracing.decode_s", "s"),
    ("tracing.bytes", "bytes"),
) + tuple(
    (f"system.{phase}{suffix}", unit)
    for phase in ("interpret", "cache_walk", "selector_decide", "region_build")
    for suffix, unit in (("_s", "s"), (".entries", "count"))
) + (
    ("system.events", "count"),
    ("cache.evictions", "count"),
    ("cache.regenerated", "count"),
    ("cache.regen_ratio", "ratio"),
    ("metrics.report_s", "s"),
    ("batch.rounds", "count"),
    ("batch.refills", "count"),
    ("batch.instr_per_round", "instr"),
    ("batch.live_lanes_mean", "lanes"),
    ("batch.tail_share", "ratio"),
    ("serve.http_ms", "ms"),
) + tuple(
    (f"serve.resolve_ms.{source}.{q}", "ms")
    for source in ("store", "coalesced", "computed") for q in ("p50", "p99")
) + (
    ("serve.warm_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.cells_per_batch", "cells"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("jobs.dispatch_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Set-up is repeated in fresh child processes until SETUP_BUDGET_S of
#: it has been measured, then once more in this process, SETUP_MIN to
#: SETUP_MAX times in all: a cheap set-up (imports only, ~0.2 s) gets
#: more repeats than a costly one.
SETUP_MIN, SETUP_MAX = 3, 9
SETUP_BUDGET_S = 3.0
#: Set-up is mostly importing, which on a shared host runs up to 40%
#: slower for seconds at a time.  Right before each set-up a fresh
#: interpreter times its own import of these standard-library modules,
#: none of the program; setup_s is the median of set-up time over that
#: probe's time, times IMPORT_PROBE_REFERENCE_S, so it reads as if
#: measured on a host where the probe takes that long.
IMPORT_PROBE = ("argparse, asyncio, dataclasses, decimal, email.message, "
                "http.client, json, logging, typing, xml.dom.minidom")
IMPORT_PROBE_REFERENCE_S = 0.08


def pin_environment() -> None:
    """Keep the environment from redirecting what is measured.

    ``REPRO_*`` variables pick the fleet backend and the job engine's
    start method; the benchmark measures the defaults.  Temporary files
    stay inside the checkout.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)


def workload_class(name: str):
    from servemix import WORKLOADS as SERVE
    from sweeps import WORKLOADS as SWEEPS

    workloads = dict(SWEEPS, **SERVE)
    if name not in workloads:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {sorted(workloads)}")
    return workloads[name]


def setup_in_child(workload: str, seed: int) -> float:
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import IMPORT_PROBE (timed
    inside it, as set-up is)."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); "
         f"import {IMPORT_PROBE}; print(time.perf_counter() - t)"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def environment() -> dict:
    import platform

    from servemix import server_start_method

    details = {"python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "job_start_method": server_start_method()}
    try:
        import numpy
        details["numpy"] = numpy.__version__
    except ImportError:
        details["numpy"] = None
    return details


def main(argv=None) -> int:
    import argparse
    import statistics
    import time

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    from oracle import Oracle

    cls = workload_class(args.workload)
    oracle = Oracle()
    workload = cls(args.seed, oracle)
    oracle.ensure(workload.specs_before())

    spans = Spans() if args.trace else None
    host = HostSpeed()
    setups, probes = [], []
    if not args.setup_only and not args.trace:
        while len(setups) < SETUP_MAX - 1 and (
                len(setups) < SETUP_MIN - 1 or sum(setups) < SETUP_BUDGET_S):
            probes.append(import_probe())
            setups.append(setup_in_child(args.workload, args.seed))
        probes.append(import_probe())
    out = Outcome()
    try:
        started = time.perf_counter()
        import repro  # noqa: F401  (set-up includes importing the program)

        if spans is not None:
            with spans.span("setup", "setup"):
                workload.setup(spans)
        else:
            workload.setup()
        setups.append(time.perf_counter() - started)
        if args.setup_only:
            print(setups[-1])
            return 0
        if spans is not None:
            workload.traced(args.seconds, out, spans, host)
        else:
            workload.run(args.seconds, out, host)
            if "peak_rss_mb" not in out.metrics:
                out.put("peak_rss_mb", peak_rss_mb(), "MiB")
            out.put("setup_s", statistics.median(
                [s / p * IMPORT_PROBE_REFERENCE_S
                 for s, p in zip(setups, probes)]), "s")
    finally:
        workload.teardown()
    workload.check(out)

    out.details.update(environment(), workload=args.workload, seed=args.seed,
                       trace=args.trace, setups_s=setups,
                       import_probes_s=probes,
                       errors=out.errors)
    out.details.update(workload.details)
    if spans is not None:
        path = os.path.join(WORK, "spans",
                            f"{args.workload}-seed{args.seed}.jsonl")
        spans.dump(path)
        out.details["spans"] = os.path.relpath(path, ROOT)
        for name, unit in PER_LAYER:
            out.metrics.setdefault(name, (0.0, unit))
        metrics = {name: out.metrics[name] for name, _ in PER_LAYER}
    else:
        metrics = out.metrics
    correct = out.failed == 0
    if not correct:
        # A run with any failure reports no throughput.
        for name in ("sim_instr_per_s", "max_rate_rps"):
            metrics.pop(name, None)
    print(canonical({"details": out.details}))
    print(canonical({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
