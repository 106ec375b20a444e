"""Run the (benchmark x selector) grid the figures are computed from.

The grid is the expensive heart of the reproduction — a full-scale run
simulates roughly twenty million basic-block events — so it executes on
the fault-tolerant engine in :mod:`repro.jobs` (per-cell retry on
worker crash, optional timeout, lifecycle events) and can be backed by
the content-addressed store in :mod:`repro.store` (an already-computed
cell is a file read; an interrupted grid resumes from whatever cells it
finished).  See ``docs/experiments.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.experiments.manifest import build_manifest, write_manifest
from repro.jobs.engine import Job, JobEngine
from repro.jobs.faults import FaultInjector
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.telemetry import FleetTelemetry, worker_observer
from repro.selection.registry import SELECTOR_NAMES
from repro.store import ResultStore, cell_key
from repro.system.simulator import simulate
from repro.workloads import benchmark_names, build_benchmark


def grid_cell(task: Tuple[str, str, float, int, SystemConfig]) -> MetricReport:
    """Job-engine worker: simulate one ``(benchmark, selector, scale,
    seed, config)`` cell, in-process or in a worker process.

    The grid and the service both run their cells through it.
    Module-level so it pickles under spawn contexts.  Builds the
    program inside the worker — programs hold plain model objects and
    are cheap to rebuild, while shipping them across processes would be
    slower than rebuilding.  The cell records into the process-local
    worker observer when the engine activated one
    (``run_grid(telemetry=True)``); otherwise ``worker_observer()`` is
    the null observer and the simulation runs uninstrumented.
    """
    bench, selector, scale, seed, config = task
    program = build_benchmark(bench, scale=scale)
    return MetricReport.from_result(
        simulate(program, selector, config, seed=seed,
                 observer=worker_observer())
    )


@dataclass
class ExperimentGrid:
    """Metric reports for every (benchmark, selector) cell."""

    scale: float
    seed: int
    config: SystemConfig
    reports: Dict[Tuple[str, str], MetricReport] = field(default_factory=dict)
    #: Merged fleet telemetry (``run_grid(telemetry=True)`` only).
    telemetry: Optional[FleetTelemetry] = None

    def report(self, benchmark: str, selector: str) -> MetricReport:
        return self.reports[(benchmark, selector)]

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(bench for bench, _ in self.reports))

    @property
    def selectors(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(selector for _, selector in self.reports))


def run_grid(
    scale: float = 1.0,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    benchmarks: Optional[Iterable[str]] = None,
    selectors: Optional[Iterable[str]] = None,
    workers: int = 1,
    manifest_dir: Optional[str] = None,
    store: Optional[Union[ResultStore, str]] = None,
    observer: Optional[Observer] = None,
    max_retries: int = 2,
    job_timeout: Optional[float] = None,
    backoff: float = 0.05,
    faults: Optional[FaultInjector] = None,
    code_version: Optional[str] = None,
    telemetry: bool = False,
    telemetry_out: Optional[str] = None,
    telemetry_ring: Optional[int] = None,
) -> ExperimentGrid:
    """Simulate every cell and compute its metric report.

    ``workers`` above 1 fans cells out over worker processes through
    the job engine — results are bit-identical to the serial run
    because every cell is deterministic in ``(benchmark, selector,
    scale, seed, config)``, and a crashed or timed-out worker costs one
    cell's retry (``max_retries``, ``job_timeout``), not the sweep.

    ``store`` (a :class:`~repro.store.ResultStore` or a directory path)
    makes the grid restartable and rerunnable: cells already present
    are served from disk without simulating, and every freshly computed
    cell is persisted *as it completes*, so a run interrupted anywhere
    resumes with only its missing cells.  ``code_version`` pins the
    store address component that normally tracks the git SHA.

    ``manifest_dir`` writes a ``manifest.json`` provenance record
    (selectors, benchmarks, seed, scale, config, git SHA, elapsed time)
    into that directory once the grid completes.  ``faults`` injects
    deterministic worker failures (tests only).

    ``telemetry=True`` records every cell's metrics, span profile and
    event tail inside its worker and merges the reports in the parent
    under ``job_id``/``worker`` labels — the result is
    ``grid.telemetry`` (a :class:`~repro.obs.telemetry.FleetTelemetry`),
    whose merged counter totals are bit-identical whether the grid ran
    serial or parallel.  ``telemetry_out`` additionally writes the
    merged document as JSON (consumed by ``repro obs report``);
    ``telemetry_ring`` sizes each worker's event-tail ring buffer
    (metrics and profile data are never dropped regardless).
    """
    started = time.monotonic()
    config = config if config is not None else SystemConfig()
    bench_list = tuple(benchmarks) if benchmarks is not None else benchmark_names()
    selector_list = tuple(selectors) if selectors is not None else SELECTOR_NAMES
    obs = observer if observer is not None else NULL_OBSERVER
    fleet: Optional[FleetTelemetry] = None
    if telemetry or telemetry_out is not None:
        fleet = (FleetTelemetry(ring_capacity=telemetry_ring)
                 if telemetry_ring is not None else FleetTelemetry())
        # Route the parent's own lifecycle events (job engine, store)
        # into the fleet log alongside the worker tails.
        obs = fleet.attach_parent(observer)
    if isinstance(store, str):
        store = ResultStore(store, observer=obs)
    grid = ExperimentGrid(scale=scale, seed=seed, config=config,
                          telemetry=fleet)

    cells = [
        (bench, selector)
        for bench in bench_list
        for selector in selector_list
    ]
    reports: Dict[Tuple[str, str], MetricReport] = {}
    keys = {}
    missing = []
    for cell in cells:
        if store is not None:
            key = cell_key(cell[0], cell[1], scale, seed, config,
                           code_version=code_version)
            keys[cell] = key
            cached = store.get(key)
            if cached is not None:
                reports[cell] = cached
                continue
        missing.append(cell)

    if missing:
        jobs = [
            Job(f"{bench}:{selector}", (bench, selector, scale, seed, config))
            for bench, selector in missing
        ]
        cell_by_job = {job.job_id: cell for job, cell in zip(jobs, missing)}

        def persist(job_id: str, report: MetricReport) -> None:
            if store is not None:
                store.put(keys[cell_by_job[job_id]], report)

        engine = JobEngine(
            grid_cell,
            workers=min(workers, len(jobs)),
            timeout=job_timeout,
            max_retries=max_retries,
            backoff=backoff,
            observer=obs,
            faults=faults,
            on_complete=persist,
            telemetry=fleet,
        )
        outcomes = engine.run(jobs)
        for job in jobs:
            reports[cell_by_job[job.job_id]] = outcomes[job.job_id].result

    # Fill in cell order, so grid iteration matches the serial runner
    # exactly no matter which cells were cached or computed first.
    for cell in cells:
        grid.reports[cell] = reports[cell]

    if fleet is not None and telemetry_out is not None:
        fleet.write(telemetry_out)

    if manifest_dir is not None:
        extra = {"workers": workers, "cells": len(cells)}
        if store is not None:
            extra["store"] = store.stats.as_dict()
        write_manifest(manifest_dir, build_manifest(
            selectors=selector_list,
            benchmarks=bench_list,
            seed=seed,
            scale=scale,
            config=config,
            elapsed_seconds=time.monotonic() - started,
            extra=extra,
        ))
    return grid
