"""Fleet assembly: run many grid cells as one batched pass.

:func:`run_fleet` is the public face of :mod:`repro.batch`: hand it a
list of :class:`BatchCell` coordinates (benchmark, selector, scale,
seed) and it executes them all, returning per-cell
:class:`~repro.metrics.summary.MetricReport` and
:class:`~repro.system.results.RunResult` objects that are
**bit-identical** to what the serial pipeline produces for the same
coordinates.  Lanes never interact — every lane has its own cache,
selector, RNG stream and edge profile — so any partition of a cell
list into fleets yields the same per-cell results (the hypothesis
property in ``tests/test_batch_properties.py``), and so does any
admission schedule: ``max_lanes`` bounds the number of *live* lanes,
the kernel streams the remaining cells from a queue into slots as
lanes settle, and per-cell results are independent of queue order,
``max_lanes`` and refill timing.

Which core runs is decided from the call (:func:`vector_rounds_possible`):
a fleet whose live width can fill a vector round runs in one
:class:`~repro.batch.kernel.FleetKernel`; any other fleet — narrower
than ``SCALAR_CUTOVER`` lanes, or on the python backend — runs its
cells one after another on the serial fused core
(:meth:`~repro.system.simulator.Simulator.run_program`), reported as a
one-slot stream.

Programs are shared: cells with the same ``(benchmark, scale)`` walk
one immutable :class:`~repro.program.program.Program` instance (blocks
are read-only during simulation; all mutable per-run state lives in
the lane).  Streaming kernel runs build programs lazily and release
them once no live lane shares them, and the fused core drops each
after the last cell that uses it, so memory tracks the active set.
Benchmark names accept the same ``micro:`` prefix as the bench
harness, building a motif program instead of a SPEC model.

Observability happens at batch granularity — ``fleet_started``, one
``fleet_refill`` per queue admission, one ``fleet_lane_finished`` per
cell, ``fleet_finished`` — matching the job-engine convention that
fleet-level events carry step 0 and order by their ``ts``/``seq``
stamps.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.batch import kernel as kernel_mod
from repro.batch.backend import get_backend
from repro.batch.kernel import DEFAULT_QUOTA, FleetKernel
from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.system.results import RunResult
from repro.system.simulator import Simulator
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro

#: Iterations of a full-scale micro benchmark (the bench harness's
#: scaling convention: ``scale`` multiplies this).
MICRO_BASE_ITERATIONS = 6000


@dataclass(frozen=True)
class BatchCell:
    """One grid-cell coordinate: what a fleet lane simulates."""

    benchmark: str
    selector: str
    scale: float = 1.0
    seed: int = 1


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    backend: str
    lanes: int
    rounds: int
    #: Aggregate simulation steps across every lane.
    steps: int
    wall_seconds: float
    #: Live-lane bound the run used (== ``lanes`` when the whole fleet
    #: fit at once; 1 when the cells ran one at a time on the fused
    #: core).
    max_lanes: int = 0
    #: Queue admissions into freed slots (0 for non-streaming runs).
    refills: int = 0
    #: Cells that settled as failed under ``on_error="continue"``.
    errors: int = 0
    reports: Dict[BatchCell, MetricReport] = field(default_factory=dict)
    results: Dict[BatchCell, RunResult] = field(default_factory=dict)
    #: Per-cell contained errors (``on_error="continue"`` only).
    failures: Dict[BatchCell, ReproError] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Aggregate simulated events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.steps / self.wall_seconds


def build_fleet_program(benchmark: str, scale: float):
    """Build a lane's program: a SPEC model or a ``micro:`` motif."""
    if benchmark.startswith("micro:"):
        iterations = max(1, round(MICRO_BASE_ITERATIONS * scale))
        return build_micro(benchmark[len("micro:"):], iterations=iterations)
    return build_benchmark(benchmark, scale=scale)


def vector_rounds_possible(backend: str, live_lanes: int) -> bool:
    """Whether a kernel run of ``live_lanes`` slots could ever sweep a
    vector round.

    Only the numpy kernel vectorizes, and only while at least
    ``SCALAR_CUTOVER`` lanes walk regions at once; a fleet never holds
    more walking lanes than live slots.  Below that width every kernel
    round would step each lane through its per-lane copy of the fused
    loop, so :func:`run_fleet` runs such fleets on the fused core
    itself.  The cutover is read from :mod:`repro.batch.kernel` at
    call time, so tuning the module constant moves this rule with it.
    """
    return backend == "numpy" and live_lanes >= kernel_mod.SCALAR_CUTOVER


def run_fleet(
    cells: Iterable[BatchCell],
    config: Optional[SystemConfig] = None,
    backend: str = "auto",
    max_steps: Optional[int] = None,
    observer: Optional[Observer] = None,
    quota: int = DEFAULT_QUOTA,
    compaction: bool = True,
    max_lanes: Optional[int] = None,
    on_error: str = "raise",
) -> FleetResult:
    """Run every cell as one batched fleet; results match the serial
    pipeline bit for bit.

    ``backend`` is ``"auto"`` (numpy when installed, else ``"python"``),
    ``"numpy"`` or ``"python"`` — see
    :func:`repro.batch.backend.get_backend`.  ``max_steps`` bounds
    every lane (default: the engine's standard budget).  ``max_lanes``
    caps the *live* lane population: with more cells than lanes the
    kernel streams the remainder from a queue, re-seeding each slot
    the moment its lane settles, so memory is bounded by ``max_lanes``
    and the vector population stays wide while the queue lasts.
    ``quota`` caps each lane's scalar steps per kernel round and
    ``compaction`` toggles periodic lane re-sorting by mode.  All
    three are scheduling knobs — they cannot change results, only wall
    time.  ``on_error="continue"`` contains a failing cell (its
    enriched error lands in ``FleetResult.failures``) instead of
    aborting the fleet.

    A fleet that could never fill a vector round — the python backend,
    or a live width ``min(max_lanes, len(cells))`` below
    ``SCALAR_CUTOVER`` (:func:`vector_rounds_possible`) — skips the
    kernel: its cells run one after another, in queue order, through
    :meth:`Simulator.run_program
    <repro.system.simulator.Simulator.run_program>`, and the result
    reads as a one-slot stream (``max_lanes == 1``, one refill and one
    round per cell after the first) with the same events and error
    containment.  ``FleetResult.backend`` stays the resolved backend.
    """
    backend = get_backend(backend)
    config = config if config is not None else SystemConfig()
    obs = observer if observer is not None else NULL_OBSERVER
    cell_list: Tuple[BatchCell, ...] = tuple(cells)
    if not cell_list:
        raise ConfigError("run_fleet needs at least one cell")
    if max_lanes is not None and max_lanes < 1:
        raise ConfigError(f"max_lanes must be >= 1, got {max_lanes}")
    if on_error not in ("raise", "continue"):
        raise ConfigError(
            f"on_error must be 'raise' or 'continue', got {on_error!r}")
    seen = set()
    for cell in cell_list:
        if cell in seen:
            raise ConfigError(f"duplicate fleet cell {cell!r}")
        seen.add(cell)
    total = len(cell_list)
    live = total if max_lanes is None else min(max_lanes, total)
    fused = not vector_rounds_possible(backend, live)

    fleet = FleetResult(backend=backend, lanes=total,
                        rounds=0, steps=0, wall_seconds=0.0)

    def finished(cell, result, report, steps):
        fleet.reports[cell] = report
        fleet.results[cell] = result
        fleet.steps += steps
        obs.event(
            "fleet_lane_finished", 0,
            benchmark=cell.benchmark, selector=cell.selector,
            scale=cell.scale, seed=cell.seed, steps=steps,
        )

    def failed(cell, error):
        fleet.failures[cell] = error
        fleet.errors += 1
        obs.event(
            "fleet_lane_failed", 0,
            benchmark=cell.benchmark, selector=cell.selector,
            scale=cell.scale, seed=cell.seed, error=str(error),
        )

    def refilled(cell, slot, settled, queued, active):
        fleet.refills += 1
        obs.event(
            "fleet_refill", 0,
            benchmark=cell.benchmark, selector=cell.selector,
            scale=cell.scale, seed=cell.seed, slot=slot,
            settled=settled, queued=queued, active=active,
        )

    fleet.max_lanes = 1 if fused else live
    obs.event("fleet_started", 0, lanes=total, backend=backend,
              max_lanes=fleet.max_lanes)
    started = time.perf_counter()
    if fused:
        fleet.rounds = _run_fused(cell_list, config, max_steps,
                                  on_error == "continue",
                                  finished, failed, refilled)
    else:
        def settled(lane, error):
            if error is not None:
                failed(lane.cell, error)
            else:
                finished(lane.cell, lane.result, lane.report,
                         lane.engine.steps_executed)

        def admitted(cell, slot, initial):
            # ``kernel`` is bound by the time any refill can happen:
            # initial admissions (the only ones inside the constructor)
            # are not refills.
            if not initial:
                refilled(cell, slot, kernel.settled, len(kernel.queue),
                         kernel.active)

        kernel = FleetKernel(cell_list, build_fleet_program, config,
                             max_steps=max_steps, quota=quota,
                             compaction=compaction, max_lanes=live,
                             on_error=on_error, on_settle=settled,
                             on_admit=admitted)
        fleet.rounds = kernel.run()
    fleet.wall_seconds = time.perf_counter() - started
    obs.event("fleet_finished", 0, lanes=total, backend=backend,
              rounds=fleet.rounds, steps=fleet.steps,
              wall_seconds=fleet.wall_seconds, max_lanes=fleet.max_lanes,
              refills=fleet.refills, errors=fleet.errors)
    return fleet


def _run_fused(cells: Tuple[BatchCell, ...], config: SystemConfig,
               max_steps: Optional[int], contain: bool,
               finished: Callable, failed: Callable,
               refilled: Callable) -> int:
    """Run ``cells`` in queue order on the fused core, as one slot.

    Each cell is a plain serial run — :meth:`Simulator.run_program
    <repro.system.simulator.Simulator.run_program>` with the null
    observer, as a kernel lane runs — so its report is the serial
    oracle's by construction, and an error carries the context the
    simulator attaches (benchmark, selector, step).  Every cell after
    the first is announced as a refill of slot 0, with the same queue
    counters a one-slot kernel reports.  Each ``(benchmark, scale)``
    program is built once and dropped after the last cell that uses
    it.  Returns the round count: one pass per cell.
    """
    uses = Counter((cell.benchmark, cell.scale) for cell in cells)
    programs: Dict[Tuple[str, float], object] = {}
    total = len(cells)
    for index, cell in enumerate(cells):
        if index:
            refilled(cell, 0, index, total - index - 1, 1)
        key = (cell.benchmark, cell.scale)
        program = programs.get(key)
        if program is None:
            program = programs[key] = build_fleet_program(*key)
        uses[key] -= 1
        if not uses[key]:
            del programs[key]
        engine = ExecutionEngine(program, seed=cell.seed,
                                 max_steps=max_steps)
        simulator = Simulator(program, cell.selector, config)
        try:
            result = simulator.run_program(engine)
        except ReproError as exc:
            if not contain:
                raise
            failed(cell, exc)
            continue
        finished(cell, result, MetricReport.from_result(result),
                 engine.steps_executed)
    return total
