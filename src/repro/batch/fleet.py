"""Fleet assembly: run many grid cells as one stream on the fused core.

:func:`run_fleet` is the public face of :mod:`repro.batch`: hand it a
list of :class:`BatchCell` coordinates (benchmark, selector, scale,
seed) and it executes them one after another, in queue order, on the
serial fused core (:meth:`~repro.system.simulator.Simulator.run_program`),
returning per-cell :class:`~repro.metrics.summary.MetricReport` and
:class:`~repro.system.results.RunResult` objects that are **the serial
pipeline's** for the same coordinates.  Cells never interact — each
has its own cache, selector, RNG stream and edge profile — so any
partition of a cell list into fleets yields the same per-cell results
(the hypothesis property in ``tests/test_batch_properties.py``).

The result reads as a one-slot stream: ``max_lanes == 1``, one round
per cell and one refill per cell after the first.  ``backend`` and
``max_lanes`` are accepted and validated, and ``FleetResult.backend``
reports the resolved backend, but neither changes how the cells run.

Programs are shared: cells with the same ``(benchmark, scale)`` walk
one immutable :class:`~repro.program.program.Program` instance, built
once and dropped after the last cell that uses it.  Benchmark names
accept the same ``micro:`` prefix as the bench harness, building a
motif program instead of a SPEC model.

Observability happens at batch granularity — ``fleet_started``, one
``fleet_refill`` per queue admission, one ``fleet_lane_finished`` per
cell, ``fleet_finished`` — matching the job-engine convention that
fleet-level events carry step 0 and order by their ``ts``/``seq``
stamps.
"""

from __future__ import annotations

import importlib.util
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

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

#: Whether numpy is importable (the ``repro[fast]`` extra).  Nothing
#: in :mod:`repro` imports it; it only decides what ``backend="auto"``
#: resolves to and whether ``backend="numpy"`` is accepted.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def get_backend(name: str = "auto") -> str:
    """Resolve a backend request to ``"numpy"`` or ``"python"``.

    ``"auto"`` prefers numpy and silently falls back.  Asking for
    ``"numpy"`` without the ``repro[fast]`` extra installed is a
    :class:`~repro.errors.ConfigError`.  Either backend runs the same
    fused core; the name is reported in ``FleetResult.backend``.
    """
    if name == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if name == "numpy":
        if not HAVE_NUMPY:
            raise ConfigError(
                "batch backend 'numpy' requested but numpy is not "
                "installed (pip install 'repro[fast]'), use "
                "backend='auto' or 'python'"
            )
        return "numpy"
    if name == "python":
        return "python"
    raise ConfigError(
        f"unknown batch backend {name!r}: expected 'auto', 'numpy' or "
        f"'python'"
    )


@dataclass(frozen=True)
class BatchCell:
    """One grid-cell coordinate: what one fleet cell simulates."""

    benchmark: str
    selector: str
    scale: float = 1.0
    seed: int = 1


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    backend: str
    #: Cells in the fleet.
    lanes: int
    #: One per cell.
    rounds: int
    #: Aggregate simulation steps across every cell.
    steps: int
    wall_seconds: float
    #: Live-lane bound the run used: always 1, the cells run one at
    #: a time.
    max_lanes: int = 1
    #: Queue admissions into the slot: one per cell after the first.
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
    """Build a cell's program: a SPEC model or a ``micro:`` motif."""
    if benchmark.startswith("micro:"):
        iterations = max(1, round(MICRO_BASE_ITERATIONS * scale))
        return build_micro(benchmark[len("micro:"):], iterations=iterations)
    return build_benchmark(benchmark, scale=scale)


def run_fleet(
    cells: Iterable[BatchCell],
    config: Optional[SystemConfig] = None,
    backend: str = "auto",
    max_steps: Optional[int] = None,
    observer: Optional[Observer] = None,
    max_lanes: Optional[int] = None,
    on_error: str = "raise",
) -> FleetResult:
    """Run every cell in queue order on the fused core; results match
    the serial pipeline bit for bit.

    ``backend`` is ``"auto"`` (numpy when installed, else ``"python"``),
    ``"numpy"`` or ``"python"`` — see :func:`get_backend`; it is
    resolved and reported, not used.  ``max_steps`` bounds every cell
    (default: the engine's standard budget).  ``max_lanes`` must be at
    least 1 when given; the run is always a one-slot stream
    (``max_lanes == 1``, one round per cell, one refill per cell after
    the first).  ``on_error="continue"`` contains a failing cell (its
    enriched error lands in ``FleetResult.failures``) instead of
    aborting the fleet.
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
    # One slot: one round per cell, every cell after the first a refill.
    fleet = FleetResult(backend=backend, lanes=total, rounds=total,
                        steps=0, wall_seconds=0.0)
    obs.event("fleet_started", 0, lanes=total, backend=backend,
              max_lanes=fleet.max_lanes)
    started = time.perf_counter()
    # Each (benchmark, scale) program is built once and dropped after
    # the last cell that uses it.
    uses = Counter((cell.benchmark, cell.scale) for cell in cell_list)
    programs: Dict[Tuple[str, float], object] = {}
    for index, cell in enumerate(cell_list):
        coords = dict(benchmark=cell.benchmark, selector=cell.selector,
                      scale=cell.scale, seed=cell.seed)
        if index:
            fleet.refills += 1
            obs.event("fleet_refill", 0, **coords, slot=0, settled=index,
                      queued=total - index - 1, active=1)
        key = (cell.benchmark, cell.scale)
        program = programs.get(key)
        if program is None:
            program = programs[key] = build_fleet_program(*key)
        uses[key] -= 1
        if not uses[key]:
            del programs[key]
        # A plain serial run with the null observer: the report is the
        # serial oracle's by construction, and an error carries the
        # context the simulator attaches (benchmark, selector, step).
        engine = ExecutionEngine(program, seed=cell.seed,
                                 max_steps=max_steps)
        simulator = Simulator(program, cell.selector, config)
        try:
            result = simulator.run_program(engine)
        except ReproError as exc:
            if on_error == "raise":
                raise
            fleet.failures[cell] = exc
            fleet.errors += 1
            obs.event("fleet_lane_failed", 0, **coords, error=str(exc))
            continue
        fleet.reports[cell] = MetricReport.from_result(result)
        fleet.results[cell] = result
        fleet.steps += engine.steps_executed
        obs.event("fleet_lane_finished", 0, **coords,
                  steps=engine.steps_executed)
    fleet.wall_seconds = time.perf_counter() - started
    obs.event("fleet_finished", 0, lanes=total, backend=backend,
              rounds=fleet.rounds, steps=fleet.steps,
              wall_seconds=fleet.wall_seconds, max_lanes=fleet.max_lanes,
              refills=fleet.refills, errors=fleet.errors)
    return fleet
