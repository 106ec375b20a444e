"""Every input a run feeds the program, generated from the workload seed.

The same seed always gives the same cell lists, FIFO shares and
serve-mix schedule; the program sees only what these functions return.
Nothing here imports :mod:`repro`, so inputs exist before set-up starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The paper's twelve SPECint2000 stand-ins and four selectors (the
#: run checks these against ``repro.workloads``/``repro.selection``).
SPEC = ("gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk",
        "gap", "vortex", "bzip2", "twolf")
SELECTORS = ("net", "lei", "combined-net", "combined-lei")

#: The seed whose expected digests are committed in ``expected.json``.
DEFAULT_SEED = 1

#: Sweeps: the paper's grid at one scale, GRID_SEEDS simulation seeds.
GRID_SCALE = 0.1
GRID_SEEDS = 2
#: Live-lane cap of each fleet: below its cell count (48, one
#: simulation seed), so streaming refill and the drained tail both happen.
FLEET_MAX_LANES = 32
#: Bounded replays use a FIFO cache of this share of the trace's NET
#: working set (drawn per trace).
FIFO_SHARE = (0.4, 0.6)

#: serve-mix: cells are smaller so a cold cell costs tens of ms.
SERVE_SCALE = 0.05
#: Offered rates (req/s); the first is the base rate for p50/p99.  Each
#: rate gets the same number of requests, so that the ladder fills the
#: run's seconds; a 20 s run gives ~1600 per rate (a p99 needs 1000).
SERVE_RATES = (150, 300, 450)
#: New cells arrive as their own stream beside the warm traffic: each
#: gap is SERVE_COLD_GAP plus an exponential draw at SERVE_COLD_RATE
#: (~3.75 arrivals/s), so two distinct cold cells never share a dispatch
#: batch by schedule.
SERVE_COLD_RATE = 6.0
SERVE_COLD_GAP = 0.1
#: Share of cold arrivals sent twice at once (the copy coalesces when
#: both connections are free).
SERVE_DUP_SHARE = 1 / 2

Cell = Tuple[str, str, float, int]          # benchmark, selector, scale, seed


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


def grid_seeds(seed: int) -> Tuple[int, ...]:
    """Simulation seeds of the sweep grid (shared by the three sweeps)."""
    return tuple(sorted(_rng("grid", seed).sample(range(1, 1_000_000),
                                                  GRID_SEEDS)))


def grid_cells(seed: int) -> List[Cell]:
    """grid-serial's and grid-fleet's cells, in run_grid order per seed."""
    return [(bench, selector, GRID_SCALE, sim_seed)
            for sim_seed in grid_seeds(seed)
            for bench in SPEC for selector in SELECTORS]


def replay_traces(seed: int) -> Dict[str, Tuple[int, float]]:
    """Per SPEC stand-in: (simulation seed of its trace, FIFO share).

    Traces alternate over the grid's simulation seeds, so every
    unbounded replay is a grid cell and shares its expected report.
    """
    seeds = grid_seeds(seed)
    rng = _rng("replay", seed)
    return {bench: (seeds[i % len(seeds)], rng.uniform(*FIFO_SHARE))
            for i, bench in enumerate(SPEC)}


@dataclass(frozen=True)
class Request:
    """One scheduled request of the open loop."""

    rid: int
    phase: int
    #: Seconds after its phase starts that the request falls due.
    due: float
    kind: str                   # "warm", "cold", "pair" or "dup"
    cell: Cell


@dataclass(frozen=True)
class ServeSchedule:
    warm: Tuple[Cell, ...]
    rates: Tuple[float, ...]
    requests: Tuple[Request, ...]

    def phase(self, index: int) -> List[Request]:
        return [r for r in self.requests if r.phase == index]

    @property
    def cold_cells(self) -> List[Cell]:
        return list(dict.fromkeys(r.cell for r in self.requests
                                  if r.kind != "warm"))


def serve_warm(seed: int) -> Tuple[Cell, ...]:
    """The warm set: the 48 grid cells at serve scale, one seed."""
    warm_seed = _rng("serve", seed).randrange(1, 1_000_000)
    return tuple((bench, selector, SERVE_SCALE, warm_seed)
                 for bench in SPEC for selector in SELECTORS)


def serve_schedule(seed: int, seconds: float,
                   stream: str = "main") -> ServeSchedule:
    """Warm set plus a Poisson open-loop schedule at each offered rate.

    The warm set depends on ``seed`` alone; the requests on ``seed`` and
    ``stream``, so a second stream over the same warm set brings cold
    cells of its own.
    """
    warm = serve_warm(seed)
    warm_seed = warm[0][3]
    rates = SERVE_RATES
    per_rate = seconds / sum(1 / rate for rate in rates)
    rng = _rng(f"serve-{stream}", seed)
    used = {warm_seed}
    requests: List[Request] = []

    deck: List[Tuple[str, str]] = []

    def fresh_cell() -> Cell:
        """A new cell; (benchmark, selector) pairs are dealt from shuffled
        decks of all 48, so every stretch of cold traffic has the grid's
        own mix of cell sizes."""
        if not deck:
            deck.extend((b, s) for b in SPEC for s in SELECTORS)
            rng.shuffle(deck)
        sim_seed = warm_seed
        while sim_seed in used:
            sim_seed = rng.randrange(1_000_000, 1_000_000_000)
        used.add(sim_seed)
        bench, selector = deck.pop()
        return (bench, selector, SERVE_SCALE, sim_seed)

    for phase, rate in enumerate(rates):
        length = per_rate / rate
        arrivals = []
        due = 0.0
        while True:
            due += SERVE_COLD_GAP + rng.expovariate(SERVE_COLD_RATE)
            if due >= length:
                break
            kind = "dup" if rng.random() < SERVE_DUP_SHARE else "cold"
            arrivals += [(due, kind, fresh_cell())] * (2 if kind == "dup"
                                                       else 1)
        due = 0.0
        while True:
            due += rng.expovariate(rate - SERVE_COLD_RATE)
            if due >= length:
                break
            arrivals.append((due, "warm", rng.choice(warm)))
        arrivals.sort(key=lambda arrival: arrival[0])
        for due, kind, cell in arrivals:
            requests.append(Request(len(requests), phase, due, kind, cell))
    return ServeSchedule(warm, tuple(rates), tuple(requests))


def cell_id(cell: Cell, capacity: Optional[int] = None) -> str:
    """Stable text key of one cell (plus FIFO capacity for replays)."""
    bench, selector, scale, seed = cell
    key = f"{bench}/{selector}/{scale!r}/{seed}"
    return key if capacity is None else f"{key}/fifo{capacity}"
