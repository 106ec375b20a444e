"""Tests for fleet execution (repro.batch).

A fleet's contract is *bit-identity*: for every cell it must produce
exactly the MetricReport the serial pipeline produces.  ``run_fleet``
runs its cells one at a time on the fused core and reports the run as
a one-slot stream; these tests hold it to the serial oracle across
benchmarks, selectors, bounded caches under eviction, step budgets
and the error path, and pin the stream's shape and events.  See
``docs/batching.md``.
"""

import pytest

from repro.batch import (
    BatchCell,
    HAVE_NUMPY,
    build_fleet_program,
    get_backend,
    run_fleet,
)
from repro.batch import fleet as fleet_mod
from repro.config import SystemConfig
from repro.errors import ConfigError, ExecutionError
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.obs import CollectingSink, Observer
from repro.selection.registry import SELECTOR_NAMES
from repro.system.simulator import simulate
from repro.workloads import BENCHMARKS as SPEC_BENCHMARKS

#: Backend names this interpreter accepts; either runs the fused core.
BACKENDS = ("numpy", "python") if HAVE_NUMPY else ("python",)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: The fleet width at which run_fleet used to build the vector kernel.
FORMER_KERNEL_WIDTH = 48


@pytest.fixture
def tiny_call_depth(monkeypatch):
    """Cap the call stack at 3 frames: ``micro:recursion`` overflows."""
    orig = ExecutionEngine.__init__

    def patched(self, *args, **kwargs):
        kwargs["max_call_depth"] = 3
        orig(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionEngine, "__init__", patched)


@pytest.fixture
def built_programs(monkeypatch):
    """Record every ``(benchmark, scale)`` program ``run_fleet`` builds."""
    built = []
    orig = fleet_mod.build_fleet_program

    def counting(benchmark, scale):
        built.append((benchmark, scale))
        return orig(benchmark, scale)

    monkeypatch.setattr(fleet_mod, "build_fleet_program", counting)
    return built


def serial_report(cell: BatchCell, config=None, max_steps=None) -> MetricReport:
    """The oracle: one serial fused-pipeline run of the same cell."""
    program = build_fleet_program(cell.benchmark, cell.scale)
    result = simulate(program, cell.selector, config, seed=cell.seed,
                      max_steps=max_steps)
    return MetricReport.from_result(result)


def assert_fleet_matches_serial(cells, config=None, max_steps=None):
    fleet = run_fleet(cells, config=config, max_steps=max_steps)
    for cell in cells:
        assert fleet.reports[cell] == serial_report(
            cell, config=config, max_steps=max_steps
        ), f"fleet report diverged from serial for {cell!r}"
    return fleet


class TestBackendResolution:
    def test_auto_prefers_numpy_when_available(self):
        assert get_backend("auto") == BACKENDS[0]

    #: (request, numpy importable, resolved name or the error raised).
    #: "auto" degrades silently; an explicit "numpy" does not.  The
    #: benchmark's grid-fleet fails any fleet that does not report
    #: "numpy", so these rules must not drift.
    RESOLUTION = [
        ("auto", True, "numpy"),
        ("auto", False, "python"),
        ("numpy", True, "numpy"),
        ("numpy", False, ConfigError),
        ("python", True, "python"),
        ("python", False, "python"),
    ]

    @pytest.mark.parametrize("request_name,have_numpy,expected", RESOLUTION)
    def test_resolution_table(self, monkeypatch, request_name, have_numpy,
                              expected):
        monkeypatch.setattr(fleet_mod, "HAVE_NUMPY", have_numpy)
        if expected is ConfigError:
            with pytest.raises(ConfigError, match="numpy"):
                get_backend(request_name)
        else:
            assert get_backend(request_name) == expected

    @pytest.mark.parametrize("request_name,have_numpy,expected", RESOLUTION)
    def test_fleet_reports_the_resolved_name(self, monkeypatch,
                                             built_programs, request_name,
                                             have_numpy, expected):
        monkeypatch.setattr(fleet_mod, "HAVE_NUMPY", have_numpy)
        cell = BatchCell("micro:self_loop", "net", scale=0.05, seed=1)
        sink = CollectingSink(categories=("fleet",))
        if expected is ConfigError:
            # Refused before any cell is built or any event is emitted.
            with pytest.raises(ConfigError, match="numpy"):
                run_fleet([cell], backend=request_name,
                          observer=Observer(sink=sink))
            assert built_programs == []
            assert sink.events == []
            return
        fleet = run_fleet([cell], backend=request_name,
                          observer=Observer(sink=sink))
        assert fleet.backend == expected
        for kind in ("fleet_started", "fleet_finished"):
            assert sink.by_kind(kind)[0].get("backend") == expected
        assert fleet.reports[cell] == serial_report(cell)

    @pytest.mark.parametrize("name", ["cuda", "", "NUMPY", "batched",
                                      "serial"])
    def test_unknown_names_rejected(self, name):
        with pytest.raises(ConfigError, match="unknown batch backend"):
            get_backend(name)


class TestFleetBitIdentity:
    def test_micro_motifs_all_selectors(self):
        cells = [
            BatchCell(f"micro:{motif}", selector, scale=0.3, seed=seed)
            for motif in ("figure2", "figure4", "self_loop", "linked_chain",
                          "recursion")
            for selector in ("net", "lei", "combined-net")
            for seed in (1, 9)
        ]
        assert_fleet_matches_serial(cells)

    def test_spec_benchmarks(self):
        cells = [
            BatchCell(bench, selector, scale=0.05, seed=3)
            for bench in ("gzip", "mcf")
            for selector in ("net", "lei")
        ]
        assert_fleet_matches_serial(cells)

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_bounded_cache_under_eviction(self, policy):
        config = SystemConfig(cache_capacity_bytes=2000,
                              cache_eviction_policy=policy)
        cells = [
            BatchCell(bench, "net", scale=0.05, seed=7)
            for bench in ("gzip", "bzip2")
        ] + [BatchCell("micro:linked_chain", "lei", scale=0.5, seed=7)]
        assert_fleet_matches_serial(cells, config=config)

    @pytest.mark.parametrize("max_steps", [1, 7, 997])
    def test_step_budget_truncation(self, max_steps):
        cells = [
            BatchCell("micro:alternating", "net", scale=0.3, seed=1),
            BatchCell("gzip", "lei", scale=0.05, seed=2),
        ]
        assert_fleet_matches_serial(cells, max_steps=max_steps)


def _fingerprint(result):
    """Everything a run measures, in comparable form.

    Edges are keyed by block label: the fleet builds its own program
    instance, and blocks compare by identity.
    """
    stats = {
        name: getattr(result.stats, name) for name in result.stats.__slots__
    }
    edges = {(src.full_label, dst.full_label): count
             for (src, dst), count in result.edge_profile.items()}
    return (
        MetricReport.from_result(result),
        stats,
        edges,
        result.selector_diagnostics,
        result.peak_counters,
        result.peak_observed_trace_bytes,
    )


#: The paper's grid at test scale: every SPEC stand-in under every
#: paper selector, one seed — the cell set of the benchmark's
#: grid-fleet workload.
PAPER_GRID = tuple(
    BatchCell(bench, selector, scale=0.05, seed=11)
    for bench in SPEC_BENCHMARKS
    for selector in SELECTOR_NAMES
)


@pytest.fixture(scope="module")
def paper_grid_fleet():
    """The paper grid run as one fleet, in the benchmark's call shape."""
    return run_fleet(PAPER_GRID, backend=BACKENDS[0], max_lanes=32)


class TestPaperGridFleet:
    """Every cell of the paper grid, run as one fleet, is the oracle's.

    The four selectors of a benchmark share one program inside the
    fleet, so a cell that mutated it would move its neighbours.  The
    oracle is the reference state machine (``fast=False``), not the
    fused core the fleet runs, so this is also the differential check
    of that core on every SPEC stand-in.
    """

    @pytest.mark.parametrize(
        "cell", PAPER_GRID,
        ids=[f"{c.benchmark}-{c.selector}" for c in PAPER_GRID])
    def test_cell_matches_reference(self, paper_grid_fleet, cell):
        program = build_fleet_program(cell.benchmark, cell.scale)
        reference = simulate(program, cell.selector, seed=cell.seed,
                             fast=False)
        assert (_fingerprint(paper_grid_fleet.results[cell])
                == _fingerprint(reference))
        assert paper_grid_fleet.reports[cell] == MetricReport.from_result(
            reference)


class TestFleetValidation:
    def test_max_lanes_validation(self):
        cells = [BatchCell("micro:self_loop", "net", scale=0.1, seed=1)]
        with pytest.raises(ConfigError):
            run_fleet(cells, max_lanes=0)
        with pytest.raises(ConfigError):
            run_fleet(cells, on_error="retry")

    A = BatchCell("micro:self_loop", "net", scale=0.05, seed=1)
    B = BatchCell("micro:figure2", "lei", scale=0.05, seed=1)

    @pytest.mark.parametrize("cells,kwargs,match", [
        ((), {}, "at least one cell"),
        ((A, B), {"max_lanes": 0}, "max_lanes"),
        ((A, B), {"max_lanes": -1}, "max_lanes"),
        ((A, B), {"on_error": "retry"}, "on_error"),
        ((A, B), {"on_error": None}, "on_error"),
        ((A, B), {"backend": "cuda"}, "unknown batch backend"),
        ((A, A, B), {}, "duplicate"),
        ((A, B, A), {}, "duplicate"),
    ], ids=["empty", "max_lanes-0", "max_lanes-negative", "on_error-retry",
            "on_error-none", "backend-unknown", "duplicate-adjacent",
            "duplicate-at-queue-end"])
    def test_rejected_before_any_cell_runs(self, built_programs, cells,
                                           kwargs, match):
        sink = CollectingSink()
        with pytest.raises(ConfigError, match=match):
            run_fleet(cells, observer=Observer(sink=sink), **kwargs)
        assert built_programs == []
        assert sink.events == []


class TestFleetResultAndEvents:
    def test_fleet_result_aggregates(self):
        cells = [BatchCell("micro:self_loop", "net", scale=0.3, seed=s)
                 for s in (1, 2, 3)]
        fleet = run_fleet(cells)
        assert fleet.lanes == 3
        assert fleet.rounds >= 1
        assert fleet.wall_seconds > 0
        per_lane = [fleet.results[c].stats.interp_steps
                    + fleet.results[c].stats.cache_steps for c in cells]
        assert fleet.steps == sum(per_lane)
        assert fleet.events_per_second > 0

    def test_obs_events_at_batch_granularity(self):
        sink = CollectingSink()
        cells = [BatchCell("micro:figure2", "net", scale=0.3, seed=s)
                 for s in (1, 2)]
        run_fleet(cells, observer=Observer(sink=sink))
        started = sink.by_kind("fleet_started")
        finished = sink.by_kind("fleet_finished")
        lanes = sink.by_kind("fleet_lane_finished")
        assert len(started) == len(finished) == 1
        assert started[0].payload["lanes"] == 2
        assert len(lanes) == 2
        assert {e.payload["seed"] for e in lanes} == {1, 2}
        assert finished[0].payload["steps"] > 0


class TestRetireBeforeFold:
    """Mid-run eviction sees fully folded region stats.

    A bounded cache snapshots region stats at the eviction moment (the
    ``cache_evicted`` event, regeneration accounting); counts the walk
    still holds at that point must be folded into the region before it
    loses residency — folding later would resurrect a retired region's
    totals, folding twice would double count.  The spy holds a fleet
    to the serial oracle at every single eviction, not just at end of
    run.
    """

    @pytest.mark.parametrize("selector", SELECTOR_NAMES)
    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_eviction_moment_stats_match_serial(self, policy, selector,
                                                monkeypatch):
        from repro.cache.codecache import BoundedCodeCache

        by_cache = {}
        orig = BoundedCodeCache._retire_region

        def spy(cache, victim, evict_policy):
            orig(cache, victim, evict_policy)
            by_cache.setdefault(id(cache), []).append((
                victim.entry.full_label, evict_policy,
                victim.entry_count, victim.exit_count,
                victim.cycle_backs, victim.executed_instructions,
            ))

        monkeypatch.setattr(BoundedCodeCache, "_retire_region", spy)
        config = SystemConfig(cache_capacity_bytes=500,
                              cache_eviction_policy=policy)
        cells = ([BatchCell("gzip", selector, scale=0.05, seed=seed)
                  for seed in (3, 7)]
                 + [BatchCell("bzip2", selector, scale=0.1, seed=3)])
        serial_seqs = []
        for cell in cells:
            by_cache.clear()
            program = build_fleet_program(cell.benchmark, cell.scale)
            simulate(program, cell.selector, config, seed=cell.seed)
            assert len(by_cache) <= 1
            serial_seqs.extend(by_cache.values())
        assert serial_seqs, "workloads too small to trigger eviction"
        by_cache.clear()
        run_fleet(cells, config=config)
        assert sorted(by_cache.values()) == sorted(serial_seqs)


class TestErrorContextParity:
    """A fleet abort carries the same diagnostic context as a serial one."""

    @pytest.mark.parametrize("selector", SELECTOR_NAMES)
    def test_call_overflow_matches_serial(self, tiny_call_depth, selector):
        program = build_fleet_program("micro:recursion", 0.3)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, selector, seed=2)
        cells = [BatchCell("micro:recursion", selector, scale=0.3, seed=s)
                 for s in (2, 3, 4, 5)]
        with pytest.raises(ExecutionError) as fleet_exc:
            run_fleet(cells)
        # Same canonical message body...
        assert (str(fleet_exc.value).split(" [")[0]
                == str(serial_exc.value).split(" [")[0])
        # ...and the same context keys: benchmark, selector and the
        # failing lane's cache clock (clock advancement is lazy in both
        # pipelines, so the step may trail serial's by a point or two).
        assert fleet_exc.value.context["benchmark"] == "micro_recursion"
        assert fleet_exc.value.context["selector"] == selector
        serial_step = serial_exc.value.context["step"]
        assert abs(fleet_exc.value.context["step"] - serial_step) <= 2


class TestFusedCore:
    """Every fleet runs on the fused core, as a one-slot stream.

    The cells run one after another through ``Simulator.run_program``
    and the fleet reads as a one-slot stream: ``max_lanes == 1``, one
    round per cell, one refill into slot 0 per cell after the first,
    each cell's events emitted as it ends, and failures contained per
    cell.
    """

    CELLS = (
        BatchCell("micro:linked_chain", "net", scale=0.1, seed=1),
        BatchCell("micro:figure3", "combined-net", scale=0.1, seed=1),
        BatchCell("micro:linked_chain", "lei", scale=0.1, seed=2),
        BatchCell("micro:recursion", "net", scale=0.1, seed=1),
        BatchCell("micro:figure2", "net", scale=0.1, seed=3),
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("max_lanes", [None, 2])
    def test_one_slot_stream_contract(self, backend, max_lanes):
        sink = CollectingSink(categories=("fleet",))
        cells = self.CELLS
        fleet = run_fleet(cells, backend=backend, max_lanes=max_lanes,
                          observer=Observer(sink=sink))
        assert fleet.backend == get_backend(backend)
        assert fleet.max_lanes == 1
        assert fleet.refills == len(cells) - 1
        assert fleet.rounds == len(cells)
        for cell in cells:
            assert fleet.reports[cell] == serial_report(cell)
        # Events arrive in cell order: each cell after the first is
        # admitted into slot 0 the moment its predecessor finishes.
        kinds = [(e.kind, e.get("seed"), e.get("benchmark"))
                 for e in sink.events]
        expected = [("fleet_started", None, None)]
        for index, cell in enumerate(cells):
            if index:
                expected.append(("fleet_refill", cell.seed, cell.benchmark))
            expected.append(
                ("fleet_lane_finished", cell.seed, cell.benchmark))
        expected.append(("fleet_finished", None, None))
        assert kinds == expected
        assert sink.by_kind("fleet_started")[0].get("max_lanes") == 1
        for index, event in enumerate(sink.by_kind("fleet_refill"), 1):
            assert event.get("slot") == 0
            assert event.get("settled") == index
            assert (event.get("settled") + event.get("active")
                    + event.get("queued")) == len(cells)

    def test_contained_failure_carries_serial_context(self, tiny_call_depth):
        bad = BatchCell("micro:recursion", "net", scale=0.3, seed=2)
        cells = self.CELLS[:2] + (bad,) + self.CELLS[4:]
        program = build_fleet_program(bad.benchmark, bad.scale)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, bad.selector, seed=bad.seed)
        sink = CollectingSink(categories=("fleet",))
        fleet = run_fleet(cells, on_error="continue",
                          observer=Observer(sink=sink))
        assert list(fleet.failures) == [bad]
        assert fleet.errors == 1
        error = fleet.failures[bad]
        assert str(error) == str(serial_exc.value)
        assert error.context == serial_exc.value.context
        failed = sink.by_kind("fleet_lane_failed")
        assert len(failed) == 1
        assert failed[0].get("seed") == bad.seed
        assert set(fleet.reports) == set(cells) - {bad}
        for cell in fleet.reports:
            assert fleet.reports[cell] == serial_report(cell)
        # The failed cell's successor still streams into slot 0.
        assert fleet.refills == len(cells) - 1

    def test_raise_aborts_with_the_serial_error(self, tiny_call_depth):
        bad = BatchCell("micro:recursion", "net", scale=0.3, seed=2)
        program = build_fleet_program(bad.benchmark, bad.scale)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, bad.selector, seed=bad.seed)
        with pytest.raises(ExecutionError) as fleet_exc:
            run_fleet(self.CELLS[:1] + (bad,) + self.CELLS[1:2])
        assert str(fleet_exc.value) == str(serial_exc.value)
        assert fleet_exc.value.context == serial_exc.value.context

    def test_each_program_is_built_once(self, built_programs):
        # linked_chain@0.1 recurs after an unrelated cell: it must stay
        # built until its last queued cell has run.
        run_fleet(self.CELLS)
        assert sorted(built_programs) == sorted({(c.benchmark, c.scale)
                                                 for c in self.CELLS})

    @pytest.mark.parametrize("backend", [
        pytest.param("numpy", marks=needs_numpy), "python"])
    def test_wide_fleet_is_a_one_slot_stream(self, backend):
        # A numpy fleet this wide used to build the vector kernel;
        # every fleet now streams through one slot.
        width = FORMER_KERNEL_WIDTH
        cells = [BatchCell("micro:self_loop", "net", scale=0.01, seed=s)
                 for s in range(width)]
        sink = CollectingSink(categories=("fleet",))
        fleet = run_fleet(cells, backend=backend, max_lanes=width,
                          observer=Observer(sink=sink))
        assert fleet.backend == backend
        assert fleet.max_lanes == 1
        assert fleet.rounds == width
        assert fleet.refills == width - 1
        assert sink.by_kind("fleet_started")[0].get("max_lanes") == 1
        assert len(sink.by_kind("fleet_refill")) == width - 1
        for cell in cells:
            assert fleet.reports[cell] == serial_report(cell)


#: A mixed pool — trace chains, a self loop, CFG regions, LEI and an
#: interp-heavy tail — with two cells sharing one program.
POOL = tuple(
    BatchCell(f"micro:{motif}", selector, scale=scale, seed=seed)
    for motif, selector, scale, seed in (
        ("linked_chain", "net", 0.15, 1),
        ("linked_chain", "net", 0.05, 2),
        ("self_loop", "net", 0.1, 1),
        ("figure3", "combined-net", 0.1, 1),
        ("alternating", "lei", 0.05, 1),
        ("figure2", "net", 0.05, 1),
        ("recursion", "net", 0.1, 1),
        ("linked_chain", "lei", 0.05, 3),
    )
)

#: Queue orders of ``POOL``.
ORDERS = {
    "forward": POOL,
    "reversed": tuple(reversed(POOL)),
    "rotated": POOL[4:] + POOL[:4],
}


@pytest.fixture(scope="module")
def pool_oracle():
    return {cell: serial_report(cell) for cell in POOL}


def coordinates(event):
    return (event.get("benchmark"), event.get("selector"),
            event.get("scale"), event.get("seed"))


def run_observed(cells, **kwargs):
    """``run_fleet`` with a sink on the fleet events."""
    sink = CollectingSink(categories=("fleet",))
    fleet = run_fleet(cells, observer=Observer(sink=sink), **kwargs)
    return fleet, sink


class TestStreamSchedule:
    """The stream's events follow the queue, whatever its order.

    The benchmark's grid-fleet reads each cell's latency from its
    ``fleet_lane_finished`` stamp, and its batch metrics from the
    refill and finish stamps, so the events must arrive in queue order
    with counters that account for every cell.
    """

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_events_follow_queue_order(self, pool_oracle, order):
        cells = ORDERS[order]
        fleet, sink = run_observed(cells)
        assert fleet.reports == pool_oracle
        queue = [(c.benchmark, c.selector, c.scale, c.seed) for c in cells]
        assert [coordinates(e)
                for e in sink.by_kind("fleet_lane_finished")] == queue
        assert [coordinates(e)
                for e in sink.by_kind("fleet_refill")] == queue[1:]
        assert fleet.refills == len(cells) - 1

    def test_refill_counters_track_queue_progress(self):
        fleet, sink = run_observed(POOL)
        refills = sink.by_kind("fleet_refill")
        assert len(refills) == fleet.refills == len(POOL) - 1
        for settled, event in enumerate(refills, 1):
            assert event.get("slot") == 0
            assert event.get("settled") == settled
            assert event.get("active") == 1
            assert event.get("queued") == len(POOL) - settled - 1
        # The last admission drained the queue.
        assert refills[-1].get("queued") == 0

    def test_stamps_bracket_each_cell(self):
        """Each cell's refill precedes its finish, and stamps never go
        back: a cell's latency is the gap between its own events."""
        fleet, sink = run_observed(POOL)
        events = sink.events
        assert events[0].kind == "fleet_started"
        assert events[-1].kind == "fleet_finished"
        stamps = [e.ts for e in events]
        assert stamps == sorted(stamps)
        assert [e.seq for e in events] == sorted({e.seq for e in events})
        kinds = [e.kind for e in events[1:-1]]
        assert kinds == (["fleet_lane_finished"]
                         + ["fleet_refill", "fleet_lane_finished"]
                         * (len(POOL) - 1))

    def test_lane_steps_add_up_to_the_fleet(self):
        fleet, sink = run_observed(POOL)
        lanes = sink.by_kind("fleet_lane_finished")
        for cell, event in zip(POOL, lanes):
            stats = fleet.results[cell].stats
            assert event.get("steps") == stats.interp_steps + stats.cache_steps
        assert sum(e.get("steps") for e in lanes) == fleet.steps
        assert sink.by_kind("fleet_finished")[0].get("steps") == fleet.steps


#: Overflows a 3-frame call stack (``tiny_call_depth``); the other
#: cells of ``STREAM`` never call that deep.
BAD = BatchCell("micro:recursion", "net", scale=0.3, seed=2)
STREAM = (
    BatchCell("micro:linked_chain", "net", scale=0.1, seed=1),
    BatchCell("micro:figure3", "combined-net", scale=0.1, seed=1),
    BatchCell("micro:figure2", "lei", scale=0.1, seed=3),
)

#: Where ``BAD`` sits in the queue.
POSITIONS = {
    "first": (BAD,) + STREAM,
    "middle": STREAM[:2] + (BAD,) + STREAM[2:],
    "last": STREAM + (BAD,),
}


@pytest.fixture
def serial_error(tiny_call_depth):
    """The error a serial run of ``BAD`` raises."""
    program = build_fleet_program(BAD.benchmark, BAD.scale)
    with pytest.raises(ExecutionError) as exc:
        simulate(program, BAD.selector, seed=BAD.seed)
    return exc.value


class TestErrorContainment:
    """A failing cell wherever it sits in the queue.

    ``on_error="continue"`` settles it as failed and streams the next
    cell into the slot; ``"raise"`` aborts with the serial error, after
    the cells ahead of it have finished and before any behind it start.
    """

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_continue_contains_it(self, serial_error, position):
        cells = POSITIONS[position]
        fleet, sink = run_observed(cells, on_error="continue")
        assert list(fleet.failures) == [BAD]
        assert fleet.errors == 1
        assert str(fleet.failures[BAD]) == str(serial_error)
        assert fleet.failures[BAD].context == serial_error.context
        assert set(fleet.reports) == set(STREAM)
        for cell in STREAM:
            assert fleet.reports[cell] == serial_report(cell)
        assert fleet.refills == len(cells) - 1
        # The failure settles in its own place in the stream.
        settled = [(e.kind, e.get("seed"), e.get("benchmark"))
                   for e in sink.events
                   if e.kind in ("fleet_lane_finished", "fleet_lane_failed")]
        assert settled == [
            ("fleet_lane_failed" if cell == BAD else "fleet_lane_finished",
             cell.seed, cell.benchmark)
            for cell in cells]
        assert sink.by_kind("fleet_finished")[0].get("errors") == 1

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_raise_aborts_at_it(self, serial_error, position):
        cells = POSITIONS[position]
        sink = CollectingSink(categories=("fleet",))
        with pytest.raises(ExecutionError) as exc:
            run_fleet(cells, observer=Observer(sink=sink))
        assert str(exc.value) == str(serial_error)
        assert exc.value.context == serial_error.context
        ahead = cells[:cells.index(BAD)]
        assert ([(e.get("benchmark"), e.get("seed"))
                 for e in sink.by_kind("fleet_lane_finished")]
                == [(c.benchmark, c.seed) for c in ahead])
        assert sink.by_kind("fleet_lane_failed") == []
        assert sink.by_kind("fleet_finished") == []

    def test_every_cell_failing_still_finishes_the_fleet(
            self, tiny_call_depth, built_programs):
        cells = [BatchCell("micro:recursion", selector, scale=0.3, seed=2)
                 for selector in SELECTOR_NAMES]
        fleet, sink = run_observed(cells, on_error="continue")
        # A failure neither drops nor rebuilds the program it shares.
        assert built_programs == [("micro:recursion", 0.3)]
        assert fleet.reports == {}
        assert list(fleet.failures) == cells
        assert fleet.errors == len(cells)
        assert fleet.steps == 0
        assert fleet.refills == len(cells) - 1
        finished = sink.by_kind("fleet_finished")
        assert len(finished) == 1
        assert finished[0].get("errors") == len(cells)
        assert len(sink.by_kind("fleet_lane_failed")) == len(cells)
