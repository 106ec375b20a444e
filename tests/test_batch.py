"""Tests for the vectorized batched fleet (repro.batch).

The batched backend's contract is *bit-identity*: for every cell it
must produce exactly the MetricReport the serial pipeline produces.
These tests enforce that across benchmarks, selectors, bounded caches
under eviction, step budgets, both backends, all three fleet regimes
(vector rounds, the kernel's straggler loop, the fused core) and the
error path — plus the SplitMix64 lane-RNG equivalence the whole scheme
rests on.  See ``docs/batching.md``.
"""

import os

import pytest

from repro.batch import (
    BatchCell,
    HAVE_NUMPY,
    available_backends,
    build_fleet_program,
    get_backend,
    run_fleet,
)
from repro.batch import backend as backend_mod
from repro.batch import fleet as fleet_mod
from repro.batch import kernel as kernel_mod
from repro.batch.backend import LaneRng
from repro.behavior.rng import SplitMix64
from repro.config import SystemConfig
from repro.errors import ConfigError, ExecutionError
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.obs import CollectingSink, Observer
from repro.system.simulator import simulate

BACKENDS = available_backends()

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


@pytest.fixture(params=["vector", "kernel", "fused"])
def lane_regime(request, monkeypatch):
    """Run the identity suite under all three fleet regimes.

    A fleet narrower than ``SCALAR_CUTOVER`` live lanes could never
    sweep a vector round, so the shipped rule runs every test-sized
    fleet on the fused core (``fused``).  ``kernel`` forces the kernel
    at the shipped cutover, where every region walk takes the per-lane
    straggler loop; ``vector`` sets the cutover to zero, so the same
    fleets run the kernel's vector rounds.  The kernel is numpy-only:
    python-backend fleets take the fused core in every regime.
    """
    if request.param == "vector":
        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
    elif request.param == "kernel":
        request.getfixturevalue("fleet_kernel")
    return request.param


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail the test if ``run_fleet`` builds a fleet kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_fleet built a FleetKernel")

    monkeypatch.setattr(fleet_mod, "FleetKernel", refuse)


@pytest.fixture
def tiny_call_depth(monkeypatch):
    """Cap the call stack at 3 frames: ``micro:recursion`` overflows."""
    orig = ExecutionEngine.__init__

    def patched(self, *args, **kwargs):
        kwargs["max_call_depth"] = 3
        orig(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionEngine, "__init__", patched)


def serial_report(cell: BatchCell, config=None, max_steps=None) -> MetricReport:
    """The oracle: one serial fused-pipeline run of the same cell."""
    program = build_fleet_program(cell.benchmark, cell.scale)
    result = simulate(program, cell.selector, config, seed=cell.seed,
                      max_steps=max_steps)
    return MetricReport.from_result(result)


def assert_fleet_matches_serial(cells, config=None, backend="auto",
                                max_steps=None):
    fleet = run_fleet(cells, config=config, backend=backend,
                      max_steps=max_steps)
    for cell in cells:
        assert fleet.reports[cell] == serial_report(
            cell, config=config, max_steps=max_steps
        ), f"batched report diverged from serial for {cell!r}"
    return fleet


class TestBackendResolution:
    def test_auto_prefers_numpy_when_available(self):
        assert get_backend("auto") == BACKENDS[0]

    def test_python_always_available(self):
        assert get_backend("python") == "python"
        assert "python" in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            get_backend("cuda")

    def test_explicit_numpy_without_numpy_is_an_error(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAVE_NUMPY", False)
        with pytest.raises(ConfigError, match="numpy"):
            get_backend("numpy")
        # auto degrades silently — that's the whole point of "auto".
        assert get_backend("auto") == "python"


@needs_numpy
class TestLaneRngEquivalence:
    """LaneRng over a shared state column == the scalar SplitMix64."""

    def _pair(self, seed):
        import numpy as np

        states = np.zeros(4, dtype=np.uint64)
        states[2] = np.uint64(seed)
        return SplitMix64(seed), LaneRng(states, 2), states

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_scalar_methods_match(self, seed):
        scalar, lane, _ = self._pair(seed)
        for _ in range(50):
            assert lane.next_u64() == scalar.next_u64()
            assert lane.random() == scalar.random()
            assert lane.randint(3, 17) == scalar.randint(3, 17)
            assert lane.bernoulli(0.3) == scalar.bernoulli(0.3)
        weights = (0.2, 0.5, 1.0)
        for _ in range(20):
            assert (lane.weighted_index(weights)
                    == scalar.weighted_index(weights))

    def test_fork_matches(self):
        scalar, lane, _ = self._pair(7)
        assert lane.fork().next_u64() == scalar.fork().next_u64()

    def test_vector_draws_match_lane_draws(self):
        import numpy as np

        from repro.batch.backend import vector_next_u64, vector_random

        seeds = [0, 5, 99, 2**63, 12345, 8, 8, 1]
        states = np.array(seeds, dtype=np.uint64)
        mirror = states.copy()
        idx = np.arange(len(seeds), dtype=np.int64)
        vec_f = vector_random(states, idx)
        vec_u = vector_next_u64(states, idx)
        for i, seed in enumerate(seeds):
            lane = LaneRng(mirror, i)
            assert vec_f[i] == lane.random()
            assert vec_u[i] == lane.next_u64()
        # The shared column advanced identically on both paths.
        assert (states == mirror).all()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.usefixtures("lane_regime")
class TestFleetBitIdentity:
    def test_micro_motifs_all_selectors(self, backend):
        cells = [
            BatchCell(f"micro:{motif}", selector, scale=0.3, seed=seed)
            for motif in ("figure2", "figure4", "self_loop", "linked_chain",
                          "recursion")
            for selector in ("net", "lei", "combined-net")
            for seed in (1, 9)
        ]
        assert_fleet_matches_serial(cells, backend=backend)

    def test_spec_benchmarks(self, backend):
        cells = [
            BatchCell(bench, selector, scale=0.05, seed=3)
            for bench in ("gzip", "mcf")
            for selector in ("net", "lei")
        ]
        assert_fleet_matches_serial(cells, backend=backend)

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_bounded_cache_under_eviction(self, backend, policy):
        config = SystemConfig(cache_capacity_bytes=2000,
                              cache_eviction_policy=policy)
        cells = [
            BatchCell(bench, "net", scale=0.05, seed=7)
            for bench in ("gzip", "bzip2")
        ] + [BatchCell("micro:linked_chain", "lei", scale=0.5, seed=7)]
        assert_fleet_matches_serial(cells, config=config, backend=backend)

    @pytest.mark.parametrize("max_steps", [1, 7, 997])
    def test_step_budget_truncation(self, backend, max_steps):
        cells = [
            BatchCell("micro:alternating", "net", scale=0.3, seed=1),
            BatchCell("gzip", "lei", scale=0.05, seed=2),
        ]
        assert_fleet_matches_serial(cells, backend=backend,
                                    max_steps=max_steps)


@needs_numpy
@pytest.mark.usefixtures("fleet_kernel")
def test_numpy_and_python_backends_agree():
    cells = [
        BatchCell("micro:figure3", sel, scale=0.3, seed=s)
        for sel in ("net", "lei") for s in (1, 2)
    ]
    by_numpy = run_fleet(cells, backend="numpy")
    by_python = run_fleet(cells, backend="python")
    assert by_numpy.backend == "numpy"
    assert by_python.backend == "python"
    for cell in cells:
        assert by_numpy.reports[cell] == by_python.reports[cell]


class TestFleetValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="at least one cell"):
            run_fleet([])

    def test_duplicate_cell_rejected(self):
        cell = BatchCell("gzip", "net", scale=0.05, seed=1)
        with pytest.raises(ConfigError, match="duplicate"):
            run_fleet([cell, cell])


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
    """Mid-run eviction folds pending vector counts *first*.

    A bounded cache snapshots region stats at the eviction moment (the
    ``cache_evicted`` event, regeneration accounting); counts still
    banked in the kernel's arena columns at that point must be folded
    into the region before it loses residency — folding later would
    resurrect a retired region's totals, folding twice would double
    count.  The spy holds the batched pipeline to the serial oracle at
    every single eviction, not just at end of run.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_eviction_moment_stats_match_serial(self, backend, policy,
                                                monkeypatch):
        from repro.cache.codecache import BoundedCodeCache

        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
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
        cells = ([BatchCell("gzip", "net", scale=0.05, seed=seed)
                  for seed in (3, 7)]
                 + [BatchCell("bzip2", "net", scale=0.1, seed=3)])
        serial_seqs = []
        for cell in cells:
            by_cache.clear()
            program = build_fleet_program(cell.benchmark, cell.scale)
            simulate(program, cell.selector, config, seed=cell.seed)
            assert len(by_cache) <= 1
            serial_seqs.extend(by_cache.values())
        assert serial_seqs, "workloads too small to trigger eviction"
        by_cache.clear()
        run_fleet(cells, config=config, backend=backend)
        assert sorted(by_cache.values()) == sorted(serial_seqs)


class TestCompactionIdentity:
    """Lane compaction re-sorts slots without disturbing any lane."""

    def _fragmenting_cells(self):
        # Two long lanes pinned to the extreme slots with short lanes
        # between them: the shorts finish early, leaving the vector-mode
        # survivors spanning the whole slot range (span >> 2 * count,
        # the kernel's fragmentation trigger).
        return [
            BatchCell("micro:linked_chain", "net",
                      scale=0.5 if seed in (0, 15) else 0.02, seed=seed)
            for seed in range(16)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compaction_toggle_is_bit_identical(self, backend, monkeypatch):
        monkeypatch.setattr(kernel_mod, "SCALAR_CUTOVER", 0)
        monkeypatch.setattr(kernel_mod, "COMPACT_EVERY", 1)
        compactions = []
        orig = kernel_mod.FleetKernel._compact

        def spy(kernel):
            compactions.append(kernel.rounds)
            orig(kernel)

        monkeypatch.setattr(kernel_mod.FleetKernel, "_compact", spy)
        cells = self._fragmenting_cells()
        on = run_fleet(cells, backend=backend, compaction=True)
        off = run_fleet(cells, backend=backend, compaction=False)
        if backend == "numpy":
            assert compactions, "fleet never fragmented; test is inert"
        for cell in cells:
            assert on.reports[cell] == off.reports[cell]
            assert on.reports[cell] == serial_report(cell)


class TestErrorContextParity:
    """A fleet abort carries the same diagnostic context as a serial one."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.usefixtures("lane_regime")
    def test_call_overflow_matches_serial(self, tiny_call_depth, backend):
        program = build_fleet_program("micro:recursion", 0.3)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, "net", seed=2)
        cells = [BatchCell("micro:recursion", "net", scale=0.3, seed=s)
                 for s in (2, 3, 4, 5)]
        with pytest.raises(ExecutionError) as fleet_exc:
            run_fleet(cells, backend=backend)
        # Same canonical message body...
        assert (str(fleet_exc.value).split(" [")[0]
                == str(serial_exc.value).split(" [")[0])
        # ...and the same context keys: benchmark, selector and the
        # failing lane's cache clock (clock advancement is lazy in both
        # pipelines, so the step may trail serial's by a point or two).
        assert fleet_exc.value.context["benchmark"] == "micro_recursion"
        assert fleet_exc.value.context["selector"] == "net"
        serial_step = serial_exc.value.context["step"]
        assert abs(fleet_exc.value.context["step"] - serial_step) <= 2


class TestFusedCore:
    """Fleets that could never fill a vector round run on the fused core.

    The cells run one after another through ``Simulator.run_program``
    and the fleet reads as a one-slot stream: the same events, failure
    containment and ``FleetResult`` shape a ``max_lanes=1`` kernel run
    reports.
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
    @pytest.mark.usefixtures("no_kernel")
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

    @pytest.mark.usefixtures("no_kernel")
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

    @pytest.mark.usefixtures("no_kernel")
    def test_raise_aborts_with_the_serial_error(self, tiny_call_depth):
        bad = BatchCell("micro:recursion", "net", scale=0.3, seed=2)
        program = build_fleet_program(bad.benchmark, bad.scale)
        with pytest.raises(ExecutionError) as serial_exc:
            simulate(program, bad.selector, seed=bad.seed)
        with pytest.raises(ExecutionError) as fleet_exc:
            run_fleet(self.CELLS[:1] + (bad,) + self.CELLS[1:2])
        assert str(fleet_exc.value) == str(serial_exc.value)
        assert fleet_exc.value.context == serial_exc.value.context

    @pytest.mark.usefixtures("no_kernel")
    def test_each_program_is_built_once(self, monkeypatch):
        built = []
        orig = fleet_mod.build_fleet_program

        def counting(benchmark, scale):
            built.append((benchmark, scale))
            return orig(benchmark, scale)

        monkeypatch.setattr(fleet_mod, "build_fleet_program", counting)
        # linked_chain@0.1 recurs after an unrelated cell: it must stay
        # built until its last queued cell has run.
        run_fleet(self.CELLS)
        assert sorted(built) == sorted({(c.benchmark, c.scale)
                                        for c in self.CELLS})

    @pytest.mark.usefixtures("no_kernel")
    def test_wide_python_fleet_takes_the_fused_core(self):
        cells = [BatchCell("micro:self_loop", "net", scale=0.01, seed=s)
                 for s in range(kernel_mod.SCALAR_CUTOVER)]
        fleet = run_fleet(cells, backend="python")
        assert fleet.backend == "python"
        assert fleet.max_lanes == 1
        assert fleet.rounds == len(cells)
        for cell in cells[:3] + cells[-3:]:
            assert fleet.reports[cell] == serial_report(cell)

    @needs_numpy
    def test_wide_numpy_fleet_builds_the_kernel(self, monkeypatch):
        built = []
        orig = fleet_mod.FleetKernel

        def spy(*args, **kwargs):
            kernel = orig(*args, **kwargs)
            built.append(kernel)
            return kernel

        monkeypatch.setattr(fleet_mod, "FleetKernel", spy)
        width = kernel_mod.SCALAR_CUTOVER
        cells = [BatchCell("micro:self_loop", "net", scale=0.01, seed=s)
                 for s in range(width + 2)]
        sink = CollectingSink(categories=("fleet",))
        fleet = run_fleet(cells, backend="numpy", max_lanes=width,
                          observer=Observer(sink=sink))
        assert len(built) == 1
        assert fleet.max_lanes == width
        assert fleet.refills == 2
        assert sink.by_kind("fleet_started")[0].get("max_lanes") == width
        for cell in cells[:3] + cells[-3:]:
            assert fleet.reports[cell] == serial_report(cell)


class TestGridStoreDigestIdentity:
    """run_grid(backend="batched") persists byte-identical store files."""

    def _store_files(self, root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
        return files

    def test_batched_grid_store_matches_serial(self, tmp_path):
        from repro.experiments.runner import run_grid

        kwargs = dict(
            scale=0.05, seed=5, benchmarks=("gzip", "bzip2"),
            selectors=("net", "lei"), code_version="v1",
        )
        serial = run_grid(store=str(tmp_path / "serial"),
                          backend="serial", **kwargs)
        batched = run_grid(store=str(tmp_path / "batched"),
                           backend="batched", **kwargs)
        assert serial.reports == batched.reports
        serial_files = self._store_files(str(tmp_path / "serial"))
        batched_files = self._store_files(str(tmp_path / "batched"))
        assert serial_files == batched_files
