"""Streaming fleet scheduler tests (``run_fleet(max_lanes=...)``).

The streaming contract extends bit-identity to *admission schedules*:
per-cell reports are independent of queue order, ``max_lanes`` and
refill timing, memory stays bounded by the live-lane cap, and a
contained lane failure (``on_error="continue"``) frees its slot for
the next queued cell instead of aborting the fleet.  The oracle is
always the serial fused pipeline.  Fleets this small would run on the
fused core, so the kernel-scheduling classes force the kernel
(``fleet_kernel``, on numpy).  See ``docs/batching.md``.
"""

import os

import pytest

from repro.batch import (
    BatchCell,
    build_fleet_program,
    run_fleet,
)
from repro.batch.lane import Lane
from repro.config import SystemConfig
from repro.errors import ConfigError, ExecutionError
from repro.metrics.summary import MetricReport
from repro.obs import CollectingSink, Observer
from repro.system.simulator import simulate

#: A mixed pool — trace chains, a self loop, CFG regions, LEI and an
#: interp-heavy tail — so refills land lanes of every execution mode
#: into slots vacated by every other mode.
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


def serial_report(cell, config=None):
    program = build_fleet_program(cell.benchmark, cell.scale)
    return MetricReport.from_result(
        simulate(program, cell.selector, config, seed=cell.seed)
    )


@pytest.fixture(scope="module")
def oracle():
    return {cell: serial_report(cell) for cell in POOL}


def fleet_observer():
    sink = CollectingSink(categories=("fleet",))
    return Observer(sink=sink), sink


@pytest.mark.usefixtures("fleet_kernel")
class TestStreamingIdentity:
    """Reports never depend on the admission schedule."""

    def test_max_lanes_one_degenerates_to_serial_order(self, oracle):
        """One live slot streams the queue strictly in cell order."""
        observer, sink = fleet_observer()
        fleet = run_fleet(POOL, backend="numpy", max_lanes=1,
                          observer=observer)
        assert fleet.reports == oracle
        assert fleet.max_lanes == 1
        assert fleet.refills == len(POOL) - 1
        finished = [event for event in sink.events
                    if event.kind == "fleet_lane_finished"]
        assert [(e.get("benchmark"), e.get("selector"), e.get("seed"))
                for e in finished] == [
            (c.benchmark, c.selector, c.seed) for c in POOL]

    @pytest.mark.parametrize("max_lanes", [2, 3, 5, None])
    def test_cap_and_queue_order_do_not_move_results(self, max_lanes,
                                                     oracle):
        for cells in (POOL, tuple(reversed(POOL)), POOL[4:] + POOL[:4]):
            fleet = run_fleet(cells, backend="numpy", max_lanes=max_lanes)
            assert fleet.reports == oracle
            expected = (0 if max_lanes is None or max_lanes >= len(cells)
                        else len(cells) - max_lanes)
            assert fleet.refills == expected

    def test_refill_events_account_for_every_cell(self):
        """Admission events carry consistent queue-progress counters."""
        observer, sink = fleet_observer()
        fleet = run_fleet(POOL, backend="numpy", max_lanes=3,
                          observer=observer)
        refills = [event for event in sink.events
                   if event.kind == "fleet_refill"]
        assert len(refills) == fleet.refills == len(POOL) - 3
        for event in refills:
            # Every cell is exactly one of settled / live / queued.
            assert (event.get("settled") + event.get("active")
                    + event.get("queued")) == len(POOL)
            assert 0 <= event.get("slot") < 3
        # The last admission drained the queue.
        assert refills[-1].get("queued") == 0
        settled = [event.get("settled") for event in refills]
        assert settled == sorted(settled)

    def test_max_lanes_validation(self):
        with pytest.raises(ConfigError):
            run_fleet(POOL, max_lanes=0)
        with pytest.raises(ConfigError):
            run_fleet(POOL, on_error="retry")


BAD = BatchCell("micro:self_loop", "net", scale=0.1, seed=77)


@pytest.fixture
def failing_lane(monkeypatch):
    """Make the lane for ``BAD`` raise on its first scalar pass."""
    orig = Lane.run_scalar

    def boom(self, quota):
        if self.cell.seed == BAD.seed:
            raise ExecutionError("injected lane failure")
        return orig(self, quota)

    monkeypatch.setattr(Lane, "run_scalar", boom)


@pytest.mark.usefixtures("fleet_kernel")
class TestErrorContainment:
    """on_error='continue' refills an errored slot and streams on."""

    def test_admission_into_an_errored_slot(self, oracle, failing_lane):
        cells = (BAD,) + POOL  # the failure occupies slot 0 first
        observer, sink = fleet_observer()
        fleet = run_fleet(cells, backend="numpy", max_lanes=2,
                          on_error="continue", observer=observer)
        assert BAD in fleet.failures
        assert BAD not in fleet.reports
        assert fleet.errors == 1
        assert fleet.reports == oracle
        assert fleet.refills == len(cells) - 2
        # The errored slot was reused for a queued cell.
        refills = [event for event in sink.events
                   if event.kind == "fleet_refill"]
        assert any(event.get("slot") == 0 for event in refills)
        failed = [event for event in sink.events
                  if event.kind == "fleet_lane_failed"]
        assert len(failed) == 1
        assert failed[0].get("seed") == BAD.seed
        # The contained error carries the serial pipeline's context.
        error = fleet.failures[BAD]
        assert error.context["selector"] == "net"
        assert "injected lane failure" in str(error)

    def test_default_on_error_still_aborts(self, failing_lane):
        with pytest.raises(ExecutionError):
            run_fleet((BAD,) + POOL[:2], backend="numpy", max_lanes=1)


@pytest.mark.usefixtures("fleet_kernel")
class TestBoundedCacheStreaming:
    """Refill composes with bounded-cache eviction, bit-identically."""

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_eviction_during_streaming_matches_serial(self, policy):
        config = SystemConfig(cache_capacity_bytes=400,
                              cache_eviction_policy=policy)
        fleet = run_fleet(POOL, config=config, backend="numpy", max_lanes=2)
        for cell in POOL:
            assert fleet.reports[cell] == serial_report(cell, config)


class TestGridStreaming:
    """run_grid(fleet_max_lanes=...) — wiring and store digests."""

    def _store_files(self, root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
        return files

    def test_store_digests_independent_of_max_lanes(self, tmp_path):
        from repro.experiments.runner import run_grid

        kwargs = dict(
            scale=0.05, seed=5, benchmarks=("gzip", "bzip2"),
            selectors=("net", "lei"), code_version="v1",
        )
        serial = run_grid(store=str(tmp_path / "serial"),
                          backend="serial", **kwargs)
        streamed = run_grid(store=str(tmp_path / "streamed"),
                            backend="batched", fleet_max_lanes=3, **kwargs)
        assert serial.reports == streamed.reports
        assert (self._store_files(str(tmp_path / "serial"))
                == self._store_files(str(tmp_path / "streamed")))

    def test_fleet_max_lanes_requires_the_batched_backend(self):
        from repro.experiments.runner import run_grid

        with pytest.raises(ConfigError):
            run_grid(scale=0.05, benchmarks=("gzip",), selectors=("net",),
                     backend="serial", fleet_max_lanes=2)
