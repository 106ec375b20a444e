"""Cross-process telemetry: worker reports, fleet merging, bit-identity."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.experiments.runner import run_grid
from repro.obs.events import make_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    FleetTelemetry,
    TelemetryReport,
    activate_worker_telemetry,
    deactivate_worker_telemetry,
    load_telemetry,
    worker_observer,
)
from repro.obs.observer import NULL_OBSERVER


class TestWorkerProtocol:
    def test_observer_is_null_when_inactive(self):
        assert worker_observer() is NULL_OBSERVER
        assert deactivate_worker_telemetry() is None

    def test_activate_record_deactivate(self):
        bundle = activate_worker_telemetry(ring_capacity=8)
        try:
            obs = worker_observer()
            assert obs is bundle.observer
            obs.count("steps_total", 5)
            obs.emit("region_installed", 3, entry="a", selector="net")
        finally:
            report = deactivate_worker_telemetry()
        assert worker_observer() is NULL_OBSERVER
        assert report.metrics["steps_total"]["values"] == {"": 5}
        assert [e["kind"] for e in report.events] == ["region_installed"]
        assert report.events_dropped == 0

    def test_ring_capacity_limits_shipped_tail(self):
        activate_worker_telemetry(ring_capacity=2)
        obs = worker_observer()
        for step in range(5):
            obs.emit("cache_exit", step)
        report = deactivate_worker_telemetry()
        assert len(report.events) == 2
        assert report.events_dropped == 3


class TestTelemetryReport:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc(3)
        report = TelemetryReport(
            metrics=registry.snapshot(),
            profile={"phases": {"interpret": {"seconds": 1.0, "entries": 2}},
                     "wall_seconds": 1.5, "steps": 10},
            events=[make_event("run_started", 0, benchmark="b",
                               selector="net", seed=1).to_dict()],
            events_dropped=4,
        )
        clone = TelemetryReport.from_dict(report.to_dict())
        assert clone == report

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ObservabilityError):
            TelemetryReport.from_dict([1, 2])


class TestFleetTelemetry:
    def make_report(self, steps: int) -> TelemetryReport:
        bundle = activate_worker_telemetry(ring_capacity=16)
        obs = bundle.observer
        obs.count("steps_total", steps)
        obs.emit("region_installed", 1, entry="a", selector="net")
        return deactivate_worker_telemetry()

    def test_absorb_merges_under_job_and_worker_labels(self):
        fleet = FleetTelemetry()
        fleet.absorb(self.make_report(3), job_id="j1", worker="w1")
        fleet.absorb(self.make_report(4).to_dict(), job_id="j2", worker="w2")
        counter = fleet.metrics.get("steps_total")
        assert counter.value(job_id="j1", worker="w1") == 3
        assert counter.value(job_id="j2", worker="w2") == 4
        assert fleet.metric_totals()["steps_total"] == 7
        # Worker events carry their provenance tags after merging.
        tagged = [e for e in fleet.merged_events()
                  if e.kind == "region_installed"]
        assert {e.get("job_id") for e in tagged} == {"j1", "j2"}
        assert {e.get("worker") for e in tagged} == {"w1", "w2"}

    def test_merged_events_interleave_parent_and_workers(self):
        fleet = FleetTelemetry()
        parent = fleet.attach_parent()
        parent.emit("job_submitted", 0, job_id="j1")
        fleet.absorb(self.make_report(1), job_id="j1", worker="w1")
        parent.emit("job_completed", 0, job_id="j1", attempt=1, elapsed=0.1)
        merged = fleet.merged_events()
        keys = [event.order_key for event in merged]
        assert keys == sorted(keys)
        assert {"job_submitted", "job_completed",
                "region_installed"} <= {e.kind for e in merged}

    def test_attach_parent_tees_an_existing_observer(self):
        from repro.obs.sink import CollectingSink
        from repro.obs.observer import Observer

        fleet = FleetTelemetry()
        mine = CollectingSink()
        teed = fleet.attach_parent(Observer(sink=mine))
        teed.emit("job_submitted", 0, job_id="j1")
        assert [e.kind for e in mine.events] == ["job_submitted"]
        assert [e.kind for e in fleet.parent_events] == ["job_submitted"]

    def test_document_round_trip(self, tmp_path):
        fleet = FleetTelemetry()
        fleet.absorb(self.make_report(9), job_id="j1", worker="w1")
        path = str(tmp_path / "telemetry.json")
        fleet.write(path)
        doc = load_telemetry(path)
        assert doc["telemetry_version"] == 1
        assert doc["jobs"] == ["j1"] and doc["workers"] == ["w1"]
        assert doc["metric_totals"]["steps_total"] == 9
        assert doc["events_dropped"] == 0


class TestGridTelemetry:
    GRID = dict(scale=0.1, seed=1, benchmarks=["gzip", "mcf"],
                selectors=["net"], telemetry=True, telemetry_ring=65536)

    def test_parallel_totals_bit_identical_to_serial(self):
        serial = run_grid(workers=1, **self.GRID)
        parallel = run_grid(workers=2, **self.GRID)
        # The simulation results themselves are unchanged...
        for cell, report in serial.reports.items():
            assert parallel.reports[cell] == report
        # ...and no worker telemetry was lost: the merged counter
        # totals match exactly (not approximately), with zero events
        # dropped on either side.
        serial_totals = serial.telemetry.metric_totals()
        assert serial_totals == parallel.telemetry.metric_totals()
        assert serial_totals["steps_total"] > 0
        assert serial.telemetry.events_dropped == 0
        assert parallel.telemetry.events_dropped == 0
        # Every (job, worker) pair reported in.
        assert len(parallel.telemetry.reports) == len(serial.reports)

    def test_disabled_telemetry_attaches_nothing(self):
        grid = run_grid(scale=0.1, seed=1, benchmarks=["gzip"],
                        selectors=["net"], workers=1)
        assert grid.telemetry is None

    def test_telemetry_out_feeds_obs_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "telemetry.json")
        run_grid(scale=0.1, seed=1, benchmarks=["gzip"], selectors=["net"],
                 workers=1, telemetry_out=path, telemetry_ring=65536)
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "merged counter totals" in out
        assert "steps_total" in out
        assert "job engine: 1 submitted, 1 completed" in out

    def test_merged_log_reports_its_whole_step_range(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.obs import event_from_dict

        path = str(tmp_path / "telemetry.json")
        run_grid(workers=2, telemetry_out=path, **self.GRID)
        events = [event_from_dict(data)
                  for data in load_telemetry(path)["events"]]
        # Ordered by time, the log starts and ends with step-0 job
        # events; the cells' events between them span many steps.
        assert events[0].step == 0 and events[-1].step == 0
        last = max(event.step for event in events)
        assert last > 0
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert f"{len(events)} events (steps 0..{last})" in out

    def test_obs_report_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "report", str(tmp_path / "nope.json")]) == 2
        assert "no telemetry document" in capsys.readouterr().err
