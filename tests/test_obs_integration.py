"""End-to-end observability: simulator, selectors, cache, CLI, errors."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError, SelectionError
from repro.execution.engine import ExecutionEngine
from repro.obs import (
    CollectingSink,
    MetricsRegistry,
    Observer,
    SpanTimer,
    full_observer,
    load_events,
)
from repro.system.simulator import Simulator, simulate
from repro.workloads import build_benchmark


def observed_run(program, selector, config=None, seed=1, **obs_kwargs):
    obs = Observer(
        metrics=MetricsRegistry(),
        sink=CollectingSink(**obs_kwargs),
        profiler=SpanTimer(),
    )
    result = simulate(program, selector, config, seed=seed, observer=obs)
    return result, obs


class TestEventEmission:
    @pytest.mark.parametrize("selector", ["net", "lei", "combined-net",
                                          "combined-lei"])
    def test_region_installed_matches_run_result(self, selector):
        program = build_benchmark("mcf", scale=0.05)
        result, obs = observed_run(program, selector)
        installed = obs.sink.by_kind("region_installed")
        assert len(installed) == result.region_count
        assert [e.get("entry") for e in installed] == [
            r.entry.full_label for r in result.regions
        ]
        assert [e.get("order") for e in installed] == [
            r.selection_order for r in result.regions
        ]
        assert [e.step for e in installed] == [
            r.selected_at_step for r in result.regions
        ]
        # Every event carries the run identity via common fields.
        assert all(e.get("selector") == selector for e in installed)

    def test_cache_exit_events_match_stats(self):
        program = build_benchmark("gzip", scale=0.05)
        result, obs = observed_run(program, "lei")
        exits = obs.sink.by_kind("cache_exit")
        assert len(exits) == result.stats.cache_exits
        entries = obs.sink.by_kind("cache_entered")
        assert len(entries) == result.stats.cache_entries

    def test_bounded_cache_emits_evictions(self):
        program = build_benchmark("gzip", scale=0.1)
        config = SystemConfig(cache_capacity_bytes=300)
        result, obs = observed_run(program, "lei", config)
        evicted = obs.sink.by_kind("cache_evicted")
        assert result.cache_evictions > 0
        assert len(evicted) == result.cache_evictions
        assert len(obs.sink.by_kind("cache_flushed")) == result.cache_flushes
        assert all(e.get("policy") == "flush" for e in evicted)

    def test_fifo_eviction_events(self):
        program = build_benchmark("gzip", scale=0.1)
        config = SystemConfig(cache_capacity_bytes=300,
                              cache_eviction_policy="fifo")
        result, obs = observed_run(program, "lei", config)
        evicted = obs.sink.by_kind("cache_evicted")
        assert len(evicted) == result.cache_evictions > 0
        assert all(e.get("policy") == "fifo" for e in evicted)

    def test_lei_emits_history_cleared_per_selection_attempt(self):
        program = build_benchmark("mcf", scale=0.05)
        result, obs = observed_run(program, "lei")
        cleared = obs.sink.by_kind("history_cleared")
        diagnostics = result.selector_diagnostics
        assert len(cleared) == (
            diagnostics["traces_installed"] + diagnostics["formations_abandoned"]
        )

    def test_combined_selector_emits_combine_attempted(self):
        program = build_benchmark("mcf", scale=0.1)
        result, obs = observed_run(program, "combined-lei")
        attempts = obs.sink.by_kind("combine_attempted")
        installed = [e for e in attempts if e.get("outcome") == "installed"]
        assert len(installed) == result.selector_diagnostics["regions_combined"]
        for event in installed:
            assert event.get("kept_blocks") <= event.get("observed_blocks")

    def test_run_lifecycle_events(self):
        program = build_benchmark("mcf", scale=0.05)
        result, obs = observed_run(program, "net")
        assert len(obs.sink.by_kind("run_started")) == 1
        finished = obs.sink.by_kind("run_finished")
        assert len(finished) == 1
        assert finished[0].get("regions") == result.region_count


class TestMetricsReconciliation:
    @pytest.mark.parametrize("selector", ["net", "lei"])
    def test_metrics_snapshot_reconciles_with_result(self, selector):
        program = build_benchmark("vpr", scale=0.05)
        result, obs = observed_run(program, selector)
        snap = result.metrics
        assert sum(snap["regions_installed_total"]["values"].values()) == (
            result.region_count
        )
        assert snap["cache_exits_total"]["values"][""] == result.stats.cache_exits
        assert snap["cache_entries_total"]["values"][""] == (
            result.stats.cache_entries
        )
        assert snap["region_transitions_total"]["values"][""] == (
            result.stats.region_transitions
        )
        assert snap["steps_total"]["values"]["interpret"] == (
            result.stats.interp_steps
        )
        assert snap["steps_total"]["values"]["cache"] == result.stats.cache_steps
        assert snap["instructions_total"]["values"]["cache"] == (
            result.stats.cache_instructions
        )
        hist = snap["region_instructions"]["values"][""]
        assert hist["count"] == result.region_count
        assert hist["sum"] == result.code_expansion

    def test_unobserved_run_has_empty_metrics(self):
        program = build_benchmark("mcf", scale=0.05)
        result = simulate(program, "net", seed=1)
        assert result.metrics == {}


class TestProfiling:
    def test_phase_timings_cover_the_run(self):
        program = build_benchmark("mcf", scale=0.05)
        result, obs = observed_run(program, "lei")
        timer = obs.profiler
        assert timer.depth == 0
        assert set(timer.totals) >= {"interpret", "selector_decide"}
        assert "region_build" in timer.totals  # lei installed regions
        assert timer.steps == (
            result.stats.interp_steps + result.stats.cache_steps
        )
        assert timer.throughput() > 0
        # Self-time phases must sum to (at most) the measured wall time.
        assert sum(timer.totals.values()) <= timer.total_seconds * 1.01


class TestTimelineSampling:
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fused", "reference"])
    def test_samples_on_multiples_plus_closing_sample(self, fast):
        program = build_benchmark("mcf", scale=0.05)
        simulator = Simulator(program, "net", sample_every=1000)
        engine = ExecutionEngine(program, seed=1)
        result = (simulator.run_program(engine) if fast
                  else simulator.run(engine.run()))
        total = result.stats.interp_steps + result.stats.cache_steps
        assert total % 1000  # so the run ends between two boundaries
        steps = [sample.step for sample in result.samples]
        assert steps == list(range(1000, total, 1000)) + [total]
        final = result.samples[-1]
        assert final.total_instructions == result.total_instructions_executed
        assert final.regions_selected == result.region_count
        assert final.region_transitions == result.region_transitions

    def test_sample_every_validated(self):
        program = build_benchmark("mcf", scale=0.05)
        with pytest.raises(ConfigError):
            Simulator(program, "net", sample_every=0)


class TestErrorContext:
    def broken_simulator(self, program):
        sink = CollectingSink()
        simulator = Simulator(program, "lei", observer=Observer(sink=sink))
        original = simulator.selector.buffer.insert
        calls = {"n": 0}

        def sabotage(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 40:
                raise SelectionError("synthetic fault")
            return original(*args, **kwargs)

        simulator.selector.buffer.insert = sabotage
        return simulator, sink

    def test_error_carries_context_and_run_failed_event(self):
        program = build_benchmark("mcf", scale=0.05)
        simulator, sink = self.broken_simulator(program)
        with pytest.raises(ReproError) as excinfo:
            simulator.run(ExecutionEngine(program, seed=1).run())
        exc = excinfo.value
        assert exc.context["benchmark"] == "mcf"
        assert exc.context["selector"] == "lei"
        assert exc.context["step"] > 0
        assert "benchmark=mcf" in str(exc)
        failed = [e for e in sink.events if e.kind == "run_failed"]
        assert len(failed) == 1
        assert failed[0].get("error") == "SelectionError"
        assert failed[0].get("message") == "synthetic fault"
        assert failed[0].step == exc.context["step"]

    def test_with_context_keeps_innermost_values(self):
        error = SelectionError("x").with_context(step=5)
        error.with_context(step=9, selector="net")
        assert error.context == {"step": 5, "selector": "net"}


class TestCliSurface:
    def test_run_writes_events_metrics_and_profile(self, tmp_path, capsys):
        events_path = str(tmp_path / "e.jsonl")
        metrics_path = str(tmp_path / "m.prom")
        code = cli_main([
            "run", "gzip", "lei", "--scale", "0.05",
            "--cache-capacity", "300",
            "--trace-events", events_path,
            "--metrics-out", metrics_path,
            "--profile",
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert "hit rate" in out
        assert "throughput" in err  # profile table goes to stderr
        events = list(load_events(events_path))
        kinds = {event.kind for event in events}
        assert {"region_installed", "cache_exit", "cache_evicted"} <= kinds
        metrics_text = open(metrics_path, encoding="utf-8").read()
        assert "# TYPE repro_regions_installed_total counter" in metrics_text
        assert "repro_cache_exits_total" in metrics_text

    def test_inspect_summarizes_without_rerunning(self, tmp_path, capsys):
        events_path = str(tmp_path / "e.jsonl")
        cli_main([
            "run", "gzip", "net", "--scale", "0.05",
            "--trace-events", events_path,
        ])
        capsys.readouterr()
        code = cli_main(["inspect", events_path])
        assert code == 0
        out, _ = capsys.readouterr()
        assert "events by kind" in out
        assert "region_installed" in out
        assert "selection decisions by selector" in out

    def test_severity_filter_flag(self, tmp_path):
        events_path = str(tmp_path / "e.jsonl")
        cli_main([
            "run", "gzip", "net", "--scale", "0.05",
            "--trace-events", events_path,
            "--events-min-severity", "info",
        ])
        events = list(load_events(events_path))
        assert events, "info-severity events must survive the filter"
        assert all(event.severity != "debug" for event in events)
        assert not [e for e in events if e.kind == "cache_exit"]

    def test_full_observer_convenience(self):
        obs = full_observer(profile=True)
        assert obs.metrics_enabled and obs.events_enabled
        assert obs.profiling_enabled
        program = build_benchmark("mcf", scale=0.05)
        result = simulate(program, "net", seed=1, observer=obs)
        assert result.metrics
        assert obs.sink.events
