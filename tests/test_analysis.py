"""Tests for the post-run analysis package."""

import json

import pytest

from repro.analysis import (
    cache_summary,
    compare_runs,
    figure_to_dict,
    region_inventory,
    report_from_dict,
    report_to_dict,
    warmup_step,
    window_rates,
)
from repro.analysis.timeline import coldest_window
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.metrics.summary import MetricReport
from repro.system.results import TimelineSample
from repro.system.simulator import simulate


@pytest.fixture
def fast_config():
    return SystemConfig(net_threshold=5, lei_threshold=4)


@pytest.fixture
def sampled_run(call_loop_program, fast_config):
    return simulate(call_loop_program, "lei", fast_config, sample_every=100)


class TestTimeline:
    def test_samples_recorded(self, sampled_run):
        assert len(sampled_run.samples) >= 3
        steps = [s.step for s in sampled_run.samples]
        assert steps == sorted(steps)
        final = sampled_run.samples[-1]
        assert final.total_instructions == sampled_run.total_instructions_executed

    def test_no_samples_without_request(self, call_loop_program, fast_config):
        result = simulate(call_loop_program, "lei", fast_config)
        assert result.samples == []

    @pytest.mark.parametrize("fast", [True, False])
    def test_no_duplicate_sample_on_exact_boundary(
        self, straight_line_program, fast
    ):
        # The straight-line program runs exactly 3 steps; with
        # ``sample_every=3`` the periodic hook samples at step 3, and
        # the end-of-run sample would land on the very same step — it
        # must be skipped, not duplicated.
        result = simulate(straight_line_program, "net", sample_every=3,
                          fast=fast)
        steps = [s.step for s in result.samples]
        assert steps == [3]

    def test_loops_agree_on_samples(self, call_loop_program, fast_config,
                                    sampled_run):
        reference = simulate(call_loop_program, "lei", fast_config,
                             sample_every=100, fast=False)
        assert reference.samples == sampled_run.samples
        steps = [s.step for s in sampled_run.samples]
        total = sampled_run.stats.interp_steps + sampled_run.stats.cache_steps
        assert steps == list(range(100, total, 100)) + [total]

    def test_window_rates_derive_deltas(self, sampled_run):
        rates = window_rates(sampled_run.samples)
        assert rates
        for rate in rates:
            assert 0.0 <= rate.hit_rate <= 1.0
            assert rate.end_step > rate.start_step
            assert rate.instructions > 0

    def test_window_rates_start_at_step_zero(self, sampled_run):
        rates = window_rates(sampled_run.samples)
        first = sampled_run.samples[0]
        assert rates[0].start_step == 0
        assert rates[0].end_step == first.step
        assert rates[0].instructions == first.total_instructions
        assert rates[0].regions_selected == first.regions_selected
        assert [r.end_step for r in rates] == [
            s.step for s in sampled_run.samples]

    def test_window_rates_of_an_empty_run(self):
        # An empty run's only sample is its closing one, at step 0.
        assert window_rates([TimelineSample(0, 0, 0, 0, 0)]) == []

    def test_warmup_detected_for_hot_loop(self, sampled_run):
        # LEI selects at threshold 4; the loop runs 200 iterations, so
        # warm-up completes early in the run.
        step = warmup_step(sampled_run.samples, threshold=0.9)
        assert step is not None
        assert step < sampled_run.samples[-1].step

    def test_warmup_none_when_never_hot(self):
        samples = [
            TimelineSample(100, 100, 0, 0, 0),
            TimelineSample(200, 200, 10, 1, 0),
        ]
        assert warmup_step(samples, threshold=0.9) is None

    def test_warmup_requires_suffix_to_be_hot(self):
        samples = [
            TimelineSample(100, 10, 0, 0, 0),
            TimelineSample(200, 10, 100, 1, 0),   # hot window
            TimelineSample(300, 110, 100, 1, 0),  # cold again
            TimelineSample(400, 110, 200, 1, 0),  # hot until the end
        ]
        # The suffix starting at the second window is dragged cold by
        # the dip; only from step 300 is the rest of the run hot.
        assert warmup_step(samples, threshold=0.9) == 300

    def test_warmup_threshold_validated(self, sampled_run):
        with pytest.raises(ConfigError):
            warmup_step(sampled_run.samples, threshold=0.0)

    def test_coldest_window_skips_warmup(self):
        samples = [
            TimelineSample(100, 100, 0, 0, 0),     # pure warm-up
            TimelineSample(200, 100, 100, 1, 0),   # hot
            TimelineSample(300, 150, 150, 1, 0),   # phase dip (0.5)
            TimelineSample(400, 150, 250, 1, 0),   # hot again
        ]
        coldest = coldest_window(samples)
        assert coldest is not None
        assert coldest.start_step == 200
        assert coldest.hit_rate == 0.5

    def test_coldest_window_skips_only_the_first(self):
        # The first window is [0, 100); the second, at 0.2, is the
        # coldest of the rest.
        samples = [
            TimelineSample(100, 100, 0, 0, 0),
            TimelineSample(200, 180, 20, 1, 0),
            TimelineSample(300, 230, 70, 1, 0),
        ]
        coldest = coldest_window(samples)
        assert (coldest.start_step, coldest.end_step) == (100, 200)
        assert coldest.hit_rate == pytest.approx(0.2)

    def test_coldest_window_empty(self):
        assert coldest_window([]) is None

    def test_first_hot_window(self):
        from repro.analysis import first_hot_window

        samples = [
            TimelineSample(100, 100, 0, 0, 0),
            TimelineSample(200, 110, 90, 1, 0),    # 0.9 window
            TimelineSample(300, 111, 189, 1, 0),   # 0.99 window
        ]
        assert first_hot_window(samples, threshold=0.95) == 300
        assert first_hot_window(samples, threshold=0.85) == 200
        assert first_hot_window(samples, threshold=1.0) is None
        with pytest.raises(ConfigError):
            first_hot_window(samples, threshold=1.5)


class TestCompare:
    def test_lei_vs_net_ratios(self, call_loop_program, fast_config):
        lei = simulate(call_loop_program, "lei", fast_config)
        net = simulate(call_loop_program, "net", fast_config)
        comparison = compare_runs(lei, net)
        assert comparison.subject == "lei"
        assert comparison.baseline == "net"
        assert comparison.ratio("region_count") < 1.0
        assert comparison.ratio("exit_stubs") < 1.0
        # Both selectors cache the same five hot blocks here.
        assert comparison.shared_blocks == 5
        lines = comparison.summary_lines()
        assert any("region_transitions" in line for line in lines)

    def test_different_programs_rejected(self, call_loop_program,
                                         simple_loop_program, fast_config):
        a = simulate(call_loop_program, "net", fast_config)
        b = simulate(simple_loop_program, "net", fast_config)
        with pytest.raises(ConfigError, match="different programs"):
            compare_runs(a, b)

    def test_unknown_metric_rejected(self, call_loop_program, fast_config):
        lei = simulate(call_loop_program, "lei", fast_config)
        net = simulate(call_loop_program, "net", fast_config)
        with pytest.raises(ConfigError, match="unknown metric"):
            compare_runs(lei, net).ratio("speedup")


class TestInventory:
    def test_inventory_lists_regions_hottest_first(self, call_loop_program, fast_config):
        result = simulate(call_loop_program, "net", fast_config)
        text = region_inventory(result)
        assert f"{result.region_count} regions" in text
        executed_columns = [
            int(line.split()[6]) for line in text.splitlines()[2:]
        ]
        assert executed_columns == sorted(executed_columns, reverse=True)

    def test_inventory_limit(self, call_loop_program, fast_config):
        result = simulate(call_loop_program, "net", fast_config)
        text = region_inventory(result, limit=1)
        assert len(text.splitlines()) == 3  # header x2 + one region

    def test_cache_summary_mentions_bounded_stats(self):
        from repro.workloads import build_benchmark

        program = build_benchmark("eon", scale=0.2)
        config = SystemConfig(cache_capacity_bytes=500,
                              cache_eviction_policy="fifo")
        result = simulate(program, "net", config)
        summary = cache_summary(result)
        assert "evictions" in summary
        assert "hit rate" in summary


class TestSerialization:
    def test_report_round_trip(self, call_loop_program, fast_config):
        report = MetricReport.from_result(
            simulate(call_loop_program, "lei", fast_config)
        )
        data = report_to_dict(report)
        json.dumps(data)  # must be JSON-compatible
        assert report_from_dict(data) == report

    def test_wrong_schema_rejected(self, call_loop_program, fast_config):
        report = MetricReport.from_result(
            simulate(call_loop_program, "lei", fast_config)
        )
        data = report_to_dict(report)
        data["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema version"):
            report_from_dict(data)

    def test_unknown_and_missing_fields_rejected(self, call_loop_program, fast_config):
        report = MetricReport.from_result(
            simulate(call_loop_program, "lei", fast_config)
        )
        data = report_to_dict(report)
        data["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            report_from_dict(data)
        data = report_to_dict(report)
        del data["hit_rate"]
        with pytest.raises(ConfigError, match="missing"):
            report_from_dict(data)

    def test_figure_to_dict(self, call_loop_program, fast_config):
        from repro.experiments.figures import compute_figure
        from repro.experiments.runner import run_grid

        grid = run_grid(scale=0.05, benchmarks=("gzip",))
        figure = compute_figure("fig09", grid)
        data = figure_to_dict(figure)
        json.dumps(data)
        assert data["figure_id"] == "fig09"
        assert data["rows"][0]["benchmark"] == "gzip"

    def test_grid_round_trip_through_file(self, tmp_path):
        from repro.analysis import load_grid, save_grid
        from repro.experiments.figures import compute_figure
        from repro.experiments.runner import run_grid

        grid = run_grid(scale=0.05, benchmarks=("gzip", "mcf"))
        path = tmp_path / "grid.json"
        save_grid(grid, path)
        loaded = load_grid(path)
        assert loaded.reports == grid.reports
        assert loaded.scale == grid.scale
        assert loaded.config == grid.config
        # Figures computed from the loaded grid are identical.
        original = compute_figure("fig09", grid)
        reloaded = compute_figure("fig09", loaded)
        assert original.rows == reloaded.rows

    def test_grid_bad_schema_rejected(self, tmp_path):
        from repro.analysis import grid_from_dict

        with pytest.raises(ConfigError, match="schema"):
            grid_from_dict({"schema_version": 99})
