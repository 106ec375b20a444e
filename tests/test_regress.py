"""The bench-regression sentinel (repro.bench.regress)."""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.bench.regress import (
    analyze_path,
    analyze_run,
    format_analysis,
    load_trajectory,
    robust_center,
    robust_spread,
)
from repro.errors import ConfigError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_workload(name="gzip-net", eps=1000.0, **overrides):
    record = {
        "name": name,
        "scale": 0.5,
        "seed": 1,
        "events_per_second": eps,
        "wall_seconds": 1.0,
        "steps": 1000,
        "hit_rate": 0.95,
        "region_count": 40,
        "total_instructions": 5000,
        "phases": {
            "interpret": {"seconds": 0.2, "entries": 10},
            "cache_walk": {"seconds": 0.8, "entries": 10},
        },
    }
    record.update(overrides)
    return record


def make_run(eps=1000.0, **overrides):
    return {
        "quick": False,
        "workloads": [make_workload(eps=eps, **overrides)],
        "totals": {"events_per_second": eps},
    }


class TestLoadTrajectory:
    def test_single_run_normalizes_to_list(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(make_run()))
        trajectory = load_trajectory(str(path))
        assert isinstance(trajectory, list) and len(trajectory) == 1

    def test_list_of_runs_kept_in_order(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps([make_run(1000.0), make_run(900.0)]))
        trajectory = load_trajectory(str(path))
        assert [r["totals"]["events_per_second"] for r in trajectory] == [
            1000.0, 900.0]

    def test_missing_and_malformed_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_trajectory(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_trajectory(str(bad))
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        with pytest.raises(ConfigError):
            load_trajectory(str(scalar))


class TestRobustStats:
    def test_median(self):
        assert robust_center([]) == 0.0
        assert robust_center([3.0]) == 3.0
        assert robust_center([1.0, 100.0, 2.0]) == 2.0
        assert robust_center([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_scaled_mad(self):
        assert robust_spread([5.0, 5.0, 5.0]) == 0.0
        # MAD of [1,2,3] is 1; scaled by the normal-consistency factor.
        assert robust_spread([1.0, 2.0, 3.0]) == pytest.approx(1.4826)


class TestBaselineVerdicts:
    def test_identical_run_is_ok(self):
        run = make_run()
        analysis = analyze_run(run, baseline=copy.deepcopy(run))
        assert analysis["verdict"] == "ok"
        entry = analysis["workloads"]["gzip-net"]
        assert entry["baseline_ratio"] == 1.0
        assert entry["notes"] == []
        assert analysis["fingerprint_changes"] == []
        assert analysis["totals"]["baseline_ratio"] == 1.0

    def test_injected_regression_is_flagged(self):
        analysis = analyze_run(make_run(eps=400.0), baseline=make_run())
        entry = analysis["workloads"]["gzip-net"]
        assert analysis["verdict"] == "regression"
        assert entry["verdict"] == "regression"
        assert entry["baseline_ratio"] == 0.4
        assert any("40% of baseline" in note for note in entry["notes"])

    def test_moderate_drop_is_a_warning(self):
        analysis = analyze_run(make_run(eps=850.0), baseline=make_run())
        assert analysis["verdict"] == "warn"

    def test_incomparable_baseline_is_noted_not_compared(self):
        analysis = analyze_run(
            make_run(), baseline=make_run(scale=0.25))
        entry = analysis["workloads"]["gzip-net"]
        assert entry["baseline_ratio"] is None
        assert entry["verdict"] == "ok"
        assert "no comparable baseline workload" in entry["notes"]

    def test_fingerprint_change_is_reported(self):
        analysis = analyze_run(
            make_run(hit_rate=0.80), baseline=make_run())
        assert analysis["fingerprint_changes"] == [
            "gzip-net: hit_rate 0.95 -> 0.8"]

    def test_legacy_fleet_records_are_not_scored(self):
        # Recorded runs may still carry the retired "batched" fleet
        # list; a fleet at a tenth of its baseline is no alarm, and no
        # fleet row reaches the report.
        def with_fleet(run, eps):
            run["batched"] = [{"name": "mixed-fleet", "backend": "numpy",
                               "lanes": 128, "max_lanes": 32, "steps": 10,
                               "events_per_second": eps}]
            return run

        run = with_fleet(make_run(), 100.0)
        baseline = with_fleet(make_run(), 1000.0)
        analysis = analyze_run(run, baseline=baseline,
                               trajectory=[copy.deepcopy(baseline)] * 5)
        assert analysis["verdict"] == "ok"
        assert "batched" not in analysis
        assert analysis["fingerprint_changes"] == []
        assert "fleet" not in format_analysis(analysis)
        assert "fleet" not in format_analysis(analysis, markdown=True)

    def test_phase_share_growth_names_the_suspect(self):
        slow = make_run(eps=500.0)
        # All of the extra time lands in cache_walk.
        slow["workloads"][0]["wall_seconds"] = 2.0
        slow["workloads"][0]["phases"] = {
            "interpret": {"seconds": 0.1, "entries": 10},
            "cache_walk": {"seconds": 1.9, "entries": 10},
        }
        analysis = analyze_run(slow, baseline=make_run())
        entry = analysis["workloads"]["gzip-net"]
        assert "cache_walk" in entry["phase_share_growth"]
        assert any("cache_walk" in note for note in entry["notes"])


class TestTrajectoryVerdicts:
    def test_drop_below_trailing_window_is_flagged(self):
        history = [make_run(eps) for eps in
                   (1000.0, 1010.0, 990.0, 1005.0, 995.0)]
        current = make_run(600.0)
        analysis = analyze_run(current, trajectory=history + [current])
        entry = analysis["workloads"]["gzip-net"]
        assert entry["trajectory"]["runs"] == 5
        assert entry["trajectory"]["median_events_per_second"] == 1000.0
        assert entry["verdict"] == "regression"
        assert any("below trailing-5 median" in note
                   for note in entry["notes"])

    def test_jitter_within_tolerance_is_not_flagged(self):
        history = [make_run(1000.0) for _ in range(5)]
        # Identical reruns give MAD == 0; a 5% wobble must stay ok.
        analysis = analyze_run(make_run(950.0), trajectory=history)
        assert analysis["workloads"]["gzip-net"]["verdict"] == "ok"

    def test_current_run_excluded_from_its_own_window(self):
        current = make_run(600.0)
        analysis = analyze_run(current, trajectory=[current])
        assert analysis["trajectory_runs"] == 0
        assert "trajectory" not in analysis["workloads"]["gzip-net"]


class TestRealArtifacts:
    def test_committed_bench_run_passes_against_committed_baseline(self):
        from repro.bench import load_baseline

        path = os.path.join(REPO_ROOT, "BENCH_run.json")
        analysis = analyze_path(path, baseline=load_baseline(None))
        assert analysis["verdict"] == "ok"
        assert len(analysis["workloads"]) == 5


class TestFormatting:
    def test_terminal_report(self):
        analysis = analyze_run(make_run(eps=400.0), baseline=make_run())
        text = format_analysis(analysis)
        assert "bench regression analysis: REGRESSION" in text
        assert "gzip-net" in text
        assert "-60.0%" in text

    def test_markdown_report(self):
        analysis = analyze_run(make_run(), baseline=make_run())
        text = format_analysis(analysis, markdown=True)
        assert text.startswith("## Bench regression analysis")
        assert "| workload | events/s | vs baseline | verdict | notes |" in text
        assert "| gzip-net |" in text


class TestCli:
    def test_bench_analyze_reads_recorded_run(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps(make_run()))
        # Advisory by design: even a regression exits 0.
        slow = make_run(eps=100.0)
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps([make_run(), slow]))
        assert main(["bench", "--analyze", "--no-baseline",
                     "--out", str(path)]) == 0
        assert main(["bench", "--analyze", "--no-baseline",
                     "--out", str(slow_path)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_bench_analyze_missing_run_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "--analyze",
                     "--out", str(tmp_path / "none.json")]) == 2
        assert "record one with" in capsys.readouterr().err

    def test_bench_analyze_real_run_with_committed_baseline(self, capsys):
        from repro.cli import main

        path = os.path.join(REPO_ROOT, "BENCH_run.json")
        assert main(["bench", "--analyze", "--out", path]) == 0
        assert "bench regression analysis: ok" in capsys.readouterr().out
