"""The bench comparator (repro.bench.regress): one scoring function
behind `repro bench`, its `--check` gate, `--analyze` and
`repro obs report --bench`."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import BENCH_VERSION, load_baseline
from repro.bench.regress import (
    DEFAULT_BASELINE_PATH,
    analyze_run,
    format_analysis,
    load_record,
)
from repro.cli import main
from repro.errors import ConfigError


def make_workload(name="gzip-net", eps=1000.0, **overrides):
    record = {
        "name": name,
        "scale": 0.5,
        "seed": 1,
        "events_per_second": eps / 2,
        "host_factor": 2.0,
        "norm_events_per_second": eps,
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
        "bench_version": BENCH_VERSION,
        "quick": False,
        "workloads": [make_workload(eps=eps, **overrides)],
    }


class TestVerdicts:
    def test_run_scored_against_itself_passes(self):
        run = make_run()
        analysis = analyze_run(run, copy.deepcopy(run))
        assert analysis["verdict"] == "ok"
        entry = analysis["workloads"]["gzip-net"]
        assert entry["ratio"] == 1.0
        assert entry["fingerprint_changes"] == []
        assert entry["grown_phases"] == []

    @pytest.mark.parametrize("ratio, verdict", [
        (0.74, "regression"),
        (0.76, "warn"),
        (0.85, "warn"),
        (0.95, "ok"),
        (1.30, "ok"),
    ])
    def test_ratio_boundaries(self, ratio, verdict):
        analysis = analyze_run(make_run(eps=1000.0 * ratio), make_run())
        assert analysis["workloads"]["gzip-net"]["verdict"] == verdict
        assert analysis["verdict"] == verdict

    def test_normalized_rate_is_scored_not_raw(self):
        # The run's host was twice as slow: raw events/s halved, the
        # probe-normalized rate held.
        run = make_run(events_per_second=250.0, host_factor=4.0)
        assert analyze_run(run, make_run())["verdict"] == "ok"

    def test_worst_workload_sets_the_verdict(self):
        run = make_run()
        run["workloads"].append(make_workload("mcf-lei", eps=500.0))
        baseline = make_run()
        baseline["workloads"].append(make_workload("mcf-lei"))
        analysis = analyze_run(run, baseline)
        assert analysis["verdict"] == "regression"
        assert analysis["workloads"]["gzip-net"]["verdict"] == "ok"

    def test_fingerprint_change_and_grown_phase_are_reported(self):
        slow = make_run(eps=500.0, hit_rate=0.80, wall_seconds=2.0, phases={
            "interpret": {"seconds": 0.1, "entries": 10},
            "cache_walk": {"seconds": 1.9, "entries": 10},
        })
        analysis = analyze_run(slow, make_run())
        entry = analysis["workloads"]["gzip-net"]
        assert entry["fingerprint_changes"] == ["hit_rate 0.95 -> 0.8"]
        assert entry["grown_phases"] == ["cache_walk"]
        text = format_analysis(analysis)
        assert "fingerprint hit_rate 0.95 -> 0.8" in text
        assert "per-step time grew in: cache_walk" in text

    def test_dominant_phase_that_slowed_is_named(self):
        # cache_walk already held 73% of the wall time; its normalized
        # seconds per step rose 1.5x but its share only to 80%.
        baseline = make_run(wall_seconds=1.0, phases={
            "interpret": {"seconds": 0.27, "entries": 10},
            "cache_walk": {"seconds": 0.73, "entries": 10},
        })
        wall = 1.5 * 0.73 / 0.80
        run = make_run(eps=1000.0 / wall, wall_seconds=wall, phases={
            "interpret": {"seconds": wall - 1.5 * 0.73, "entries": 10},
            "cache_walk": {"seconds": 1.5 * 0.73, "entries": 10},
        })
        entry = analyze_run(run, baseline)["workloads"]["gzip-net"]
        assert entry["verdict"] == "regression"
        assert entry["grown_phases"] == ["cache_walk"]

    def test_aa_pair_names_no_phase(self):
        # Same code on a host twice as slow, with the jitter of a real
        # A/A pair: the small phase's time per step moves 30%, the
        # whole run's 3%.
        rerun = make_run(eps=970.0, host_factor=4.0, wall_seconds=2.06,
                         phases={
                             "interpret": {"seconds": 0.52, "entries": 10},
                             "cache_walk": {"seconds": 1.54, "entries": 10},
                         })
        entry = analyze_run(rerun, make_run())["workloads"]["gzip-net"]
        assert entry["verdict"] == "ok"
        assert entry["grown_phases"] == []


def absolute_units_record():
    """A version-1 record: absolute events/s, no probe factor."""
    run = make_run()
    run["bench_version"] = 1
    for record in run["workloads"]:
        del record["host_factor"], record["norm_events_per_second"]
    return run


class TestIncomparable:
    @pytest.mark.parametrize("reference, message", [
        (absolute_units_record(), "the baseline is a bench version 1 record"),
        (make_run(scale=0.25),
         "gzip-net ran at scale 0.25 seed 1, the run at scale 0.5 seed 1"),
        (make_run(seed=2),
         "gzip-net ran at scale 0.5 seed 2, the run at scale 0.5 seed 1"),
        (make_run(name="gcc-lei"), "no entry for gzip-net"),
    ], ids=["version-1", "scale", "seed", "workload"])
    def test_check_exits_2_with_one_line(self, tmp_path, capsys, reference,
                                         message):
        with pytest.raises(ConfigError, match=message):
            analyze_run(make_run(), reference)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(reference))
        run = tmp_path / "run.json"
        run.write_text(json.dumps(make_run()))
        assert main(["bench", "--analyze", "--check", "--baseline",
                     str(baseline), "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("workloads", [
        None, "gzip-net", [42], [{"name": "gzip-net", "scale": 0.5}],
    ], ids=["missing", "string", "not-a-record", "no-rate"])
    def test_malformed_run_is_not_scored(self, workloads):
        run = make_run()
        run["workloads"] = workloads
        with pytest.raises(ConfigError, match="the run is malformed"):
            analyze_run(run, make_run())

    def test_version_1_run_is_not_scored(self):
        run = absolute_units_record()
        with pytest.raises(ConfigError, match="the run is a bench version 1"):
            analyze_run(run, make_run())


class TestRecords:
    def test_missing_and_malformed_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="no bench record"):
            load_record(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_record(str(bad))
        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([make_run()]))
        with pytest.raises(ConfigError, match="one run object"):
            load_record(str(listed))


class TestRealArtifacts:
    def test_committed_bench_run_passes_against_committed_baseline(self):
        # The committed standard baseline, read as a run, scores ok
        # against itself on every pinned workload.
        run = load_record(DEFAULT_BASELINE_PATH)
        analysis = analyze_run(run, load_baseline(None))
        assert analysis["verdict"] == "ok"
        assert len(analysis["workloads"]) == 5


class TestFormatting:
    def test_terminal_report(self):
        analysis = analyze_run(make_run(eps=400.0), make_run())
        text = format_analysis(analysis)
        assert "bench regression analysis: REGRESSION" in text
        assert "gzip-net" in text
        assert "-60.0%" in text
        assert "throughput at 40% of baseline" in text

    def test_markdown_report(self):
        analysis = analyze_run(make_run(), make_run())
        text = format_analysis(analysis, markdown=True)
        assert text.startswith("## Bench regression analysis")
        assert ("| workload | norm ev/s | vs baseline | verdict | notes |"
                in text)
        assert "| gzip-net |" in text


class TestCli:
    def _record(self, tmp_path, name, run):
        path = tmp_path / name
        path.write_text(json.dumps(run))
        return str(path)

    def test_bench_analyze_reads_recorded_run(self, tmp_path, capsys):
        baseline = self._record(tmp_path, "base.json", make_run())
        slow = self._record(tmp_path, "slow.json", make_run(eps=100.0))
        args = ["bench", "--analyze", "--baseline", baseline, "--out", slow]
        # Without --check the verdicts are printed and the exit is 0.
        assert main(args) == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert main(args + ["--check"]) == 1
        ok = self._record(tmp_path, "ok.json", make_run(eps=950.0))
        assert main(["bench", "--analyze", "--check", "--baseline", baseline,
                     "--out", ok]) == 0

    def test_bench_analyze_missing_run_is_an_error(self, tmp_path, capsys):
        assert main(["bench", "--analyze",
                     "--out", str(tmp_path / "none.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no bench record")
        assert err.count("\n") == 1

    def test_bench_analyze_real_run_with_committed_baseline(self, capsys):
        assert main(["bench", "--analyze",
                     "--out", DEFAULT_BASELINE_PATH]) == 0
        assert "bench regression analysis: ok" in capsys.readouterr().out

    def test_obs_report_prints_the_same_verdicts(self, tmp_path, capsys):
        from repro.obs.telemetry import FleetTelemetry

        telemetry = str(tmp_path / "telemetry.json")
        FleetTelemetry().write(telemetry)
        run = copy.deepcopy(load_baseline(quick=True))
        run["workloads"][1]["norm_events_per_second"] *= 0.5
        run["workloads"][2]["norm_events_per_second"] *= 0.85
        path = self._record(tmp_path, "run.json", run)

        assert main(["bench", "--analyze", "--out", path]) == 0
        verdicts = capsys.readouterr().out
        assert "bench regression analysis: REGRESSION" in verdicts
        assert main(["obs", "report", telemetry, "--bench", path]) == 0
        assert verdicts in capsys.readouterr().out

    def test_obs_report_incomparable_run_is_an_error(self, tmp_path, capsys):
        from repro.obs.telemetry import FleetTelemetry

        telemetry = str(tmp_path / "telemetry.json")
        FleetTelemetry().write(telemetry)
        run = make_run()
        run["bench_version"] = 1
        path = self._record(tmp_path, "run.json", run)
        assert main(["obs", "report", telemetry, "--bench", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the run is a bench version 1 record")
        assert err.count("\n") == 1
