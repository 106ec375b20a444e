"""The bench comparator (repro.bench.regress): one scoring function of
paired base/head runs behind `repro bench --against REV`, its `--check`
gate and `repro obs report --bench`."""

from __future__ import annotations

import json

import pytest

from repro.bench import BENCH_VERSION
from repro.bench.regress import analyze_pairs, format_analysis, load_record
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
        "git_sha": "0123456789abcdef",
        "quick": False,
        "workloads": [make_workload(eps=eps, **overrides)],
    }


def paired(*pairs):
    """A paired record from ``(base run, head run)`` tuples."""
    return {
        "bench_version": BENCH_VERSION,
        "quick": False,
        "against": "HEAD~1",
        "pairs": [{"base": base, "head": head} for base, head in pairs],
    }


def head_at(*ratios):
    """One pair per ratio: the head's rate over an unchanged base's."""
    return paired(*((make_run(), make_run(eps=1000.0 * ratio))
                    for ratio in ratios))


class TestVerdicts:
    def test_aa_record_scores_ok(self):
        analysis = analyze_pairs(head_at(1.0, 1.0, 1.0, 1.0, 1.0))
        assert analysis["verdict"] == "ok"
        assert analysis["pairs"] == 5
        assert analysis["unscored"] == []
        entry = analysis["workloads"]["gzip-net"]
        assert entry["ratio"] == 1.0
        assert entry["ratio_range"] == [1.0, 1.0]
        assert entry["fingerprint_changes"] == []
        assert entry["grown_phases"] == []

    def test_head_at_six_tenths_is_a_regression(self):
        analysis = analyze_pairs(head_at(0.6, 0.6, 0.6, 0.6, 0.6))
        assert analysis["verdict"] == "regression"
        assert analysis["workloads"]["gzip-net"]["ratio"] == 0.6

    @pytest.mark.parametrize("ratio, verdict", [
        (0.84, "regression"),
        (0.85, "regression"),
        (0.86, "warn"),
        (0.90, "warn"),
        (0.95, "ok"),
        (1.30, "ok"),
    ])
    def test_ratio_boundaries(self, ratio, verdict):
        analysis = analyze_pairs(head_at(ratio))
        assert analysis["workloads"]["gzip-net"]["verdict"] == verdict
        assert analysis["verdict"] == verdict

    def test_median_pair_decides_the_verdict_not_the_worst(self):
        # Two pairs a neighbour slowed on the head's side; the median
        # pair reads 0.98.
        analysis = analyze_pairs(head_at(1.0, 0.5, 0.98, 1.02, 0.4))
        entry = analysis["workloads"]["gzip-net"]
        assert entry["ratio"] == 0.98
        assert entry["ratio_range"] == [0.4, 1.02]
        assert analysis["verdict"] == "ok"

    def test_ratios_pair_each_head_with_its_own_base(self):
        # The host ran the third pair slower on both sides; the record
        # is A/A pair by pair, though the sides' medians differ.
        record = paired((make_run(1000.0), make_run(1000.0)),
                        (make_run(1100.0), make_run(1100.0)),
                        (make_run(500.0), make_run(500.0)))
        assert analyze_pairs(record)["workloads"]["gzip-net"]["ratio"] == 1.0

    def test_normalized_rate_is_scored_not_raw(self):
        # The head's host was twice as slow: raw events/s halved, the
        # probe-normalized rate held.
        record = paired((make_run(), make_run(events_per_second=250.0,
                                              host_factor=4.0)))
        assert analyze_pairs(record)["verdict"] == "ok"

    def test_worst_workload_sets_the_verdict(self):
        base, head = make_run(), make_run()
        base["workloads"].append(make_workload("mcf-lei"))
        head["workloads"].append(make_workload("mcf-lei", eps=500.0))
        analysis = analyze_pairs(paired((base, head)))
        assert analysis["verdict"] == "regression"
        assert analysis["workloads"]["gzip-net"]["verdict"] == "ok"

    def test_fingerprint_changes_and_grown_phases_are_named_from_the_pairs(
            self):
        # cache_walk's time per step grew in two pairs of three (the
        # median pair); interpret's in one only, which no median holds.
        slow_walk = {"interpret": {"seconds": 0.1, "entries": 10},
                     "cache_walk": {"seconds": 1.9, "entries": 10}}
        slow_interp = {"interpret": {"seconds": 0.9, "entries": 10},
                       "cache_walk": {"seconds": 0.8, "entries": 10}}
        record = paired(
            (make_run(), make_run(500.0, hit_rate=0.80, phases=slow_walk)),
            (make_run(), make_run(500.0, hit_rate=0.80, phases=slow_walk)),
            (make_run(), make_run(500.0, hit_rate=0.80, phases=slow_interp)),
        )
        analysis = analyze_pairs(record)
        entry = analysis["workloads"]["gzip-net"]
        assert entry["fingerprint_changes"] == ["hit_rate 0.95 -> 0.8"]
        assert entry["grown_phases"] == ["cache_walk"]
        text = format_analysis(analysis)
        assert "fingerprint hit_rate 0.95 -> 0.8" in text
        assert "per-step time grew in: cache_walk" in text

    def test_dominant_phase_that_slowed_is_named(self):
        # cache_walk already held 73% of the wall time; its normalized
        # seconds per step rose 1.5x but its share only to 80%.
        base = make_run(wall_seconds=1.0, phases={
            "interpret": {"seconds": 0.27, "entries": 10},
            "cache_walk": {"seconds": 0.73, "entries": 10},
        })
        wall = 1.5 * 0.73 / 0.80
        head = make_run(eps=1000.0 / wall, wall_seconds=wall, phases={
            "interpret": {"seconds": wall - 1.5 * 0.73, "entries": 10},
            "cache_walk": {"seconds": 1.5 * 0.73, "entries": 10},
        })
        entry = analyze_pairs(paired((base, head)))["workloads"]["gzip-net"]
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
        analysis = analyze_pairs(paired((make_run(), rerun)))
        entry = analysis["workloads"]["gzip-net"]
        assert entry["verdict"] == "ok"
        assert entry["grown_phases"] == []


def absolute_units_record():
    """A version-1 run: absolute events/s, no probe factor."""
    run = make_run()
    run["bench_version"] = 1
    for record in run["workloads"]:
        del record["host_factor"], record["norm_events_per_second"]
    return run


class TestUnscorable:
    @pytest.mark.parametrize("base", [
        make_run(scale=0.25), make_run(seed=2), make_run(name="gcc-lei"),
    ], ids=["scale", "seed", "workload"])
    def test_workloads_not_run_alike_are_unscored(self, base):
        base["workloads"].append(make_workload("mcf-lei"))
        head = make_run()
        head["workloads"].append(make_workload("mcf-lei", eps=500.0))
        analysis = analyze_pairs(paired((base, head)))
        assert list(analysis["workloads"]) == ["mcf-lei"]
        assert "gzip-net" in analysis["unscored"]
        assert analysis["verdict"] == "regression"
        assert "unscored (not run alike on both sides): " in (
            format_analysis(analysis))

    @pytest.mark.parametrize("side", ["base", "head"])
    def test_version_1_side_is_not_scored(self, side):
        sides = {"base": make_run(), "head": make_run()}
        sides[side] = absolute_units_record()
        with pytest.raises(ConfigError,
                           match=f"the {side} run is a bench version 1"):
            analyze_pairs(paired((sides["base"], sides["head"])))

    @pytest.mark.parametrize("workloads", [
        None, "gzip-net", [42], [{"name": "gzip-net", "scale": 0.5}],
        [make_workload(eps=0.0)],
        [make_workload(norm_events_per_second="fast")],
    ], ids=["missing", "string", "not-a-record", "no-rate", "zero-rate",
            "text-rate"])
    def test_malformed_run_is_not_scored(self, workloads):
        head = make_run()
        head["workloads"] = workloads
        with pytest.raises(ConfigError, match="the head run is malformed"):
            analyze_pairs(paired((make_run(), head)))

    @pytest.mark.parametrize("record", [
        make_run(), {"pairs": []}, {"pairs": [42]},
        {"pairs": [{"base": make_run()}]},
    ], ids=["single-run", "no-pairs", "not-a-pair", "one-side"])
    def test_record_without_pairs_is_not_scored(self, record):
        with pytest.raises(ConfigError,
                           match="not a paired bench record|the head run"):
            analyze_pairs(record)


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
        with pytest.raises(ConfigError, match="one object"):
            load_record(str(listed))


class TestFormatting:
    def test_terminal_report(self):
        text = format_analysis(analyze_pairs(head_at(0.4, 0.5, 0.3)))
        assert text.splitlines()[0] == (
            "bench verdict against HEAD~1 (0123456789ab), median of 3 "
            "alternating pairs: REGRESSION")
        assert "gzip-net" in text
        assert "-60.0%" in text and "-70.0%..-50.0%" in text
        assert "throughput at 40% of base" in text

    def test_markdown_report(self):
        text = format_analysis(analyze_pairs(head_at(1.0)), markdown=True)
        assert text.startswith("## Bench verdict: ok")
        assert ("| workload | base norm ev/s | head norm ev/s | head/base "
                "| pair range | verdict | notes |") in text
        assert "| gzip-net | 1,000 | 1,000 | +0.0% |" in text


class TestCli:
    def _record(self, tmp_path, name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    @pytest.fixture
    def telemetry(self, tmp_path):
        from repro.obs.telemetry import FleetTelemetry

        path = str(tmp_path / "telemetry.json")
        FleetTelemetry().write(path)
        return path

    @pytest.mark.parametrize("ratio, check, code", [
        (0.6, True, 1), (0.6, False, 0), (0.88, True, 0), (1.0, True, 0),
    ])
    def test_check_exits_1_only_on_a_regression(self, tmp_path, capsys,
                                               monkeypatch, ratio, check,
                                               code):
        import repro.bench

        record = head_at(ratio, ratio, ratio)
        monkeypatch.setattr(repro.bench, "run_pairs",
                            lambda *args, **kwargs: record)
        out = tmp_path / "pairs.json"
        args = ["bench", "--against", "HEAD~1", "--out", str(out)]
        assert main(args + (["--check"] if check else [])) == code
        assert json.loads(out.read_text()) == record
        assert capsys.readouterr().out.startswith("bench verdict against")

    def test_obs_report_prints_the_same_verdicts(self, tmp_path, capsys,
                                                 telemetry):
        base, head = make_run(), make_run()
        for name, ratio in (("gcc-lei", 0.5), ("mcf-lei", 0.88)):
            base["workloads"].append(make_workload(name))
            head["workloads"].append(make_workload(name, eps=1000 * ratio))
        analysis = analyze_pairs(paired((base, head)))
        path = self._record(tmp_path, "pairs.json", paired((base, head)))
        assert main(["obs", "report", telemetry, "--bench", path]) == 0
        assert format_analysis(analysis) in capsys.readouterr().out
        assert analysis["verdict"] == "regression"

    @pytest.mark.parametrize("record, message", [
        (make_run(), "error: not a paired bench record"),
        (paired((absolute_units_record(), make_run())),
         "error: the base run is a bench version 1 record"),
    ], ids=["single-run", "version-1"])
    def test_obs_report_unscorable_record_is_an_error(
            self, tmp_path, capsys, telemetry, record, message):
        path = self._record(tmp_path, "run.json", record)
        assert main(["obs", "report", telemetry, "--bench", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
