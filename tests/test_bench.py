"""Tests for the perf-trajectory bench harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    QUICK_WORKLOADS,
    STANDARD_WORKLOADS,
    BenchWorkload,
    compare_to_baseline,
    format_bench_table,
    load_baseline,
    regression_failures,
    run_bench,
    write_bench_run,
)
from repro.cli import main as cli_main

#: One tiny workload so harness tests don't re-simulate the pinned set.
TINY = (BenchWorkload("tiny-gzip-net", "gzip", "net", scale=0.05),)


@pytest.fixture(scope="module")
def tiny_run():
    return run_bench(workloads=TINY)


class TestWorkloadSets:
    def test_pinned_sets_are_parallel(self):
        assert [w.name for w in QUICK_WORKLOADS] == [
            w.name for w in STANDARD_WORKLOADS
        ]
        assert all(w.scale < s.scale
                   for w, s in zip(QUICK_WORKLOADS, STANDARD_WORKLOADS))

    def test_workload_names_are_unique(self):
        names = [w.name for w in STANDARD_WORKLOADS]
        assert len(names) == len(set(names))


class TestRunBench:
    def test_run_schema(self, tiny_run):
        assert tiny_run["bench_version"] == 1
        record = tiny_run["workloads"][0]
        assert record["name"] == "tiny-gzip-net"
        assert record["steps"] > 0
        assert record["wall_seconds"] > 0
        assert record["events_per_second"] > 0
        # Per-phase wall time from the obs profiler.
        assert set(record["phases"]) >= {"interpret", "selector_decide"}
        assert all(p["seconds"] >= 0 for p in record["phases"].values())
        assert tiny_run["totals"]["steps"] == record["steps"]

    def test_repeats_recorded(self, tiny_run):
        # Default is best-of-3; the record says how many passes ran.
        assert tiny_run["workloads"][0]["repeats"] == 3

    def test_single_repeat_run(self):
        run = run_bench(workloads=TINY, repeats=1)
        record = run["workloads"][0]
        assert record["repeats"] == 1
        assert record["steps"] > 0

    def test_behaviour_fingerprint_is_recorded(self, tiny_run):
        record = tiny_run["workloads"][0]
        assert 0 < record["hit_rate"] <= 1
        assert record["region_count"] > 0
        assert record["total_instructions"] > 0

    def test_write_and_reload(self, tiny_run, tmp_path):
        path = write_bench_run(tiny_run, str(tmp_path / "BENCH_run.json"))
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["workloads"][0]["name"] == "tiny-gzip-net"


class TestBaselineComparison:
    def test_identical_runs_compare_flat(self, tiny_run):
        deltas = compare_to_baseline(tiny_run, tiny_run)
        assert deltas["comparable"]
        ratios = deltas["workloads"]["tiny-gzip-net"]
        assert ratios["events_per_second_ratio"] == 1.0
        assert ratios["wall_ratio"] == 1.0
        assert regression_failures(deltas) == []

    def test_scale_mismatch_is_skipped_not_compared(self, tiny_run):
        other = json.loads(json.dumps(tiny_run))
        other["workloads"][0]["scale"] = 0.5
        deltas = compare_to_baseline(tiny_run, other)
        assert not deltas["comparable"]
        assert deltas["skipped"] == ["tiny-gzip-net"]

    def test_regression_beyond_tolerance_is_flagged(self, tiny_run):
        slower = json.loads(json.dumps(tiny_run))
        record = slower["workloads"][0]
        record["events_per_second"] = record["events_per_second"] / 3
        deltas = compare_to_baseline(slower, tiny_run)
        failures = regression_failures(deltas, tolerance=0.35)
        assert failures and "tiny-gzip-net" in failures[0]
        assert regression_failures(deltas, tolerance=0.9) == []

    def test_committed_baselines_exist_and_match_pinned_sets(self):
        for quick in (False, True):
            baseline = load_baseline(quick=quick)
            assert baseline is not None, "committed baseline missing"
            names = [w["name"] for w in baseline["workloads"]]
            expected = QUICK_WORKLOADS if quick else STANDARD_WORKLOADS
            assert names == [w.name for w in expected]

    def test_missing_baseline_loads_as_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None

    @pytest.mark.parametrize("shape", ["list", "dict", "none", "empty"])
    def test_legacy_fleet_entries_are_not_compared(self, tiny_run, shape):
        # Runs and baselines recorded before the pinned fleets went
        # (the committed BENCH_run.json among them) carry a "batched"
        # entry in one of these shapes.  A fleet at a tenth of its
        # baseline throughput once failed the gate; now only the
        # workloads are compared.
        def fleet_entry(eps):
            record = {"name": "mixed-fleet", "backend": "numpy",
                      "lanes": 128, "events_per_second": eps}
            return {"list": [record], "dict": record, "none": None,
                    "empty": []}[shape]

        run = json.loads(json.dumps(tiny_run))
        run["batched"] = fleet_entry(100.0)
        baseline = json.loads(json.dumps(tiny_run))
        baseline["batched"] = fleet_entry(1000.0)
        deltas = compare_to_baseline(run, baseline)
        assert "batched" not in deltas
        ratios = deltas["workloads"]["tiny-gzip-net"]
        assert ratios["events_per_second_ratio"] == 1.0
        assert regression_failures(deltas) == []
        assert "fleet" not in format_bench_table(run, deltas)

    def test_table_renders_deltas(self, tiny_run):
        deltas = compare_to_baseline(tiny_run, tiny_run)
        table = format_bench_table(tiny_run, deltas)
        assert "tiny-gzip-net" in table
        assert "+0.0%" in table
        assert "total" in table


class TestBenchCli:
    def test_quick_bench_writes_run_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_run.json"
        code = cli_main(["bench", "--quick", "--out", str(out)])
        assert code == 0
        run = json.loads(out.read_text())
        assert run["quick"] is True
        assert [w["name"] for w in run["workloads"]] == [
            w.name for w in QUICK_WORKLOADS
        ]
        # The committed quick baseline produced real deltas.
        assert run["baseline"] is not None
        assert run["baseline"]["comparable"]
        assert "events_per_second_ratio" in run["baseline"]["totals"]
        assert "workload" in capsys.readouterr().out

    def test_no_baseline_flag(self, tmp_path):
        out = tmp_path / "BENCH_run.json"
        code = cli_main(["bench", "--quick", "--no-baseline",
                         "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["baseline"] is None

    def test_check_fails_against_impossible_baseline(self, tmp_path):
        fast = load_baseline(quick=True)
        fast = json.loads(json.dumps(fast))
        for record in fast["workloads"]:
            record["events_per_second"] *= 1000.0
        baseline_path = tmp_path / "impossible.json"
        baseline_path.write_text(json.dumps(fast))
        code = cli_main(["bench", "--quick", "--check",
                         "--baseline", str(baseline_path),
                         "--out", str(tmp_path / "run.json")])
        assert code == 1
