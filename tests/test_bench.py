"""Tests for the bench harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    BENCH_VERSION,
    QUICK_WORKLOADS,
    STANDARD_WORKLOADS,
    BenchWorkload,
    format_bench_table,
    load_baseline,
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
        assert tiny_run["bench_version"] == BENCH_VERSION == 2
        assert "service" not in tiny_run
        record = tiny_run["workloads"][0]
        assert record["name"] == "tiny-gzip-net"
        assert record["steps"] > 0
        assert record["wall_seconds"] > 0
        assert record["events_per_second"] > 0
        # Per-phase wall time from the obs profiler.
        assert set(record["phases"]) >= {"interpret", "selector_decide"}
        assert all(p["seconds"] >= 0 for p in record["phases"].values())

    def test_rate_is_normalized_by_the_host_probe(self, tiny_run):
        record = tiny_run["workloads"][0]
        assert record["host_factor"] > 0
        assert record["norm_events_per_second"] == pytest.approx(
            record["events_per_second"] * record["host_factor"], rel=1e-3)

    def test_repeats_recorded(self, tiny_run):
        # Default is the median of 5 passes; the record says how many
        # passes ran.
        assert tiny_run["workloads"][0]["repeats"] == 5

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

    def test_table_renders_both_units(self, tiny_run):
        table = format_bench_table(tiny_run)
        assert "tiny-gzip-net" in table
        assert "events/s" in table and "norm ev/s" in table


class TestCommittedBaselines:
    @pytest.mark.parametrize("quick", [False, True])
    def test_committed_baselines_are_version_2_and_cover_pinned_sets(
            self, quick):
        baseline = load_baseline(quick=quick)
        assert baseline["bench_version"] == 2
        assert baseline["quick"] is quick
        expected = QUICK_WORKLOADS if quick else STANDARD_WORKLOADS
        assert [(w["name"], w["scale"], w["seed"])
                for w in baseline["workloads"]] == [
            (w.name, w.scale, w.seed) for w in expected]
        assert all(w["norm_events_per_second"] > 0
                   for w in baseline["workloads"])


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
        # Scored against the committed quick baseline, whose behaviour
        # fingerprints the run reproduces.
        printed = capsys.readouterr().out
        assert "norm ev/s" in printed
        assert "bench regression analysis:" in printed
        assert "fingerprint" not in printed

    def test_no_baseline_flag(self, tmp_path, capsys):
        out = tmp_path / "BENCH_run.json"
        code = cli_main(["bench", "--quick", "--no-baseline",
                         "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["quick"] is True
        assert "bench regression analysis" not in capsys.readouterr().out

    def test_check_fails_against_impossible_baseline(self, tmp_path, capsys):
        fast = json.loads(json.dumps(load_baseline(quick=True)))
        for record in fast["workloads"]:
            record["norm_events_per_second"] *= 1000.0
        baseline_path = tmp_path / "impossible.json"
        baseline_path.write_text(json.dumps(fast))
        code = cli_main(["bench", "--quick", "--check",
                         "--baseline", str(baseline_path),
                         "--out", str(tmp_path / "run.json")])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_update_baseline_pins_a_median_of_runs(self, tmp_path,
                                                   monkeypatch):
        import repro.bench

        rates = iter([1000.0, 1630.0, 990.0, 1010.0, 1005.0])

        def fake_run(**kwargs):
            return {"bench_version": BENCH_VERSION, "quick": True,
                    "workloads": [{
                        "name": "gzip-net", "scale": 0.1, "seed": 1,
                        "steps": 10, "wall_seconds": 0.01,
                        "events_per_second": 1000.0, "host_factor": 1.0,
                        "norm_events_per_second": next(rates),
                        "phases": {}}]}

        monkeypatch.setattr(repro.bench, "run_bench", fake_run)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["bench", "--quick", "--update-baseline",
                         "--baseline", str(baseline),
                         "--out", str(tmp_path / "run.json")]) == 0
        pinned = json.loads(baseline.read_text())
        assert pinned["workloads"][0]["norm_events_per_second"] == 1005.0
