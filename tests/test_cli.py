"""Tests for the top-level CLI."""

import pytest

from repro.cli import main
from repro.metrics.summary import MetricReport
from repro.system.simulator import simulate


class TestList:
    def test_lists_benchmarks_and_selectors(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "twolf" in out
        assert "net" in out and "combined-lei" in out and "wiggins" in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "gzip", "lei", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "region transitions" in out

    def test_run_with_bounded_cache_reports_evictions(self, capsys):
        code = main([
            "run", "eon", "net", "--scale", "0.2",
            "--cache-capacity", "600", "--eviction", "fifo",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache evictions" in out

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "spice", "net"])

    def test_unknown_selector_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "gzip", "hotpath3000"])


class TestRegionsAndDot:
    def test_regions_dump(self, capsys):
        assert main(["regions", "mcf", "lei", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "regions selected" in out
        assert "#0" in out

    def test_layout_map(self, capsys):
        assert main(["layout", "mcf", "net", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "code cache layout" in out
        assert "page" in out

    def test_dot_export(self, capsys):
        assert main(["dot", "gzip"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "main" in out


class TestCompareAndTimeline:
    def test_compare_prints_ratios(self, capsys):
        assert main(["compare", "mcf", "lei", "net", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "lei relative to net" in out
        assert "region_transitions" in out

    def test_timeline_prints_windows_and_warmup(self, capsys):
        assert main(["timeline", "gzip", "lei", "--scale", "0.05",
                     "--window", "5000"]) == 0
        out = capsys.readouterr().out
        assert "windowed hit rates" in out
        assert "warm" in out
        # The table starts at step 0, and the warm-up shift is listed.
        assert out.splitlines()[2].split()[0] == "0-5000"
        assert "phase shifts:" in out

    def test_timeline_rejects_an_empty_window(self, capsys):
        assert main(["timeline", "gzip", "lei", "--scale", "0.05",
                     "--window", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: sample_every must be >= 1 step, got 0\n"


class TestCollectReplay:
    def test_collect_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "bzip2.rtrc"
        assert main(["collect", "bzip2", "--scale", "0.05",
                     "-o", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()

        assert main(["replay", str(trace), "combined-lei",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "replayed 'bzip2'" in out
        assert "hit rate" in out

    def test_bounded_replay_prints_what_run_prints(self, tmp_path, capsys):
        trace = tmp_path / "perlbmk.rtrc"
        assert main(["collect", "perlbmk", "--scale", "0.05",
                     "-o", str(trace)]) == 0
        bounded = ["net", "--scale", "0.05", "--cache-capacity", "300",
                   "--eviction", "fifo"]
        capsys.readouterr()
        assert main(["run", "perlbmk", *bounded]) == 0
        ran = capsys.readouterr().out.splitlines()
        assert main(["replay", str(trace), *bounded]) == 0
        replayed = capsys.readouterr().out.splitlines()
        # Same report below the differing header line, eviction counts
        # included.
        assert replayed[1:] == ran[1:]
        assert "cache evictions          17" in replayed
        assert "regenerated regions      10" in replayed


class TestFleet:
    ARGS = ["fleet", "--benchmarks", "micro:linked_chain,micro:self_loop",
            "--selectors", "net", "--seeds", "3", "--scale", "0.05"]

    def test_prints_summary_and_one_row_per_cell(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("6 cells: ")
        assert lines[0].endswith(" events/s)")
        assert lines[1].split() == ["benchmark", "selector", "seed", "hit%",
                                    "regions", "transitions"]
        assert len(lines) == 2 + 6
        assert out.count("micro:linked_chain") == 3
        assert "fused core" not in out
        assert "queue:" not in out

    def test_cell_rows_match_serial_runs(self, capsys):
        from repro.batch import build_fleet_program

        assert main(self.ARGS) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        for row in rows:
            bench, selector, seed = row.split()[:3]
            program = build_fleet_program(bench, 0.05)
            report = MetricReport.from_result(
                simulate(program, selector, seed=int(seed)))
            assert row.split()[3:] == [f"{100 * report.hit_rate:.2f}",
                                       str(report.region_count),
                                       str(report.region_transitions)]

    @pytest.mark.parametrize("policy", ["flush", "fifo"])
    def test_bounded_cache_rows_match_serial_runs(self, capsys, policy):
        from repro.batch import build_fleet_program
        from repro.config import SystemConfig

        config = SystemConfig(cache_capacity_bytes=400,
                              cache_eviction_policy=policy)
        assert main(["fleet", "--benchmarks", "gzip,bzip2",
                     "--selectors", "net,lei", "--scale", "0.05",
                     "--cache-capacity", "400", "--eviction", policy]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 4
        evictions = 0
        for row in rows:
            bench, selector, seed = row.split()[:3]
            result = simulate(build_fleet_program(bench, 0.05), selector,
                              config, seed=int(seed))
            evictions += result.cache_evictions
            report = MetricReport.from_result(result)
            assert row.split()[3:] == [f"{100 * report.hit_rate:.2f}",
                                       str(report.region_count),
                                       str(report.region_transitions)]
        assert evictions, "capacity too large to evict"

    @pytest.mark.parametrize("flag", [["--backend", "numpy"],
                                      ["--max-lanes", "2"]])
    def test_scheduling_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_duplicate_cell_is_a_one_line_error(self, capsys):
        code = main(["fleet", "--benchmarks",
                     "micro:linked_chain,micro:linked_chain",
                     "--selectors", "net", "--scale", "0.05"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: duplicate fleet cell")

    @pytest.mark.parametrize("cells, message", [
        (["--benchmarks", "gzip", "--selectors", "net,bogus"],
         "unknown selector 'bogus'"),
        (["--benchmarks", "spice", "--selectors", "net"],
         "unknown benchmark 'spice'"),
    ])
    def test_unknown_cell_is_a_one_line_error(self, capsys, cells, message):
        code = main(["fleet", *cells, "--scale", "0.05"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: " + message), captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestErrorReporting:
    """Missing inputs fail with a one-line error, never a traceback."""

    def test_inspect_missing_events_file(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: no event log at")
        assert err.count("\n") == 1

    def test_inspect_directory_rejected(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path)])
        assert code == 2
        assert "no event log" in capsys.readouterr().err

    @staticmethod
    def _assert_one_line_error(capsys, code, starts_with):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: " + starts_with), err
        assert err.count("\n") == 1

    def test_replay_missing_trace(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nope.rtrc"), "net"])
        self._assert_one_line_error(capsys, code, "[Errno 2]")

    def test_replay_truncated_trace(self, tmp_path, capsys):
        trace = tmp_path / "gzip.rtrc"
        assert main(["collect", "gzip", "--scale", "0.05",
                     "-o", str(trace)]) == 0
        capsys.readouterr()
        prefix = tmp_path / "prefix.rtrc"
        prefix.write_bytes(trace.read_bytes()[:100])
        code = main(["replay", str(prefix), "net", "--scale", "0.05"])
        self._assert_one_line_error(capsys, code, "truncated trace body")

    def test_replay_garbage_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.rtrc"
        garbage.write_bytes(b"garbage")
        code = main(["replay", str(garbage), "net"])
        self._assert_one_line_error(capsys, code, "truncated trace header")

    def test_collect_to_missing_directory(self, tmp_path, capsys):
        output = tmp_path / "no" / "such" / "dir" / "x.rtrc"
        code = main(["collect", "gzip", "--scale", "0.05",
                     "-o", str(output)])
        self._assert_one_line_error(capsys, code, "[Errno 2]")

    @staticmethod
    def _assert_bench_error(capsys, code, starts_with):
        # The run is written (and says so on stderr) before it is
        # scored; the failed comparison is the one error line after it.
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines[-1].startswith("error: " + starts_with), lines
        assert sum(line.startswith("error: ") for line in lines) == 1

    @staticmethod
    def _fake_run():
        return {
            "bench_version": 2,
            "quick": True,
            "workloads": [{
                "name": "gzip-net", "benchmark": "gzip", "selector": "net",
                "scale": 0.1, "seed": 1, "steps": 10, "wall_seconds": 0.01,
                "events_per_second": 1000.0, "host_factor": 1.5,
                "norm_events_per_second": 1500.0, "phases": {},
            }],
        }

    def test_bench_check_without_baseline(self, tmp_path, capsys,
                                          monkeypatch):
        import repro.bench

        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda **kwargs: self._fake_run())
        code = main(["bench", "--quick", "--check",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "run.json")])
        self._assert_bench_error(capsys, code, "no bench record at")

    def test_bench_check_with_no_baseline_flag(self, tmp_path, capsys,
                                               monkeypatch):
        import repro.bench

        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda **kwargs: self._fake_run())
        code = main(["bench", "--quick", "--check", "--no-baseline",
                     "--out", str(tmp_path / "run.json")])
        self._assert_bench_error(capsys, code, "--check needs a baseline")

    def test_bench_check_with_missing_workload_entry(self, tmp_path, capsys,
                                                     monkeypatch):
        import json

        import repro.bench

        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda **kwargs: self._fake_run())
        baseline = self._fake_run()
        baseline["workloads"][0]["name"] = "some-other-workload"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        code = main(["bench", "--quick", "--check",
                     "--baseline", str(baseline_path),
                     "--out", str(tmp_path / "run.json")])
        self._assert_bench_error(
            capsys, code, "baseline cannot be compared: no entry for gzip-net")
