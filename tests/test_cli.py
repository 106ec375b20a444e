"""Tests for the top-level CLI."""

import pytest

from repro.cli import main


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


class TestFleet:
    NARROW = ["fleet", "--benchmarks", "micro:linked_chain,micro:self_loop",
              "--selectors", "net", "--seeds", "3", "--scale", "0.05",
              "--max-lanes", "2"]

    def test_streaming_run_prints_queue_progress(self, capsys, fleet_kernel):
        code = main(self.NARROW + ["--backend", "numpy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "queue: 6 cells over 2 slots, 4 refills" in out
        assert "0 queued" in out  # the last admission drained the queue
        assert out.count("micro:linked_chain") == 3
        assert " rounds)" in out
        assert "fused core" not in out

    def test_narrow_fleet_says_it_ran_on_the_fused_core(self, capsys):
        from repro.batch.kernel import SCALAR_CUTOVER

        code = main(self.NARROW)
        out = capsys.readouterr().out
        assert code == 0
        assert ("fused core: the cells ran one at a time, because "
                in out)
        if "(numpy backend)" in out:
            assert (f"fewer than {SCALAR_CUTOVER} live lanes can never "
                    f"fill a vector round") in out
        else:
            assert "the python backend has no vector rounds" in out
        assert "queue: 6 cells over 1 slot, 5 refills" in out
        assert " rounds)" not in out
        assert out.count("micro:linked_chain") == 3

    def test_full_width_run_prints_no_queue_line(self, capsys):
        code = main(["fleet", "--benchmarks", "micro:linked_chain",
                     "--selectors", "net", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "queue:" not in out

    def test_bad_max_lanes_is_a_one_line_error(self, capsys):
        code = main(["fleet", "--benchmarks", "micro:linked_chain",
                     "--selectors", "net", "--scale", "0.05",
                     "--max-lanes", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: max_lanes must be >= 1")


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
        self._assert_one_line_error(capsys, code, "trailing bytes")

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
    def _fake_run():
        return {
            "bench_version": 1,
            "quick": True,
            "workloads": [{
                "name": "gzip-net", "benchmark": "gzip", "selector": "net",
                "scale": 0.1, "seed": 1, "steps": 10, "wall_seconds": 0.01,
                "events_per_second": 1000.0, "phases": {},
            }],
            "totals": {"steps": 10, "wall_seconds": 0.01,
                       "events_per_second": 1000.0},
        }

    def test_bench_check_without_baseline(self, tmp_path, capsys,
                                          monkeypatch):
        import repro.bench

        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda **kwargs: self._fake_run())
        code = main(["bench", "--quick", "--check",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "run.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: --check needs a baseline" in err

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
        err = capsys.readouterr().err
        assert code == 2
        assert "error: baseline has no comparable entry for: gzip-net" in err
