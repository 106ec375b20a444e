"""Tests for the bench harness (repro.bench)."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_VERSION,
    QUICK_WORKLOADS,
    STANDARD_WORKLOADS,
    BenchWorkload,
    format_bench_table,
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


def _git(cwd, *args):
    return subprocess.run(["git", "-C", str(cwd), *args], check=True,
                          capture_output=True, text=True).stdout


def _is_git_checkout(path):
    return subprocess.run(["git", "-C", str(path), "rev-parse"],
                          capture_output=True).returncode == 0


REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def other_repo(tmp_path):
    """A git checkout holding one commit and no ``repro`` package."""
    repo = tmp_path / "other"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "README").write_text("not the simulator\n")
    _git(repo, "add", "README")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@example.com",
         "commit", "-qm", "one commit")
    return repo


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
        # Without --against there is nothing to score it against.
        printed = capsys.readouterr().out
        assert "norm ev/s" in printed
        assert "bench verdict" not in printed

    @staticmethod
    def _assert_one_error(capsys, code, starts_with):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: " + starts_with), err
        assert err.count("\n") == 1, err

    def test_check_needs_against(self, tmp_path, capsys):
        code = cli_main(["bench", "--quick", "--check",
                         "--out", str(tmp_path / "run.json")])
        self._assert_one_error(capsys, code, "--check needs --against REV")
        assert not (tmp_path / "run.json").exists()

    def test_unknown_revision(self, tmp_path, capsys, monkeypatch,
                              other_repo):
        monkeypatch.chdir(other_repo)
        code = cli_main(["bench", "--quick", "--check", "--against",
                         "no-such-rev", "--out", str(tmp_path / "r.json")])
        self._assert_one_error(capsys, code,
                               "unknown revision 'no-such-rev'")

    def test_revision_without_run_bench_leaves_no_worktree(
            self, tmp_path, capsys, monkeypatch, other_repo):
        # The base side runs first and fails; its worktree still goes.
        monkeypatch.chdir(other_repo)
        code = cli_main(["bench", "--quick", "--check", "--against", "HEAD",
                         "--out", str(tmp_path / "r.json")])
        sha = _git(other_repo, "rev-parse", "HEAD").strip()
        self._assert_one_error(
            capsys, code,
            f"the run of HEAD ({sha[:12]}) failed: no repro.bench.run_bench")
        assert len(_git(other_repo, "worktree", "list").splitlines()) == 1

    def test_directory_that_is_not_a_git_checkout(self, tmp_path, capsys,
                                                  monkeypatch):
        plain = tmp_path / "plain"
        plain.mkdir()
        if _is_git_checkout(plain):
            pytest.skip("the temporary directory lies inside a git checkout")
        monkeypatch.chdir(plain)
        code = cli_main(["bench", "--quick", "--check", "--against", "HEAD",
                         "--out", str(tmp_path / "r.json")])
        self._assert_one_error(capsys, code,
                               f"{str(plain)!r} is not a git checkout")

    @pytest.mark.skipif(not _is_git_checkout(REPO_ROOT),
                        reason="needs the project as a git checkout")
    def test_against_head_end_to_end(self, tmp_path, capsys, monkeypatch):
        import repro.bench.regress

        monkeypatch.setattr(repro.bench.regress, "PAIRS", 1)
        monkeypatch.chdir(REPO_ROOT)
        worktrees = _git(REPO_ROOT, "worktree", "list")
        out = tmp_path / "pairs.json"
        # No --check: one pair of one repeat is too noisy for a verdict
        # (the comparator's tests hold the verdicts); this holds the
        # plumbing.
        code = cli_main(["bench", "--quick", "--repeats", "1",
                         "--against", "HEAD", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0, printed
        record = json.loads(out.read_text())
        assert record["against"] == "HEAD"
        assert [sorted(pair) for pair in record["pairs"]] == [
            ["base", "head"]]
        for run in record["pairs"][0].values():
            assert [w["name"] for w in run["workloads"]] == [
                w.name for w in QUICK_WORKLOADS]
            assert all(w["repeats"] == 1 for w in run["workloads"])
        assert printed.startswith("bench verdict against HEAD (")
        assert _git(REPO_ROOT, "worktree", "list") == worktrees
