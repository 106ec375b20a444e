"""The benchmark's own checks: oracle, seeded inputs, percentiles, contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from common import RefusedPercentile, median, percentile, tail_rank  # noqa: E402
from oracle import Oracle  # noqa: E402


def _warm_cell_report():
    from repro.analysis.serialize import report_to_dict
    from repro.metrics.summary import MetricReport
    from repro.system.simulator import simulate
    from repro.workloads import build_benchmark

    cell = inputs.serve_warm(inputs.DEFAULT_SEED)[0]
    bench, selector, scale, seed = cell
    report = MetricReport.from_result(
        simulate(build_benchmark(bench, scale=scale), selector, seed=seed))
    return (cell, None), report_to_dict(report)


def test_committed_oracle_accepts_the_fast_path_report():
    spec, report = _warm_cell_report()
    assert Oracle().check(spec, report)


@pytest.mark.parametrize("field, change", [
    ("total_instructions", lambda v: v + 1),
    ("hit_rate", lambda v: v * (1 + 1e-12)),
    ("exit_stubs", lambda v: v - 1),
])
def test_perturbed_report_fails_the_oracle_check(field, change):
    spec, report = _warm_cell_report()
    perturbed = dict(report, **{field: change(report[field])})
    assert not Oracle().check(spec, perturbed)


def test_one_seed_always_yields_the_same_inputs():
    assert inputs.serve_schedule(7, 20) == inputs.serve_schedule(7, 20)
    assert inputs.grid_cells(7) == inputs.grid_cells(7)
    assert inputs.replay_traces(7) == inputs.replay_traces(7)


def test_two_seeds_yield_different_inputs():
    one, two = inputs.serve_schedule(7, 20), inputs.serve_schedule(8, 20)
    assert one.warm != two.warm
    assert [r.due for r in one.requests] != [r.due for r in two.requests]
    assert one.cold_cells != two.cold_cells
    assert inputs.grid_cells(7) != inputs.grid_cells(8)
    assert inputs.replay_traces(7) != inputs.replay_traces(8)


def test_schedule_streams_share_the_warm_set_but_not_cold_cells():
    main = inputs.serve_schedule(7, 20)
    other = inputs.serve_schedule(7, 20, stream="reference")
    assert main.warm == other.warm
    assert not set(main.cold_cells) & set(other.cold_cells)


def test_schedule_gives_every_rate_a_p99():
    schedule = inputs.serve_schedule(inputs.DEFAULT_SEED, 20)
    for index in range(len(schedule.rates)):
        latencies = [r.due for r in schedule.phase(index)]
        percentile(latencies, 0.99)


def test_percentile_with_fewer_than_ten_samples_beyond_is_refused():
    with pytest.raises(RefusedPercentile):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(RefusedPercentile):
        median(list(range(19)))
    assert median(list(range(20))) == 9
    with pytest.raises(RefusedPercentile):
        percentile([], 0.5)


def test_tail_rank_keeps_ten_samples_beyond():
    for n in (20, 97, 300, 1000, 5000):
        percentile(list(range(n)), tail_rank(n))
    assert tail_rank(5000) == 0.99


def test_benchmark_json_names_every_metric_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [
        name for name, _ in run.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [
        unit for _, unit in run.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "sim_instr_per_s", "peak_rss_mb", "p50_ms", "p99_ms",
        "max_rate_rps"}
    assert {w["name"] for w in bench["workloads"]} == {
        "grid-serial", "grid-fleet", "trace-replay", "serve-mix"}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
