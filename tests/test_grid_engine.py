"""Integration tests: run_grid over the job engine and result store.

These encode the PR's acceptance criteria: crashed workers retry to a
bit-identical grid, a warm store recomputes zero cells, and an
interrupted grid resumes with only its missing cells.
"""

import pytest

from repro.errors import JobError
from repro.jobs import FaultInjector
from repro.obs import CollectingSink, Observer
from repro.experiments.manifest import load_manifest
from repro.experiments.runner import ExperimentGrid, run_grid
from repro.store import ResultStore

BENCHMARKS = ("gzip", "mcf")
SELECTORS = ("net", "lei")
SCALE = 0.05


def small_grid(**kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("benchmarks", BENCHMARKS)
    kwargs.setdefault("selectors", SELECTORS)
    return run_grid(**kwargs)


@pytest.fixture(scope="module")
def serial_grid():
    return small_grid()


class TestParallelFaultTolerance:
    def test_parallel_is_bit_identical_to_serial(self, serial_grid):
        parallel = small_grid(workers=3)
        assert parallel.reports == serial_grid.reports
        assert list(parallel.reports) == list(serial_grid.reports)

    def test_crashing_workers_retry_to_identical_reports(self, serial_grid):
        sink = CollectingSink()
        crashed = small_grid(
            workers=3, backoff=0.01, observer=Observer(sink=sink),
            faults=FaultInjector(crashes={"gzip:net": 2, "mcf:lei": 1}),
        )
        assert crashed.reports == serial_grid.reports
        retried = {e.get("job_id") for e in sink.by_kind("job_retried")}
        assert retried == {"gzip:net", "mcf:lei"}

    def test_exhausted_cell_aborts_with_cell_context(self):
        with pytest.raises(JobError) as exc_info:
            small_grid(workers=2, backoff=0.01, max_retries=1,
                       faults=FaultInjector(crashes={"mcf:net": 99}))
        assert exc_info.value.context["job_id"] == "mcf:net"
        assert exc_info.value.context["attempts"] == 2


class TestStoreIntegration:
    def test_warm_store_recomputes_zero_cells(self, tmp_path, serial_grid):
        store = ResultStore(str(tmp_path), )
        cold = small_grid(store=store, code_version="test")
        assert store.stats.puts == 4
        assert cold.reports == serial_grid.reports

        warm_store = ResultStore(str(tmp_path))
        warm = small_grid(store=warm_store, code_version="test")
        assert warm_store.stats.hits == 4
        assert warm_store.stats.puts == 0  # zero cells recomputed
        assert warm.reports == serial_grid.reports  # bit-identical
        assert list(warm.reports) == list(serial_grid.reports)

    def test_store_accepts_a_plain_directory_path(self, tmp_path):
        grid = small_grid(store=str(tmp_path), code_version="test")
        assert isinstance(grid, ExperimentGrid)
        rerun = small_grid(store=str(tmp_path), code_version="test")
        assert rerun.reports == grid.reports

    def test_code_version_invalidates_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        small_grid(store=store, code_version="v1")
        assert store.stats.puts == 4
        small_grid(store=store, code_version="v2")
        assert store.stats.puts == 8  # all four recomputed under v2

    def test_interrupted_grid_resumes_missing_cells_only(self, tmp_path,
                                                         serial_grid):
        store = ResultStore(str(tmp_path))
        # Serial order is gzip:net, gzip:lei, mcf:net, mcf:lei; killing
        # mcf:net aborts the run with the first two cells completed.
        with pytest.raises(JobError):
            small_grid(store=store, code_version="test",
                       backoff=0.0, max_retries=0,
                       faults=FaultInjector(crashes={"mcf:net": 99}))
        assert store.stats.puts == 2

        resumed_store = ResultStore(str(tmp_path))
        resumed = small_grid(store=resumed_store, code_version="test")
        assert resumed_store.stats.hits == 2   # finished cells reused
        assert resumed_store.stats.puts == 2   # only missing recomputed
        assert resumed.reports == serial_grid.reports

    def test_a_lone_missing_cell_is_held_to_the_job_timeout(self,
                                                             tmp_path):
        store = ResultStore(str(tmp_path))
        small_grid(store=store, code_version="test", selectors=("net",))
        small_grid(store=store, code_version="test", benchmarks=("gzip",))
        assert store.stats.puts == 3  # every cell but mcf:lei
        with pytest.raises(JobError, match="timeout after 0.500s") as exc:
            small_grid(store=store, code_version="test", workers=2,
                       job_timeout=0.5, max_retries=0,
                       faults=FaultInjector(hangs={"mcf:lei": (1, 5.0)}))
        assert exc.value.context["job_id"] == "mcf:lei"

    def test_parallel_crashes_with_store_stay_identical(self, tmp_path,
                                                        serial_grid):
        grid = small_grid(
            store=str(tmp_path), code_version="test", workers=3,
            backoff=0.01, faults=FaultInjector(crashes={"gzip:lei": 1}),
        )
        assert grid.reports == serial_grid.reports
        warm = small_grid(store=str(tmp_path), code_version="test")
        assert warm.reports == serial_grid.reports

    def test_manifest_records_store_traffic(self, tmp_path):
        manifest_dir = tmp_path / "manifest"
        small_grid(store=str(tmp_path / "store"), code_version="test",
                   manifest_dir=str(manifest_dir))
        manifest = load_manifest(str(manifest_dir))
        assert manifest["cells"] == 4
        assert manifest["store"]["puts"] == 4


class TestGridDedup:
    def test_benchmarks_and_selectors_preserve_first_seen_order(self):
        grid = ExperimentGrid(scale=1.0, seed=1, config=None)
        for bench in ("b", "a", "b", "c"):
            for selector in ("net", "lei"):
                grid.reports[(bench, selector)] = None
        assert grid.benchmarks == ("b", "a", "c")
        assert grid.selectors == ("net", "lei")
