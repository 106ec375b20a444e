"""Tests for the fault-tolerant job engine (repro.jobs)."""

import os

import pytest

from repro.errors import JobError
from repro.jobs import FaultInjector, Job, JobEngine, pick_mp_context
from repro.jobs.engine import BACKOFF_FACTOR
from repro.obs import CollectingSink, Observer


def square(payload):
    """Top-level worker so spawn/fork contexts can pickle it."""
    return payload * payload


def explode(payload):
    raise ValueError(f"bad payload {payload}")


def worker_pid(payload):
    return os.getpid()


def jobs_for(values):
    return [Job(f"job-{value}", value) for value in values]


def observed():
    sink = CollectingSink()
    return Observer(sink=sink), sink


class TestSerialEngine:
    def test_results_in_input_order(self):
        engine = JobEngine(square)
        outcomes = engine.run(jobs_for([3, 1, 2]))
        assert list(outcomes) == ["job-3", "job-1", "job-2"]
        assert [o.result for o in outcomes.values()] == [9, 1, 4]
        assert all(o.attempts == 1 for o in outcomes.values())

    def test_duplicate_job_ids_rejected(self):
        engine = JobEngine(square)
        with pytest.raises(JobError) as exc_info:
            engine.run([Job("same", 1), Job("same", 2)])
        assert exc_info.value.context["job_id"] == "same"

    def test_injected_errors_are_retried_until_success(self):
        observer, sink = observed()
        engine = JobEngine(square, backoff=0.0, max_retries=2,
                           observer=observer,
                           faults=FaultInjector(errors={"job-3": 2}))
        outcomes = engine.run(jobs_for([3, 4]))
        assert outcomes["job-3"].result == 9
        assert outcomes["job-3"].attempts == 3
        assert outcomes["job-4"].attempts == 1
        retried = sink.by_kind("job_retried")
        assert len(retried) == 2
        assert all(e.get("job_id") == "job-3" for e in retried)

    def test_retry_delays_grow_by_the_backoff_factor(self):
        observer, sink = observed()
        engine = JobEngine(square, backoff=0.001, max_retries=3,
                           observer=observer,
                           faults=FaultInjector(errors={"job-2": 3}))
        assert engine.run(jobs_for([2]))["job-2"].result == 4
        delays = [e.get("delay") for e in sink.by_kind("job_retried")]
        assert delays == pytest.approx(
            [0.001 * BACKOFF_FACTOR ** k for k in range(3)])

    def test_exhausted_retries_surface_contextual_error(self):
        observer, sink = observed()
        engine = JobEngine(square, backoff=0.0, max_retries=1,
                           observer=observer,
                           faults=FaultInjector(errors={"job-5": 99}))
        with pytest.raises(JobError) as exc_info:
            engine.run(jobs_for([5]))
        error = exc_info.value
        assert error.context["job_id"] == "job-5"
        assert error.context["attempts"] == 2
        assert "InjectedFault" in error.context["reason"]
        # The context is rendered into the message itself.
        assert "job-5" in str(error)
        assert sink.by_kind("job_failed")[0].get("job_id") == "job-5"

    def test_one_worker_runs_inline_even_with_a_timeout(self):
        # workers <= 1 is the in-process reference path: a timeout
        # there is documented as not enforced.
        outcomes = JobEngine(worker_pid, workers=1, timeout=30.0).run(
            jobs_for([1, 2]))
        assert {o.result for o in outcomes.values()} == {os.getpid()}

    def test_worker_exception_chains_into_joberror(self):
        engine = JobEngine(explode, backoff=0.0, max_retries=0)
        with pytest.raises(JobError) as exc_info:
            engine.run(jobs_for([7]))
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_in_process_crash_degrades_to_exception(self):
        # A hard crash cannot be simulated without killing the test
        # process; in-process the injector raises instead.
        engine = JobEngine(square, backoff=0.0, max_retries=1,
                           faults=FaultInjector(crashes={"job-2": 1}))
        outcomes = engine.run(jobs_for([2]))
        assert outcomes["job-2"].result == 4
        assert outcomes["job-2"].attempts == 2


class TestParallelEngine:
    def test_matches_serial_results(self):
        values = list(range(8))
        serial = JobEngine(square).run(jobs_for(values))
        parallel = JobEngine(square, workers=4).run(jobs_for(values))
        assert {k: o.result for k, o in serial.items()} == {
            k: o.result for k, o in parallel.items()
        }
        assert list(parallel) == list(serial)

    def test_hard_crashes_are_retried_to_completion(self):
        observer, sink = observed()
        engine = JobEngine(
            square, workers=3, backoff=0.01, max_retries=2,
            observer=observer,
            faults=FaultInjector(crashes={"job-1": 2, "job-4": 1}),
        )
        outcomes = engine.run(jobs_for([0, 1, 2, 3, 4]))
        assert {k: o.result for k, o in outcomes.items()} == {
            "job-0": 0, "job-1": 1, "job-2": 4, "job-3": 9, "job-4": 16,
        }
        assert outcomes["job-1"].attempts == 3
        assert outcomes["job-4"].attempts == 2
        reasons = {e.get("reason") for e in sink.by_kind("job_retried")}
        assert any("crash" in str(reason) for reason in reasons)

    def test_crash_exhaustion_aborts_with_context(self):
        engine = JobEngine(
            square, workers=2, backoff=0.01, max_retries=1,
            faults=FaultInjector(crashes={"job-1": 99}),
        )
        with pytest.raises(JobError) as exc_info:
            engine.run(jobs_for([0, 1, 2, 3]))
        assert exc_info.value.context["job_id"] == "job-1"
        assert exc_info.value.context["attempts"] == 2
        assert "crash" in exc_info.value.context["reason"]

    def test_hung_worker_is_killed_and_retried(self):
        observer, sink = observed()
        engine = JobEngine(
            square, workers=2, timeout=0.3, backoff=0.01, max_retries=1,
            observer=observer,
            faults=FaultInjector(hangs={"job-2": (1, 30.0)}),
        )
        outcomes = engine.run(jobs_for([1, 2]))
        assert outcomes["job-2"].result == 4
        assert outcomes["job-2"].attempts == 2
        retried = sink.by_kind("job_retried")
        assert any("timeout" in str(e.get("reason")) for e in retried)

    def test_a_lone_job_is_held_to_its_timeout(self):
        engine = JobEngine(
            square, workers=2, timeout=0.5, max_retries=0,
            faults=FaultInjector(hangs={"job-1": (1, 5.0)}),
        )
        with pytest.raises(JobError, match="timeout after 0.500s"):
            engine.run(jobs_for([1]))

    def test_a_lone_job_runs_inline_only_without_a_timeout(self):
        inline = JobEngine(worker_pid, workers=2).run(jobs_for([1]))
        assert inline["job-1"].result == os.getpid()
        isolated = JobEngine(worker_pid, workers=2, timeout=30.0).run(
            jobs_for([1]))
        assert isolated["job-1"].result != os.getpid()


class TestContextSelection:
    def test_explicit_method_wins(self):
        assert pick_mp_context("spawn").get_start_method() == "spawn"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert pick_mp_context().get_start_method() == "spawn"

    def test_default_is_a_supported_method(self):
        import multiprocessing

        method = pick_mp_context().get_start_method()
        assert method in multiprocessing.get_all_start_methods()

    def test_spawn_context_runs_the_engine(self):
        engine = JobEngine(square, workers=2,
                           mp_context=pick_mp_context("spawn"))
        outcomes = engine.run(jobs_for([5, 6]))
        assert [o.result for o in outcomes.values()] == [25, 36]
