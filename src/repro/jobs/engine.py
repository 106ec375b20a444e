"""The job engine: retries and timeouts over processes.

Design notes.  Each job runs in its **own** worker process (bounded to
``workers`` concurrent), not in a long-lived pool: a pool shares fate
across its workers — one hard crash poisons every queued task and the
recovery semantics of ``multiprocessing.Pool`` around a dead worker are
murky — while a process-per-job engine makes "this job's worker died"
a precise, retryable observation and lets a timeout kill exactly one
job.  The per-process overhead is irrelevant against cells that each
simulate millions of basic-block events.

``workers <= 1`` executes jobs inline in the parent (no subprocess at
all): this is the bit-identical serial reference path, where injected
crashes degrade to exceptions and timeouts cannot be enforced.  With
more workers a lone job also runs inline, unless a timeout is set: a
timeout is enforced only on a worker process, so it always gets one.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import JobError
from repro.jobs.faults import FaultInjector
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.telemetry import (
    FleetTelemetry,
    activate_worker_telemetry,
    deactivate_worker_telemetry,
)

#: Scheduler poll interval while worker processes run, seconds.
_POLL_SECONDS = 0.005

#: Each retry waits this many times longer than the one before it.
BACKOFF_FACTOR = 2.0


def pick_mp_context(method: Optional[str] = None):
    """A spawn-safe multiprocessing context for worker processes.

    ``fork`` is preferred where the platform offers it and the parent
    is single-threaded (forking a multi-threaded process is undefined
    behaviour territory and deprecated from Python 3.12); otherwise
    ``spawn``, which every platform supports.  An explicit ``method``
    argument or the ``REPRO_MP_START_METHOD`` environment variable
    overrides the choice.
    """
    if method is None:
        method = os.environ.get("REPRO_MP_START_METHOD") or None
    if method is not None:
        return multiprocessing.get_context(method)
    if ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class Job:
    """One schedulable unit: an id plus the picklable worker argument."""

    job_id: str
    payload: Any


@dataclass
class JobOutcome:
    """What happened to one job (result plus execution provenance)."""

    job_id: str
    result: Any
    attempts: int
    elapsed_seconds: float


def _worker_entry(conn, worker, job_id: str, payload, attempt: int,
                  faults: Optional[FaultInjector],
                  telemetry_ring: int = 0) -> None:
    """Worker-process body: run one attempt, ship back (status, value).

    With ``telemetry_ring > 0``, a per-process recording bundle (event
    ring of that capacity) is activated for the attempt (the payload
    callable picks it up through
    :func:`repro.obs.telemetry.worker_observer`) and the finished
    :class:`~repro.obs.telemetry.TelemetryReport` rides back on the
    same pipe as a third tuple element.  Failed attempts ship no
    telemetry — only completed work counts, which keeps the parent's
    merged totals identical to the serial path, where retries also
    discard their partial recording.

    An injected hard crash exits here without sending anything — the
    parent observes a dead process with an empty pipe, exactly the
    signature of a real worker death.
    """
    report = None
    try:
        if telemetry_ring > 0:
            activate_worker_telemetry(telemetry_ring)
        if faults is not None:
            faults.apply(job_id, attempt, in_process=False)
        result = worker(payload)
        if telemetry_ring > 0:
            report = deactivate_worker_telemetry()
    except BaseException as exc:  # ship the failure, don't hang the parent
        deactivate_worker_telemetry()
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    if report is not None:
        conn.send(("ok", result, report.to_dict()))
    else:
        conn.send(("ok", result))
    conn.close()


@dataclass
class _Running:
    process: Any
    conn: Any
    job: Job
    attempt: int
    started: float
    deadline: Optional[float]


class JobEngine:
    """Schedule a bag of independent jobs with fault tolerance.

    ``max_retries`` bounds *re*-executions: a job may run at most
    ``max_retries + 1`` times before :class:`~repro.errors.JobError`
    aborts the run.  Retry delays grow geometrically from ``backoff``
    by :data:`BACKOFF_FACTOR` per failed attempt.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        workers: int = 1,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        observer: Optional[Observer] = None,
        faults: Optional[FaultInjector] = None,
        mp_context: Optional[Any] = None,
        on_complete: Optional[Callable[[str, Any], None]] = None,
        telemetry: Optional[FleetTelemetry] = None,
    ) -> None:
        if max_retries < 0:
            raise JobError(f"max_retries must be >= 0, got {max_retries}")
        self.worker = worker
        self.workers = max(1, workers)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.faults = faults
        self._mp_context = mp_context
        #: Called in the parent as each job completes — the hook that
        #: lets callers persist results incrementally, so an aborted
        #: run keeps everything finished before the abort.
        self.on_complete = on_complete
        #: When set, each worker attempt records into a per-process
        #: telemetry bundle whose report is shipped back over the
        #: result pipe and merged here under job_id/worker labels.
        self.telemetry = telemetry

    # -- public ----------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Dict[str, JobOutcome]:
        """Execute every job; outcomes keyed by id, in input order."""
        jobs = list(jobs)
        seen = set()
        for job in jobs:
            if job.job_id in seen:
                raise JobError(
                    f"duplicate job id {job.job_id!r}"
                ).with_context(job_id=job.job_id)
            seen.add(job.job_id)

        for job in jobs:
            self.obs.event("job_submitted", 0, job_id=job.job_id)
        if self.workers <= 1 or (len(jobs) <= 1 and self.timeout is None):
            outcomes = self._run_serial(jobs)
        else:
            outcomes = self._run_parallel(jobs)
        # Input order, so downstream iteration matches the job list.
        return {job.job_id: outcomes[job.job_id] for job in jobs}

    # -- shared helpers --------------------------------------------------
    def _retry_delay(self, attempt: int) -> float:
        return self.backoff * (BACKOFF_FACTOR ** (attempt - 1))

    def _complete(self, job: Job, result: Any, attempt: int,
                  elapsed: float) -> JobOutcome:
        if self.on_complete is not None:
            self.on_complete(job.job_id, result)
        self.obs.event("job_completed", 0, job_id=job.job_id,
                       attempt=attempt, elapsed=round(elapsed, 6))
        return JobOutcome(job.job_id, result, attempts=attempt,
                          elapsed_seconds=elapsed)

    def _fail(self, job: Job, attempt: int, reason: str) -> JobError:
        self.obs.event("job_failed", 0, job_id=job.job_id,
                       attempts=attempt, reason=reason)
        return JobError(
            f"job {job.job_id!r} failed after {attempt} attempt(s): {reason}"
        ).with_context(job_id=job.job_id, attempts=attempt, reason=reason)

    def _note_retry(self, job: Job, attempt: int, reason: str,
                    delay: float) -> None:
        self.obs.event("job_retried", 0, job_id=job.job_id,
                       attempt=attempt, reason=reason,
                       delay=round(delay, 6))

    # -- serial (in-process) ---------------------------------------------
    def _run_serial(self, jobs: Sequence[Job]) -> Dict[str, JobOutcome]:
        outcomes: Dict[str, JobOutcome] = {}
        for job in jobs:
            attempt = 0
            started = time.monotonic()
            while True:
                attempt += 1
                try:
                    # Telemetry activates per *attempt*, exactly like a
                    # fresh worker process would, so a retried job's
                    # discarded partial recording matches the parallel
                    # path's (a crashed worker ships nothing back).
                    if self.telemetry is not None:
                        activate_worker_telemetry(
                            self.telemetry.ring_capacity
                        )
                    if self.faults is not None:
                        self.faults.apply(job.job_id, attempt,
                                          in_process=True)
                    result = self.worker(job.payload)
                except Exception as exc:
                    deactivate_worker_telemetry()
                    reason = f"{type(exc).__name__}: {exc}"
                    if attempt > self.max_retries:
                        raise self._fail(job, attempt, reason) from exc
                    delay = self._retry_delay(attempt)
                    self._note_retry(job, attempt, reason, delay)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if self.telemetry is not None:
                    report = deactivate_worker_telemetry()
                    if report is not None:
                        self.telemetry.absorb(
                            report, job_id=job.job_id,
                            worker=str(os.getpid()),
                        )
                outcomes[job.job_id] = self._complete(
                    job, result, attempt, time.monotonic() - started
                )
                break
        return outcomes

    # -- parallel (process-per-job) --------------------------------------
    def _spawn(self, context, job: Job, attempt: int) -> _Running:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_entry,
            args=(child_conn, self.worker, job.job_id, job.payload,
                  attempt, self.faults,
                  self.telemetry.ring_capacity
                  if self.telemetry is not None else 0),
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + self.timeout if self.timeout is not None else None
        return _Running(process, parent_conn, job, attempt, now, deadline)

    def _run_parallel(self, jobs: Sequence[Job]) -> Dict[str, JobOutcome]:
        context = self._mp_context or pick_mp_context()
        outcomes: Dict[str, JobOutcome] = {}
        # (job, next_attempt, eligible_at): retries wait out their
        # backoff here without stalling the scheduler.
        queue: List[tuple] = [(job, 1, 0.0) for job in jobs]
        running: List[_Running] = []
        failure: Optional[JobError] = None
        try:
            while queue or running:
                now = time.monotonic()
                # Launch whatever fits and is past its backoff window.
                launchable = [entry for entry in queue if entry[2] <= now]
                while launchable and len(running) < self.workers:
                    entry = launchable.pop(0)
                    queue.remove(entry)
                    job, attempt, _ = entry
                    running.append(self._spawn(context, job, attempt))

                finished: List[_Running] = []
                for item in running:
                    # Liveness BEFORE poll: a worker that sends its result
                    # and exits between the two checks must not read as a
                    # crash.  Writes happen before exit, so once a process
                    # is observed dead, anything it sent is already in the
                    # pipe — dead + empty pipe is a true crash signature.
                    dead = not item.process.is_alive()
                    message = None
                    if item.conn.poll():
                        try:
                            message = item.conn.recv()
                        except (EOFError, OSError):
                            message = None
                    if message is not None:
                        # 2-tuple (status, value), or 3-tuple with the
                        # worker's telemetry report appended.
                        status, value = message[0], message[1]
                        item.process.join()
                        item.conn.close()
                        finished.append(item)
                        elapsed = now - item.started
                        if status == "ok":
                            if self.telemetry is not None and len(message) > 2:
                                self.telemetry.absorb(
                                    message[2], job_id=item.job.job_id,
                                    worker=str(item.process.pid),
                                )
                            outcomes[item.job.job_id] = self._complete(
                                item.job, value, item.attempt, elapsed
                            )
                        else:
                            failure = self._handle_failure(
                                item, str(value), queue
                            )
                    elif dead:
                        item.process.join()
                        item.conn.close()
                        finished.append(item)
                        failure = self._handle_failure(
                            item,
                            "worker crashed "
                            f"(exit code {item.process.exitcode})", queue
                        )
                    elif item.deadline is not None and now > item.deadline:
                        item.process.terminate()
                        item.process.join()
                        item.conn.close()
                        finished.append(item)
                        failure = self._handle_failure(
                            item,
                            f"timeout after {self.timeout:.3f}s", queue
                        )
                    if failure is not None:
                        raise failure
                for item in finished:
                    running.remove(item)
                if running and not finished:
                    # Block until any worker pipe is readable (or a
                    # short tick elapses so timeouts stay responsive).
                    multiprocessing.connection.wait(
                        [item.conn for item in running],
                        timeout=_POLL_SECONDS,
                    )
                elif queue and not running:
                    soonest = min(entry[2] for entry in queue)
                    wait = soonest - time.monotonic()
                    if wait > 0:
                        time.sleep(min(wait, 0.05))
        finally:
            for item in running:
                if item.process.is_alive():
                    item.process.terminate()
                item.process.join()
        return outcomes

    def _handle_failure(self, item: _Running, reason: str,
                        queue: List[tuple]) -> Optional[JobError]:
        """Requeue a failed attempt, or return the terminal JobError."""
        if item.attempt > self.max_retries:
            return self._fail(item.job, item.attempt, reason)
        delay = self._retry_delay(item.attempt)
        self._note_retry(item.job, item.attempt, reason, delay)
        queue.append((item.job, item.attempt + 1,
                      time.monotonic() + delay))
        return None
