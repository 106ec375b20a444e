"""Fault-tolerant job engine for experiment sweeps.

The (benchmark x selector) grid behind every figure is a bag of
independent, deterministic jobs; :mod:`repro.jobs` schedules such bags
over a process pool with the properties a twenty-million-event sweep
needs in practice:

* **per-job timeout** — a wedged worker is killed and the job retried;
* **bounded retry with backoff** — a crashed worker (nonzero exit, OOM
  kill, injected fault) costs one cell's work, not the sweep;
* **incremental results** — an ``on_complete`` hook sees each job as
  it finishes, so callers persist it at once (the grid runner and the
  service put cells in :mod:`repro.store`, and a rerun computes only
  the cells the store lacks);
* **fault injection** — :class:`~repro.jobs.faults.FaultInjector`
  deterministically crashes, hangs or errors chosen attempts, making
  the failure paths testable;
* **lifecycle events** — ``job_submitted`` / ``job_completed`` /
  ``job_retried`` / ``job_failed`` through the :mod:`repro.obs`
  Observer.

See ``docs/experiments.md`` for the full semantics.
"""

from repro.jobs.engine import Job, JobEngine, JobOutcome, pick_mp_context
from repro.jobs.faults import FaultInjector, InjectedFault

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "Job",
    "JobEngine",
    "JobOutcome",
    "pick_mp_context",
]
