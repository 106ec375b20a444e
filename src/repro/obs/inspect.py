"""Summarize an event log without re-running the simulation.

``python -m repro inspect events.jsonl`` feeds a recorded JSONL stream
through :func:`summarize_events` and prints :func:`format_summary`.
The summary answers the questions the paper's evaluation keeps asking
of a run — which targets kept getting rejected, how much eviction
churn a bounded cache suffered, how each selector's decisions split —
straight from the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.events import Event


@dataclass
class InspectSummary:
    """Aggregates computed from one event stream."""

    total_events: int = 0
    #: Lowest and highest step seen.  Not the first and last event's:
    #: a merged fleet log is ordered by time, and its job events sit
    #: at step 0 on both ends.
    first_step: Optional[int] = None
    last_step: Optional[int] = None
    #: kind -> count.
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: category -> count.
    by_category: Dict[str, int] = field(default_factory=dict)
    #: selector -> {decision kind -> count} over region-category events.
    decisions_by_selector: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: entry label -> times a candidate region at that entry was rejected.
    rejected_entries: Dict[str, int] = field(default_factory=dict)
    #: rejection reason -> count.
    rejection_reasons: Dict[str, int] = field(default_factory=dict)
    #: entry label -> times a region at that entry was evicted.
    evicted_entries: Dict[str, int] = field(default_factory=dict)
    evictions: int = 0
    flushes: int = 0
    evicted_bytes: int = 0
    installed: int = 0
    cache_exits: int = 0
    truncations: int = 0
    history_clears: int = 0
    #: Job-engine lifecycle counts (category "job").
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_retried: int = 0
    jobs_failed: int = 0
    #: job_id -> wall seconds, from the submitted->completed timestamp
    #: delta (falls back to the completed event's ``elapsed`` payload
    #: for logs written before events carried timestamps).
    job_wall_seconds: Dict[str, float] = field(default_factory=dict)
    #: job_id -> retry reasons observed.
    job_retry_reasons: Dict[str, List[str]] = field(default_factory=dict)
    #: Windowed phase-shift signals: (step, signal, delta) triples.
    phase_shifts: List[Tuple[int, str, object]] = field(default_factory=list)
    #: The terminal run_failed event, if the run aborted.
    failure: Optional[Event] = None
    #: job_id -> submission timestamp (internal, for wall-time deltas).
    _job_submitted_ts: Dict[str, float] = field(default_factory=dict)

    @property
    def total_job_events(self) -> int:
        return (self.jobs_submitted + self.jobs_completed
                + self.jobs_retried + self.jobs_failed)

    def top_rejected(self, limit: int = 10) -> List[Tuple[str, int]]:
        return sorted(
            self.rejected_entries.items(), key=lambda item: (-item[1], item[0])
        )[:limit]

    def top_evicted(self, limit: int = 10) -> List[Tuple[str, int]]:
        return sorted(
            self.evicted_entries.items(), key=lambda item: (-item[1], item[0])
        )[:limit]


def summarize_events(events: Iterable[Event]) -> InspectSummary:
    """One pass over an event stream -> :class:`InspectSummary`."""
    summary = InspectSummary()
    for event in events:
        summary.total_events += 1
        step = event.step
        if summary.first_step is None or step < summary.first_step:
            summary.first_step = step
        if summary.last_step is None or step > summary.last_step:
            summary.last_step = step
        summary.by_kind[event.kind] = summary.by_kind.get(event.kind, 0) + 1
        summary.by_category[event.category] = (
            summary.by_category.get(event.category, 0) + 1
        )
        kind = event.kind
        if event.category in ("region", "history"):
            selector = str(event.get("selector", "?"))
            decisions = summary.decisions_by_selector.setdefault(selector, {})
            decisions[kind] = decisions.get(kind, 0) + 1
        if kind == "region_installed":
            summary.installed += 1
        elif kind == "region_rejected":
            entry = str(event.get("entry", "?"))
            summary.rejected_entries[entry] = (
                summary.rejected_entries.get(entry, 0) + 1
            )
            reason = str(event.get("reason", "?"))
            summary.rejection_reasons[reason] = (
                summary.rejection_reasons.get(reason, 0) + 1
            )
        elif kind == "trace_truncated":
            summary.truncations += 1
        elif kind == "history_cleared":
            summary.history_clears += 1
        elif kind == "cache_exit":
            summary.cache_exits += 1
        elif kind == "cache_evicted":
            summary.evictions += 1
            entry = str(event.get("entry", "?"))
            summary.evicted_entries[entry] = (
                summary.evicted_entries.get(entry, 0) + 1
            )
            bytes_freed = event.get("bytes", 0)
            if isinstance(bytes_freed, (int, float)):
                summary.evicted_bytes += int(bytes_freed)
        elif kind == "cache_flushed":
            summary.flushes += 1
        elif kind == "phase_shift":
            summary.phase_shifts.append(
                (event.step, str(event.get("signal", "?")),
                 event.get("delta"))
            )
        elif kind == "job_submitted":
            summary.jobs_submitted += 1
            job_id = str(event.get("job_id", "?"))
            if event.ts > 0:
                summary._job_submitted_ts[job_id] = event.ts
        elif kind == "job_completed":
            summary.jobs_completed += 1
            job_id = str(event.get("job_id", "?"))
            submitted = summary._job_submitted_ts.get(job_id)
            if submitted is not None and event.ts >= submitted:
                summary.job_wall_seconds[job_id] = event.ts - submitted
            else:
                elapsed = event.get("elapsed")
                if isinstance(elapsed, (int, float)):
                    summary.job_wall_seconds[job_id] = float(elapsed)
        elif kind == "job_retried":
            summary.jobs_retried += 1
            job_id = str(event.get("job_id", "?"))
            summary.job_retry_reasons.setdefault(job_id, []).append(
                str(event.get("reason", "?"))
            )
        elif kind == "job_failed":
            summary.jobs_failed += 1
        elif kind == "run_failed":
            summary.failure = event
    return summary


def format_summary(summary: InspectSummary) -> str:
    """Render an :class:`InspectSummary` as the ``inspect`` CLI output."""
    lines: List[str] = []
    span = ""
    if summary.first_step is not None:
        span = f" (steps {summary.first_step}..{summary.last_step})"
    lines.append(f"{summary.total_events} events{span}")

    lines.append("")
    lines.append("events by kind:")
    for kind, count in sorted(
        summary.by_kind.items(), key=lambda item: (-item[1], item[0])
    ):
        lines.append(f"  {kind:<20s} {count}")

    if summary.decisions_by_selector:
        lines.append("")
        lines.append("selection decisions by selector:")
        for selector in sorted(summary.decisions_by_selector):
            decisions = summary.decisions_by_selector[selector]
            parts = " ".join(
                f"{kind}={count}" for kind, count in sorted(decisions.items())
            )
            lines.append(f"  {selector:<14s} {parts}")

    if summary.rejected_entries:
        lines.append("")
        lines.append("top rejected region entries:")
        for entry, count in summary.top_rejected():
            lines.append(f"  {entry:<30s} x{count}")
        reasons = " ".join(
            f"{reason}={count}"
            for reason, count in sorted(summary.rejection_reasons.items())
        )
        lines.append(f"  reasons: {reasons}")

    if summary.evictions or summary.flushes:
        lines.append("")
        lines.append(
            f"eviction churn: {summary.evictions} evictions, "
            f"{summary.flushes} flushes, {summary.evicted_bytes} bytes freed"
        )
        for entry, count in summary.top_evicted(5):
            lines.append(f"  {entry:<30s} evicted x{count}")

    if summary.total_job_events:
        lines.append("")
        lines.append(
            f"job engine: {summary.jobs_submitted} submitted, "
            f"{summary.jobs_completed} completed, "
            f"{summary.jobs_retried} retried, "
            f"{summary.jobs_failed} failed"
        )
        if summary.job_wall_seconds:
            slowest = sorted(
                summary.job_wall_seconds.items(),
                key=lambda item: (-item[1], item[0]),
            )[:10]
            for job_id, seconds in slowest:
                retries = summary.job_retry_reasons.get(job_id, [])
                suffix = ""
                if retries:
                    suffix = f"  (retried: {', '.join(retries)})"
                lines.append(f"  {job_id:<30s} {seconds:8.3f}s{suffix}")

    if summary.phase_shifts:
        lines.append("")
        lines.append(f"phase shifts: {len(summary.phase_shifts)}")
        for step, signal, delta in summary.phase_shifts[:20]:
            lines.append(f"  step {step:<10d} {signal:<12s} delta={delta}")

    if summary.failure is not None:
        lines.append("")
        payload = summary.failure.payload
        context = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
        lines.append(f"RUN FAILED at step {summary.failure.step}: {context}")
    return "\n".join(lines)
