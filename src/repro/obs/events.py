"""Typed structured events: the qualitative pillar of :mod:`repro.obs`.

An :class:`Event` is one decision or state change inside the simulated
system, stamped with the simulation step at which it happened.  The
taxonomy is closed: every kind is declared in :data:`EVENT_KINDS` with
its category (used for sink filtering) and default severity, so an
event log is self-describing and ``repro inspect`` can summarize one
without knowing which selector produced it.

Beyond the simulation step, every event carries two ordering stamps:

* ``ts`` — a wall-clock timestamp, clamped to be non-decreasing within
  the emitting process;
* ``seq`` — a per-process emission sequence number.

Together they give merged multi-process logs a total order: ``(ts,
seq)`` orders events from one process exactly, and ``ts`` interleaves
processes (job-engine workers ship their event tails back to the
parent, which merges them — see :mod:`repro.obs.telemetry`).  The
simulation step alone cannot do this: job lifecycle events all happen
at step 0, and two workers' step clocks are unrelated.

Events serialize to JSON objects with a flat schema::

    {"step": 812, "kind": "region_installed", "category": "region",
     "severity": "info", "ts": 1754556093.41, "seq": 812,
     "selector": "lei", "entry": "main.L3", ...}

``kind``/``step``/``category``/``severity``/``ts``/``seq`` are
reserved keys; all other keys are event-specific payload fields.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, Iterator, NamedTuple, TextIO, Tuple, Union

from repro.errors import ObservabilityError

#: Severity levels, in increasing order of importance.
SEVERITIES: Tuple[str, ...] = ("debug", "info", "warn", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class EventKind(NamedTuple):
    """Declaration of one event type in the taxonomy."""

    category: str
    severity: str
    doc: str


#: The closed event taxonomy: kind name -> (category, severity, doc).
EVENT_KINDS: Dict[str, EventKind] = {
    # -- run lifecycle --------------------------------------------------
    "run_started": EventKind("run", "info", "A simulation began."),
    "run_finished": EventKind("run", "info", "A simulation completed."),
    "run_failed": EventKind(
        "run", "error",
        "A simulation aborted with an error; payload carries the "
        "(benchmark, selector, step) context and the message."),
    # -- region selection ----------------------------------------------
    "region_installed": EventKind(
        "region", "info",
        "A selector installed a region into the code cache."),
    "region_rejected": EventKind(
        "region", "debug",
        "A candidate region was abandoned (reason field says why)."),
    "trace_truncated": EventKind(
        "region", "debug",
        "A trace recording/formation hit a size limit and was cut."),
    "combine_attempted": EventKind(
        "region", "debug",
        "Trace combination ran over a target's observed traces."),
    "history_cleared": EventKind(
        "history", "debug",
        "LEI truncated its branch history buffer after a selection."),
    # -- windowed phase signals (repro.analysis.timeline) ----------------
    "phase_shift": EventKind(
        "signal", "info",
        "A windowed signal moved sharply window-over-window (hit rate, "
        "churn or eviction pressure) — the program likely changed phase."),
    # -- cache management ------------------------------------------------
    "cache_entered": EventKind(
        "cache", "debug",
        "Execution entered the code cache from the interpreter."),
    "cache_exit": EventKind(
        "cache", "debug",
        "Execution left the code cache back to the interpreter."),
    "cache_evicted": EventKind(
        "cache", "info",
        "A bounded cache evicted one resident region."),
    "cache_flushed": EventKind(
        "cache", "info",
        "A bounded cache preemptively flushed every resident region."),
    # -- job engine (experiment scheduling; step is always 0, so the
    # -- ts/seq stamps carry the ordering and the wall time) -------------
    "job_submitted": EventKind(
        "job", "debug",
        "A job was handed to the engine for execution."),
    "job_completed": EventKind(
        "job", "debug",
        "A job finished; payload carries attempt count and elapsed time."),
    "job_retried": EventKind(
        "job", "warn",
        "A job attempt crashed, timed out or errored and was rescheduled "
        "with backoff (reason field says which)."),
    "job_failed": EventKind(
        "job", "error",
        "A job exhausted its retry budget and the run aborted."),
    # -- result store ----------------------------------------------------
    "store_hit": EventKind(
        "store", "debug",
        "A result was served from the content-addressed store."),
    "store_put": EventKind(
        "store", "debug",
        "A freshly computed result was persisted into the store."),
    "store_corrupt": EventKind(
        "store", "warn",
        "An unreadable store entry was quarantined so it is never "
        "re-parsed; the cell recomputes as a normal miss."),
    "store_gc": EventKind(
        "store", "info",
        "A store GC pass evicted least-recently-accessed entries to "
        "get back under the byte budget."),
    # -- simulation service (repro.serve; step is always 0) --------------
    "serve_started": EventKind(
        "serve", "info",
        "The grid server began accepting requests."),
    "serve_stopped": EventKind(
        "serve", "info",
        "The grid server shut down."),
    "serve_request": EventKind(
        "serve", "debug",
        "An HTTP request reached the grid server."),
    "serve_response": EventKind(
        "serve", "debug",
        "An HTTP response left the grid server; payload carries the "
        "status, resolution source and latency."),
    "serve_coalesced": EventKind(
        "serve", "debug",
        "A request was deduplicated onto an identical in-flight job "
        "(single-flight)."),
    # -- fleet execution (repro.batch; step is always 0, batch
    # -- granularity — per-step events are a serial-pipeline concern) ----
    "fleet_started": EventKind(
        "fleet", "info",
        "A fleet run began; payload carries the cell count (lanes), the "
        "resolved backend name and the live-lane bound (max_lanes: "
        "always 1, the cells run one at a time on the fused core)."),
    "fleet_lane_finished": EventKind(
        "fleet", "debug",
        "One fleet cell finished (halted or exhausted its step budget); "
        "payload carries the cell and its step count."),
    "fleet_lane_failed": EventKind(
        "fleet", "warn",
        "One fleet cell failed under on_error='continue'; the fleet went "
        "on to the next cell.  Payload carries the cell and the "
        "contained error."),
    "fleet_refill": EventKind(
        "fleet", "debug",
        "A fleet admitted its next queued cell into slot 0 (one per "
        "cell after the first); payload carries the cell, the slot, "
        "and the queue progress counters (settled / queued / active)."),
    "fleet_finished": EventKind(
        "fleet", "info",
        "A fleet run completed; payload carries rounds (one per cell), "
        "refills, errors, aggregate steps and wall time."),
}

_RESERVED = ("kind", "step", "category", "severity", "ts", "seq")

# Per-process emission stamps.  ``_seq`` counts every event built in
# this process; ``_last_ts`` clamps the wall clock so ``ts`` never goes
# backwards within a process even if the system clock does.
_seq = 0
_last_ts = 0.0


def _stamp() -> Tuple[float, int]:
    """Next (non-decreasing wall-clock ts, per-process seq) pair."""
    global _seq, _last_ts
    now = time.time()
    if now < _last_ts:
        now = _last_ts
    _last_ts = now
    _seq += 1
    return now, _seq


class Event(NamedTuple):
    """One structured event (immutable once emitted)."""

    kind: str
    step: int
    category: str
    severity: str
    fields: Tuple[Tuple[str, object], ...]
    #: Wall-clock timestamp, non-decreasing within the emitting process.
    ts: float = 0.0
    #: Per-process emission sequence number (1-based; 0 = unstamped).
    seq: int = 0

    @property
    def payload(self) -> Dict[str, object]:
        return dict(self.fields)

    @property
    def order_key(self) -> Tuple[float, int]:
        """Sort key giving merged multi-process logs a total order."""
        return (self.ts, self.seq)

    def get(self, key: str, default: object = None) -> object:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "step": self.step,
            "kind": self.kind,
            "category": self.category,
            "severity": self.severity,
            "ts": self.ts,
            "seq": self.seq,
        }
        data.update(self.fields)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False, default=str)


def make_event(kind: str, step: int, **fields: object) -> Event:
    """Build an :class:`Event`, validating it against the taxonomy."""
    try:
        decl = EVENT_KINDS[kind]
    except KeyError:
        raise ObservabilityError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}"
        ) from None
    for reserved in _RESERVED:
        if reserved in fields:
            raise ObservabilityError(
                f"event field {reserved!r} is reserved (kind {kind!r})"
            )
    ts, seq = _stamp()
    return Event(kind, step, decl.category, decl.severity,
                 tuple(fields.items()), ts, seq)


def event_from_dict(data: Dict[str, object]) -> Event:
    """Rebuild an :class:`Event` from a parsed JSON object.

    Unknown kinds are accepted (logs must outlive taxonomy changes);
    the recorded category/severity win over the current declaration.
    Logs written before the ordering stamps existed load with
    ``ts=0.0`` / ``seq=0``.
    """
    try:
        kind = str(data["kind"])
        step = int(data["step"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        raise ObservabilityError(f"malformed event object: {data!r}") from None
    decl = EVENT_KINDS.get(kind)
    category = str(data.get("category", decl.category if decl else "unknown"))
    severity = str(data.get("severity", decl.severity if decl else "info"))
    try:
        ts = float(data.get("ts", 0.0))  # type: ignore[arg-type]
        seq = int(data.get("seq", 0))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        ts, seq = 0.0, 0
    fields = tuple(
        (key, value) for key, value in data.items() if key not in _RESERVED
    )
    return Event(kind, step, category, severity, fields, ts, seq)


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity (unknown severities rank as info)."""
    return _SEVERITY_RANK.get(severity, _SEVERITY_RANK["info"])


def parse_events(lines: Union[Iterable[str], TextIO]) -> Iterator[Event]:
    """Parse a JSONL event stream, skipping blank lines.

    Raises :class:`~repro.errors.ObservabilityError` on malformed JSON
    so callers can report the offending line number.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"event log line {lineno} is not valid JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ObservabilityError(
                f"event log line {lineno} is not a JSON object"
            )
        yield event_from_dict(data)


def load_events(path: str) -> Iterator[Event]:
    """Stream events from a JSONL file written by :class:`JsonlSink`."""
    with open(path, "r", encoding="utf-8") as handle:
        for event in parse_events(handle):
            yield event
