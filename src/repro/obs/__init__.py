"""Observability for the simulator pipeline (zero dependencies).

Three pillars, one handle:

* :mod:`repro.obs.metrics` — named counters / gauges / fixed-bucket
  histograms with labels, snapshot-to-dict and a Prometheus-style text
  exporter;
* :mod:`repro.obs.events` + :mod:`repro.obs.sink` — a closed taxonomy
  of typed structured events (``region_installed``, ``cache_evicted``,
  ...) written through pluggable sinks (JSONL file, in-memory ring
  buffer) with severity/category filtering;
* :mod:`repro.obs.profile` — a monotonic-clock span timer with nested
  scopes for per-phase wall time and step throughput.

On top of the pillars sits one aggregation layer,
:mod:`repro.obs.telemetry`, for cross-process shipping: workers bundle
their registry/profile/event tail into a
:class:`~repro.obs.telemetry.TelemetryReport` and the parent merges
every report into one :class:`~repro.obs.telemetry.FleetTelemetry`.
Windowed phase signals are read off a sampled run's timeline
(:func:`repro.analysis.timeline.phase_shifts`); a sampled run with an
event sink emits them as ``phase_shift`` events.

:class:`~repro.obs.observer.Observer` bundles the three;
:data:`~repro.obs.observer.NULL_OBSERVER` is the shared disabled
instance every component defaults to.  The design contract is that the
disabled observer adds no measurable work to the simulator's hot loop —
see ``tests/test_obs_guard.py``.
"""

from repro.obs.events import (
    EVENT_KINDS,
    Event,
    event_from_dict,
    load_events,
    make_event,
    parse_events,
)
from repro.obs.inspect import InspectSummary, format_summary, summarize_events
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.profile import SpanTimer
from repro.obs.sink import (
    CollectingSink,
    EventSink,
    JsonlSink,
    RingBufferSink,
    TeeSink,
)
from repro.obs.telemetry import (
    FleetTelemetry,
    TelemetryReport,
    WorkerTelemetry,
    activate_worker_telemetry,
    deactivate_worker_telemetry,
    load_telemetry,
    worker_observer,
)

__all__ = [
    "EVENT_KINDS",
    "Event",
    "event_from_dict",
    "load_events",
    "make_event",
    "parse_events",
    "InspectSummary",
    "format_summary",
    "summarize_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "SpanTimer",
    "CollectingSink",
    "EventSink",
    "JsonlSink",
    "RingBufferSink",
    "TeeSink",
    "FleetTelemetry",
    "TelemetryReport",
    "WorkerTelemetry",
    "activate_worker_telemetry",
    "deactivate_worker_telemetry",
    "load_telemetry",
    "worker_observer",
]


def full_observer(
    sink: "EventSink" = None,
    ring_capacity: int = None,
    profile: bool = False,
) -> "Observer":
    """Convenience constructor used by the CLI and tests.

    With no arguments, enables metrics plus a default 64 Ki-event ring
    buffer.  Pass ``sink`` for an explicit destination (e.g. a
    :class:`JsonlSink`), ``ring_capacity`` for a sized ring buffer, or
    ``profile=True`` to attach a :class:`SpanTimer`.
    """
    if sink is None:
        sink = RingBufferSink(ring_capacity if ring_capacity else 65536)
    return Observer(
        metrics=MetricsRegistry(),
        sink=sink,
        profiler=SpanTimer() if profile else None,
    )
