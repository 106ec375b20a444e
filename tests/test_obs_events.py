"""Unit tests for events, sinks, the profiler and the observer facade."""

from __future__ import annotations

import io

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    EVENT_KINDS,
    CollectingSink,
    JsonlSink,
    Observer,
    RingBufferSink,
    SpanTimer,
    TeeSink,
    make_event,
    parse_events,
    summarize_events,
)
from repro.obs.observer import NULL_OBSERVER


class TestEvents:
    def test_make_event_fills_taxonomy_metadata(self):
        event = make_event("region_installed", 12, entry="main:A")
        assert event.category == "region"
        assert event.severity == "info"
        assert event.get("entry") == "main:A"
        assert event.get("missing", "dflt") == "dflt"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            make_event("nonsense_event", 1)

    def test_reserved_field_rejected(self):
        with pytest.raises(ObservabilityError):
            make_event("cache_exit", 1, severity="info")

    def test_jsonl_round_trip_preserves_events(self):
        emitted = [
            make_event("region_installed", 5, entry="a", instructions=7),
            make_event("cache_evicted", 9, entry="b", bytes=120, policy="fifo"),
            make_event("run_failed", 11, error="CacheError", message="boom"),
        ]
        text = "".join(event.to_json() + "\n" for event in emitted)
        parsed = list(parse_events(io.StringIO(text)))
        assert parsed == emitted

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ObservabilityError):
            list(parse_events(io.StringIO("{not json}\n")))
        with pytest.raises(ObservabilityError):
            list(parse_events(io.StringIO("[1, 2]\n")))

    def test_parse_skips_blank_lines_and_keeps_unknown_kinds(self):
        line = '{"step": 3, "kind": "future_kind", "category": "x", "severity": "warn", "n": 1}'
        events = list(parse_events(io.StringIO("\n" + line + "\n\n")))
        assert len(events) == 1
        assert events[0].kind == "future_kind"
        assert events[0].severity == "warn"
        assert events[0].get("n") == 1

    def test_taxonomy_is_well_formed(self):
        for kind, decl in EVENT_KINDS.items():
            assert decl.category
            assert decl.severity in ("debug", "info", "warn", "error"), kind
            assert decl.doc


class TestSinks:
    def test_collecting_sink_and_kind_index(self):
        sink = CollectingSink()
        sink.write(make_event("cache_exit", 1, region_entry="a"))
        sink.write(make_event("region_installed", 2, entry="b"))
        assert len(sink.events) == 2
        assert [e.step for e in sink.by_kind("cache_exit")] == [1]
        assert sink.accepted == 2

    def test_severity_filter(self):
        sink = CollectingSink(min_severity="info")
        sink.write(make_event("cache_exit", 1))        # debug -> dropped
        sink.write(make_event("region_installed", 2))  # info -> kept
        assert [e.kind for e in sink.events] == ["region_installed"]
        assert sink.filtered == 1

    def test_category_filter(self):
        sink = CollectingSink(categories=["cache"])
        sink.write(make_event("region_installed", 1))
        sink.write(make_event("cache_evicted", 2))
        assert [e.kind for e in sink.events] == ["cache_evicted"]

    def test_ring_buffer_overflow_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for step in range(1, 6):
            sink.write(make_event("cache_exit", step))
        assert [e.step for e in sink.events] == [3, 4, 5]
        assert sink.dropped == 2
        assert len(sink) == 3

    def test_ring_buffer_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            RingBufferSink(capacity=0)

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        sink.write(make_event("region_installed", 3, entry="x"))
        sink.write(make_event("cache_flushed", 4, regions=2, bytes=100))
        sink.close()
        with open(path, encoding="utf-8") as handle:
            events = list(parse_events(handle))
        assert [e.kind for e in events] == ["region_installed", "cache_flushed"]
        assert events[1].get("bytes") == 100

    def test_jsonl_sink_flushes_mid_run(self, tmp_path):
        # Killed-worker scenario: the sink is never closed.  Everything
        # up to the last flush boundary must already be on disk — the
        # whole point of an event log is surviving the crash it
        # records the run-up to.
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path, flush_every=4)
        for step in range(1, 6):
            sink.write(make_event("cache_exit", step))
        with open(path, encoding="utf-8") as handle:
            events = list(parse_events(handle))
        assert len(events) >= 4
        sink.close()

    def test_jsonl_sink_flush_every_validated(self):
        with pytest.raises(ObservabilityError):
            JsonlSink(io.StringIO(), flush_every=0)

    def test_tee_fans_out(self):
        a, b = CollectingSink(), CollectingSink(min_severity="info")
        tee = TeeSink([a, b])
        tee.write(make_event("cache_exit", 1))
        assert len(a.events) == 1 and len(b.events) == 0

    def test_tee_close_reaches_every_child_despite_failure(self):
        closed = []

        class Failing(CollectingSink):
            def close(self):
                closed.append("failing")
                raise RuntimeError("disk full")

        class Recording(CollectingSink):
            def close(self):
                closed.append("recording")

        tee = TeeSink([Failing(), Recording(), Failing()])
        with pytest.raises(RuntimeError, match="disk full"):
            tee.close()
        # Every child was closed; the first error was re-raised after.
        assert closed == ["failing", "recording", "failing"]


class TestSpanTimer:
    def make_timer(self):
        ticks = iter(range(1000))
        return SpanTimer(clock=lambda: float(next(ticks)))

    def test_nested_scopes_use_self_time(self):
        timer = self.make_timer()
        timer.enter("outer")   # t=0
        timer.enter("inner")   # t=1: outer banks 1
        timer.exit()           # t=2: inner banks 1
        timer.exit()           # t=3: outer banks 1 more
        assert timer.totals["outer"] == 2.0
        assert timer.totals["inner"] == 1.0
        assert timer.counts == {"outer": 1, "inner": 1}
        assert timer.depth == 0

    def test_switch_closes_and_opens_at_same_depth(self):
        timer = self.make_timer()
        timer.switch("interpret")   # t=0
        timer.switch("cache_walk")  # t=1: interpret banks 1
        timer.switch("interpret")   # t=2: cache_walk banks 1
        timer.stop()                # t=3: interpret banks 1
        assert timer.totals["interpret"] == 2.0
        assert timer.totals["cache_walk"] == 1.0
        assert timer.total_seconds == 3.0

    def test_exit_without_enter_is_an_error(self):
        timer = self.make_timer()
        with pytest.raises(ObservabilityError):
            timer.exit()

    def test_throughput_and_table(self):
        timer = self.make_timer()
        timer.enter("interpret")
        timer.exit()
        timer.steps = 500
        assert timer.throughput() == 500.0
        table = timer.format_table()
        assert "interpret" in table
        assert "steps: 500" in table
        snap = timer.snapshot()
        assert snap["phases"]["interpret"]["entries"] == 1

    def test_span_context_manager(self):
        timer = self.make_timer()
        with timer.span("region_build"):
            pass
        assert timer.totals["region_build"] == 1.0


class TestObserver:
    def test_null_observer_is_fully_disabled(self):
        assert not NULL_OBSERVER.enabled
        assert not NULL_OBSERVER.events_enabled
        assert not NULL_OBSERVER.metrics_enabled
        assert not NULL_OBSERVER.profiling_enabled
        assert not bool(NULL_OBSERVER)
        # Self-guarding helpers are no-ops, not errors.
        assert NULL_OBSERVER.event("cache_exit", 1) is None
        NULL_OBSERVER.count("whatever_total")

    def test_disabled_span_is_shared_noop(self):
        span_a = NULL_OBSERVER.span("x")
        span_b = NULL_OBSERVER.span("y")
        assert span_a is span_b
        with span_a:
            pass

    def test_common_fields_merge_into_events(self):
        sink = CollectingSink()
        obs = Observer(sink=sink)
        obs.common["selector"] = "net"
        obs.emit("region_installed", 7, entry="a")
        event = sink.events[0]
        assert event.get("selector") == "net"
        assert event.get("entry") == "a"
        # Explicit fields win over common fields.
        obs.common["entry"] = "shadowed"
        obs.emit("region_installed", 8, entry="explicit")
        assert sink.events[1].get("entry") == "explicit"

    def test_count_creates_labelled_counter(self):
        from repro.obs import MetricsRegistry

        obs = Observer(metrics=MetricsRegistry())
        obs.count("regions_rejected_total", reason="x")
        obs.count("regions_rejected_total", 2, reason="y")
        counter = obs.metrics.get("regions_rejected_total")
        assert counter.value(reason="x") == 1
        assert counter.value(reason="y") == 2


class TestInspectSummary:
    def test_summarize_counts_and_failure(self):
        events = [
            make_event("run_started", 0, benchmark="b", selector="net"),
            make_event("region_installed", 10, selector="net", entry="a"),
            make_event("region_rejected", 12, selector="net", entry="a",
                       reason="entry_already_cached"),
            make_event("region_rejected", 14, selector="net", entry="a",
                       reason="entry_already_cached"),
            make_event("cache_exit", 15, region_entry="a", exit_target="b"),
            make_event("cache_evicted", 20, entry="a", bytes=64, policy="fifo"),
            make_event("cache_flushed", 30, regions=3, bytes=200),
            make_event("run_failed", 31, error="CacheError", message="boom"),
        ]
        summary = summarize_events(events)
        assert summary.total_events == 8
        assert summary.first_step == 0 and summary.last_step == 31
        assert summary.installed == 1
        assert summary.cache_exits == 1
        assert summary.evictions == 1 and summary.flushes == 1
        assert summary.evicted_bytes == 64
        assert summary.top_rejected() == [("a", 2)]
        assert summary.rejection_reasons == {"entry_already_cached": 2}
        assert summary.decisions_by_selector["net"]["region_rejected"] == 2
        assert summary.failure is not None
        from repro.obs import format_summary

        text = format_summary(summary)
        assert "RUN FAILED at step 31" in text
        assert "eviction churn: 1 evictions, 1 flushes" in text
        assert "region_rejected" in text

    def test_step_range_is_the_lowest_and_highest_step(self):
        from repro.obs import format_summary

        # Ordered by time, as a merged fleet log is: job events at step
        # 0 open and close it, the cell's events lie between, and a
        # later event may carry a lower step.
        events = [
            make_event("job_submitted", 0, job_id="a"),
            make_event("region_installed", 900, selector="net", entry="x"),
            make_event("cache_exit", 40, region_entry="x", exit_target="y"),
            make_event("job_completed", 0, job_id="a", attempt=1,
                       elapsed=0.1),
        ]
        summary = summarize_events(events)
        assert (summary.first_step, summary.last_step) == (0, 900)
        assert "4 events (steps 0..900)" in format_summary(summary)

    def test_job_lifecycle_section(self):
        from repro.obs import format_summary

        events = [
            make_event("job_submitted", 0, job_id="a")._replace(ts=100.0),
            make_event("job_submitted", 0, job_id="b")._replace(ts=100.5),
            make_event("job_retried", 0, job_id="b", attempt=1,
                       reason="crashed", delay=0.1),
            make_event("job_completed", 0, job_id="a", attempt=1,
                       elapsed=1.9)._replace(ts=102.0),
            # No usable timestamp: falls back to the elapsed payload.
            make_event("job_completed", 0, job_id="b", attempt=2,
                       elapsed=3.25)._replace(ts=0.0),
            make_event("job_failed", 0, job_id="c", attempts=3,
                       reason="timeout"),
        ]
        summary = summarize_events(events)
        assert summary.jobs_submitted == 2
        assert summary.jobs_completed == 2
        assert summary.jobs_retried == 1
        assert summary.jobs_failed == 1
        assert summary.job_wall_seconds["a"] == pytest.approx(2.0)
        assert summary.job_wall_seconds["b"] == pytest.approx(3.25)
        assert summary.job_retry_reasons == {"b": ["crashed"]}
        text = format_summary(summary)
        assert ("job engine: 2 submitted, 2 completed, 1 retried, "
                "1 failed\n") in text
        assert "retried: crashed" in text

    def test_phase_shift_timeline_section(self):
        from repro.obs import format_summary

        events = [
            make_event("phase_shift", 5000, signal="hit_rate",
                       previous=0.9, current=0.5, delta=-0.4, window=5000),
            make_event("phase_shift", 10000, signal="churn",
                       previous=2, current=14, delta=12, window=5000),
        ]
        summary = summarize_events(events)
        assert summary.phase_shifts == [
            (5000, "hit_rate", -0.4), (10000, "churn", 12)]
        text = format_summary(summary)
        assert "phase shifts: 2" in text
        assert "step 5000" in text and "hit_rate" in text


class TestEventOrdering:
    def test_events_are_stamped_monotonically(self):
        events = [make_event("cache_exit", step) for step in range(50)]
        sequences = [event.seq for event in events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        timestamps = [event.ts for event in events]
        assert timestamps == sorted(timestamps)
        assert all(ts > 0 for ts in timestamps)

    def test_order_key_totally_orders_a_merged_log(self):
        events = [make_event("cache_exit", step) for step in range(10)]
        shuffled = events[::2] + events[1::2]
        merged = sorted(shuffled, key=lambda event: event.order_key)
        assert merged == events

    def test_stamps_survive_serialization(self):
        import json

        from repro.obs.events import event_from_dict

        event = make_event("region_installed", 4, entry="a")
        clone = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone.ts == event.ts and clone.seq == event.seq
        assert clone.order_key == event.order_key
