"""Windowed phase signals, read off a sampled run's timeline
(repro.analysis.timeline.phase_shifts)."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import (
    CHURN_SHIFT,
    EVICTION_SHIFT,
    HIT_RATE_SHIFT,
    SignalShift,
    phase_shifts,
    window_rates,
)
from repro.config import SystemConfig
from repro.obs import CollectingSink, Observer
from repro.system.results import TimelineSample
from repro.system.simulator import simulate
from repro.workloads import build_benchmark

from .identity import fingerprint

LOOPS = pytest.mark.parametrize("fast", [True, False],
                                ids=["fused", "reference"])

#: eon under NET in a 400-byte FIFO cache, sampled every 1000 steps,
#: moves all three signals.
EVICTING = dict(bench="eon", scale=0.05, seed=3, window=1000,
                config=SystemConfig(cache_capacity_bytes=400,
                                    cache_eviction_policy="fifo"))


def sampled_run(fast=True, bench="gzip", selector="net", scale=0.1, seed=1,
                config=None, window=2000, observer=None):
    program = build_benchmark(bench, scale=scale)
    return simulate(program, selector, config, seed=seed, fast=fast,
                    sample_every=window, observer=observer)


def sample(step, interp, cached, regions=0, evictions=0):
    return TimelineSample(step, interp, cached, regions, 0, evictions)


class TestWindows:
    @LOOPS
    def test_windows_partition_the_run(self, fast):
        result = sampled_run(fast)
        windows = window_rates(result.samples)
        assert windows, "a multi-thousand-step run must close windows"
        assert windows[0].start_step == 0
        for before, after in zip(windows, windows[1:]):
            assert after.start_step == before.end_step
        # The trailing partial window covers the end of the run.
        total_steps = result.stats.interp_steps + result.stats.cache_steps
        assert windows[-1].end_step == total_steps
        assert sum(w.instructions for w in windows) == (
            result.total_instructions_executed)
        assert sum(w.regions_selected for w in windows) == result.region_count
        for window in windows:
            assert 0.0 <= window.hit_rate <= 1.0
            assert window.regions_selected >= 0 and window.evictions == 0

    @LOOPS
    @pytest.mark.parametrize("window", [22_678, 11_339, 22_677])
    def test_a_run_ending_on_a_boundary_keeps_its_last_step(self, fast,
                                                            window):
        # mcf under NET runs 22,678 steps here.  A boundary sample is
        # taken before its step's effects, so at the last step the
        # closing sample replaces it.
        result = sampled_run(fast, bench="mcf", scale=0.05, window=window)
        steps = [s.step for s in result.samples]
        assert steps == list(range(window, 22_678, window)) + [22_678]
        assert sum(w.instructions for w in window_rates(result.samples)) == (
            result.total_instructions_executed) == 76_340

    def test_warmup_raises_hit_rate_across_windows(self):
        windows = window_rates(sampled_run().samples)
        assert windows[-1].hit_rate > windows[0].hit_rate

    @LOOPS
    def test_evictions_per_window_sum_to_the_run(self, fast):
        result = sampled_run(fast, **EVICTING)
        windows = window_rates(result.samples)
        assert result.samples[-1].evictions == result.cache_evictions > 0
        assert sum(w.evictions for w in windows) == result.cache_evictions


class TestPhaseShifts:
    @LOOPS
    def test_warmup_shift_detected_and_emitted(self, fast):
        sink = CollectingSink()
        result = sampled_run(fast, observer=Observer(sink=sink))
        shifts = phase_shifts(result.samples)
        assert any(shift.signal == "hit_rate" for shift in shifts), (
            "warm-up must move the hit rate")
        emitted = sink.by_kind("phase_shift")
        assert [(event.step, event.get("signal")) for event in emitted] == [
            (shift.step, shift.signal) for shift in shifts]
        for event, shift in zip(emitted, shifts):
            assert event.get("window") == 2000
            assert event.get("delta") == pytest.approx(shift.delta, abs=1e-6)
            assert event.get("previous") == pytest.approx(
                shift.previous, abs=1e-6)
            assert event.get("current") == pytest.approx(
                shift.current, abs=1e-6)
        # Emitted once the run is over, just before run_finished.
        kinds = [event.kind for event in sink.events]
        assert kinds[-1] == "run_finished"
        assert kinds[-1 - len(emitted):-1] == ["phase_shift"] * len(emitted)

    @LOOPS
    def test_churn_and_eviction_shifts(self, fast):
        sink = CollectingSink()
        result = sampled_run(fast, observer=Observer(sink=sink), **EVICTING)
        shifts = phase_shifts(result.samples)
        signals = {shift.signal for shift in shifts}
        assert {"churn", "evictions"} <= signals
        rates = {rate.end_step: rate for rate in window_rates(result.samples)}
        for shift in shifts:
            if shift.signal == "evictions":
                assert shift.current == rates[shift.step].evictions
                assert abs(shift.delta) >= EVICTION_SHIFT
            elif shift.signal == "churn":
                assert shift.current == rates[shift.step].regions_selected
                assert abs(shift.delta) >= CHURN_SHIFT
        assert len(sink.by_kind("phase_shift")) == len(shifts)

    def test_unsampled_run_emits_no_shift(self):
        sink = CollectingSink()
        program = build_benchmark("gzip", scale=0.1)
        simulate(program, "net", seed=1, observer=Observer(sink=sink))
        assert sink.by_kind("phase_shift") == []

    def test_synthetic_dip_triggers_both_directions(self):
        # Window 1: all cached.  Window 2: all interpreted (the dip).
        # Window 3: recovered.
        samples = [sample(10, 0, 100), sample(20, 100, 100),
                   sample(30, 100, 200)]
        assert [w.hit_rate for w in window_rates(samples)] == [1.0, 0.0, 1.0]
        assert phase_shifts(samples) == [
            SignalShift(20, "hit_rate", 1.0, 0.0, -1.0),
            SignalShift(30, "hit_rate", 0.0, 1.0, 1.0),
        ]

    def test_thresholds_are_inclusive(self):
        assert (HIT_RATE_SHIFT, CHURN_SHIFT, EVICTION_SHIFT) == (0.10, 8, 8)
        # Window 2 moves each signal by exactly its threshold; window 3
        # by just under it (0.09, 7 and 7): only window 2 fires.
        samples = [
            sample(1000, 1000, 0),
            sample(2000, 1900, 100, regions=8, evictions=8),
            sample(3000, 2710, 290, regions=23, evictions=23),
        ]
        shifts = phase_shifts(samples)
        assert [(shift.step, shift.signal) for shift in shifts] == [
            (2000, "hit_rate"), (2000, "churn"), (2000, "evictions")]
        assert [shift.delta for shift in shifts[1:]] == [8, 8]

    def test_too_few_windows(self):
        assert phase_shifts([]) == []
        assert phase_shifts([sample(10, 5, 5)]) == []


class TestOutcomeIdentity:
    @LOOPS
    def test_sampling_does_not_change_simulation_results(self, fast):
        program = build_benchmark("gzip", scale=0.1)
        config = SystemConfig(cache_capacity_bytes=4096,
                              cache_eviction_policy="fifo")
        plain = simulate(program, "net", config, seed=1, fast=fast)
        sampled = simulate(program, "net", config, seed=1, fast=fast,
                           sample_every=1000)
        assert sampled.samples and not plain.samples
        unsampled = list(fingerprint(sampled))
        unsampled[6] = []  # the samples
        assert tuple(unsampled) == fingerprint(plain)
