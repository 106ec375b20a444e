"""Guard: observability must never change results, and must cost ~nothing off.

Two properties protect the simulator against instrumentation rot:

1. *Identity* — running with every pillar enabled produces the exact same
   ``RunResult`` numbers as running with the default null observer.
2. *Fast path* — with the null observer the hot loop executes no emission
   code at all (checked structurally with a tripwire observer) and stays
   within 10% of the enabled-mode step throughput (checked with a
   best-of-N timing comparison, phrased to be robust on shared CI boxes).
"""

from __future__ import annotations

import time

import pytest

from repro.config import SystemConfig
from repro.obs import MetricsRegistry, Observer, SpanTimer, full_observer
from repro.obs.sink import CollectingSink
from repro.system.simulator import simulate
from repro.workloads import benchmark_names, build_benchmark


def result_fingerprint(result):
    """Every externally meaningful number a run produces."""
    return {
        "interp_steps": result.stats.interp_steps,
        "cache_steps": result.stats.cache_steps,
        "interp_instructions": result.stats.interp_instructions,
        "cache_instructions": result.stats.cache_instructions,
        "cache_entries": result.stats.cache_entries,
        "cache_exits": result.stats.cache_exits,
        "region_transitions": result.stats.region_transitions,
        "regions": [
            (r.entry.full_label, r.selection_order, r.selected_at_step,
             r.kind, r.instruction_count)
            for r in result.regions
        ],
        "samples": [(s.step, s.cache_steps, s.regions) for s in result.samples],
        "evictions": result.cache_evictions,
        "flushes": result.cache_flushes,
        "diagnostics": result.selector_diagnostics,
    }


class TestObservabilityChangesNothing:
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_enabled_vs_disabled_identical_results(self, bench):
        program = build_benchmark(bench, scale=0.05)
        plain = simulate(program, "lei", seed=1)
        observed = simulate(program, "lei", seed=1,
                            observer=full_observer(profile=True))
        assert result_fingerprint(observed) == result_fingerprint(plain)

    @pytest.mark.parametrize("selector", ["net", "lei", "combined-net",
                                          "combined-lei"])
    def test_identity_across_selectors(self, selector):
        program = build_benchmark("gzip", scale=0.05)
        config = SystemConfig(cache_capacity_bytes=300)
        plain = simulate(program, selector, config, seed=1)
        observed = simulate(program, selector, config, seed=1,
                            observer=full_observer(profile=True))
        assert result_fingerprint(observed) == result_fingerprint(plain)

    def test_metric_counters_reconcile(self):
        program = build_benchmark("mcf", scale=0.05)
        obs = Observer(metrics=MetricsRegistry())
        result = simulate(program, "lei", seed=1, observer=obs)
        snap = result.metrics
        assert sum(snap["regions_installed_total"]["values"].values()) == (
            result.region_count
        )
        assert snap["cache_exits_total"]["values"][""] == result.stats.cache_exits


class _TripwireObserver(Observer):
    """Looks disabled, but detonates if an unguarded emission path runs.

    ``emit`` is the raw write — every call site must gate it behind
    ``events_enabled``, so reaching it here means a guard is missing.
    ``span``/``count``/``event`` are self-guarding no-ops by contract and
    are allowed through (they only appear on rare paths such as region
    installation, never per step).
    """

    def emit(self, kind, step, **fields):
        raise AssertionError(
            "disabled observer reached emit(%r) — fast path broken" % kind
        )


class TestDisabledFastPath:
    def test_hot_loop_never_calls_into_a_disabled_observer(self):
        program = build_benchmark("gzip", scale=0.05)
        config = SystemConfig(cache_capacity_bytes=300)
        for selector in ("net", "lei", "combined-lei"):
            simulate(program, selector, config, seed=1,
                     observer=_TripwireObserver())

    def test_disabled_overhead_under_ten_percent(self):
        program = build_benchmark("gzip", scale=0.1)

        def timed(observer):
            start = time.perf_counter()
            simulate(program, "lei", seed=1, observer=observer)
            return time.perf_counter() - start

        def enabled_observer():
            return Observer(
                metrics=MetricsRegistry(),
                sink=CollectingSink(),
                profiler=SpanTimer(),
            )

        # Warm caches/imports so neither side pays first-run costs.
        simulate(program, "lei", seed=1)

        # Alternate the two sides run by run, flipping which goes
        # first, so a drift in host speed lands on both sides alike.
        disabled = enabled = float("inf")
        for round_index in range(5):
            if round_index % 2:
                enabled = min(enabled, timed(enabled_observer()))
                disabled = min(disabled, timed(None))
            else:
                disabled = min(disabled, timed(None))
                enabled = min(enabled, timed(enabled_observer()))
        # Disabled mode must not be more than 10% slower than enabled mode
        # (it should in fact be faster; the inequality direction is the
        # guard the issue asks for, stated against the noisier bound).
        assert disabled <= enabled * 1.10, (
            "disabled %.4fs vs enabled %.4fs" % (disabled, enabled)
        )
