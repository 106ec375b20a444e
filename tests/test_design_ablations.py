"""Tests for the design-choice ablation flags."""

import pytest

from repro.config import SystemConfig
from repro.metrics import spanned_cycle_ratio
from repro.system.simulator import simulate
from repro.workloads import build_micro


class TestNetBackwardCallRule:
    """Section 2.2: "stopping at a backward function call or return
    enables NET to limit code expansion, but it prevents any
    interprocedural cycle from being spanned"."""

    @pytest.fixture
    def program(self):
        return build_micro("figure2")

    def test_default_rule_cannot_span(self, program):
        result = simulate(program, "net", SystemConfig())
        assert spanned_cycle_ratio(result) == 0.0

    def test_relaxed_recorder_can_span_the_interprocedural_cycle(self, program):
        """Drive the recorder directly from the loop header: with the
        stop rule relaxed, it crosses the backward call and closes the
        full cycle (end-to-end, the callee's counter usually fires first
        and takes the E-rooted rotation instead)."""
        from repro.cache.codecache import CodeCache
        from repro.selection.net import TraceRecorder

        label = program.block_by_full_label
        a, b, d = label("main:A"), label("main:B"), label("main:D")
        e, f = label("helper:E"), label("helper:F")
        config = SystemConfig(net_stop_at_backward_calls=False)
        cache = CodeCache()
        recorder = TraceRecorder(head=a)
        assert not recorder.feed(a, False, b, cache, config)
        # The backward call no longer ends the trace...
        assert not recorder.feed(b, True, e, cache, config)
        assert not recorder.feed(e, False, f, cache, config)
        assert not recorder.feed(f, True, d, cache, config)
        # ...but the branch closing the trace's own cycle always does.
        assert recorder.feed(d, True, a, cache, config)
        assert recorder.blocks == [a, b, e, f, d]
        assert recorder.final_target is a  # spans the cycle

    def test_strict_recorder_stops_at_the_backward_call(self, program):
        from repro.cache.codecache import CodeCache
        from repro.selection.net import TraceRecorder

        label = program.block_by_full_label
        a, b, e = label("main:A"), label("main:B"), label("helper:E")
        recorder = TraceRecorder(head=a)
        config = SystemConfig()
        assert not recorder.feed(a, False, b, CodeCache(), config)
        assert recorder.feed(b, True, e, CodeCache(), config)
        assert recorder.blocks == [a, b]

    def test_relaxed_rule_still_terminates_traces(self, program):
        """Even without the call/return stop, the head-closing branch and
        the size limit bound every trace."""
        config = SystemConfig(net_stop_at_backward_calls=False)
        result = simulate(program, "net", config)
        for region in result.regions:
            assert len(region.path) <= config.max_trace_blocks

    def test_relaxed_rule_costs_expansion_on_call_heavy_benchmarks(self):
        """The paper's justification for the rule, reproduced: on the
        benchmarks with backward calls inside hot loops (eon, gap),
        extending through them copies more code."""
        from repro.workloads import build_benchmark

        strict_total = relaxed_total = 0
        for bench in ("eon", "gap"):
            program = build_benchmark(bench, scale=0.15)
            strict_total += simulate(
                program, "net", SystemConfig(), seed=1
            ).code_expansion
            relaxed_total += simulate(
                program, "net",
                SystemConfig(net_stop_at_backward_calls=False), seed=1,
            ).code_expansion
        assert relaxed_total > strict_total


class TestLeiExitCycleRule:
    """Figure 5 line 9's second disjunct lets traces grow from exits."""

    def test_exit_rule_enables_selection_at_exit_targets(self, nested_loop_program):
        config = SystemConfig(lei_threshold=4)
        result = simulate(nested_loop_program, "lei", config)
        entries = {r.entry.label for r in result.regions}
        assert "C" in entries  # reachable only via the follows-exit rule

    def test_without_exit_rule_exit_targets_never_start_traces(
        self, nested_loop_program
    ):
        config = SystemConfig(lei_threshold=4, lei_allow_exit_cycles=False)
        result = simulate(nested_loop_program, "lei", config)
        entries = {r.entry.label for r in result.regions}
        assert "C" not in entries

    def test_without_exit_rule_coverage_degrades(self, nested_loop_program):
        full = simulate(nested_loop_program, "lei", SystemConfig(lei_threshold=4))
        restricted = simulate(
            nested_loop_program, "lei",
            SystemConfig(lei_threshold=4, lei_allow_exit_cycles=False),
        )
        assert restricted.hit_rate <= full.hit_rate
        assert restricted.region_count <= full.region_count
