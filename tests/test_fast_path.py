"""Bit-identity suite for the fused fast path (execute→simulate).

The simulator has two loop bodies — the reference state machine, fed
by pull (``Simulator.run``) or by push (``Simulator.run_push``, used
for replay), and the fully fused loop (``Simulator.run_program``).
Everything here pins them to each other: for every (benchmark ×
selector) cell the fused loop and both feeds of the reference must
agree *bit for bit* on the fingerprint of ``tests/identity.py`` —
metric report, raw run statistics, edge profile, selector diagnostics,
timeline samples, icache counts and every region's own counters.

Replay is held to the same standard: a collected trace replayed
pulled (the reference state machine) and pushed (the fused core) must
equal the live run.  The trace codec too: push collection must write
the bytes a pulled ``Step`` stream writes, any run written through the
raw ``TraceWriter.write`` must read back the same pulled and pushed,
a malformed body must fail both faces alike, and direction bits pack
least significant bit first.
"""

from __future__ import annotations

import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.models import Bernoulli
from repro.cache.dispatch import WalkTable
from repro.cache.icache import InstructionCache
from repro.config import SystemConfig
from repro.errors import TraceFormatError
from repro.execution.engine import ExecutionEngine
from repro.metrics.linking import inter_region_links, resident_inter_region_links
from repro.program.builder import ProgramBuilder
from repro.selection.registry import RELATED_SELECTOR_NAMES, SELECTOR_NAMES
from repro.system.simulator import Simulator, simulate
from repro.tracing import (
    TraceHeader,
    TraceSource,
    TraceWriter,
    collect_trace,
    replay_trace,
    replay_trace_into,
)
from repro.tracing.encoder import pack_bits
from repro.workloads import benchmark_names, build_benchmark

from .identity import fingerprint

ALL_SELECTORS = SELECTOR_NAMES + RELATED_SELECTOR_NAMES
BENCHMARKS = ("gzip", "mcf", "vortex")
SCALE = 0.05


@pytest.fixture(scope="module")
def programs():
    """One finalized program per benchmark, shared across the module."""
    return {name: build_benchmark(name, scale=SCALE) for name in BENCHMARKS}


class TestFusedVersusReference:
    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_results(self, programs, bench, selector):
        fast = simulate(programs[bench], selector, seed=0, fast=True)
        ref = simulate(programs[bench], selector, seed=0, fast=False)
        assert fingerprint(fast) == fingerprint(ref)

    def test_samples_identical_between_paths(self, programs):
        fast = simulate(programs["mcf"], "lei", seed=0, sample_every=500,
                        fast=True)
        ref = simulate(programs["mcf"], "lei", seed=0, sample_every=500,
                       fast=False)
        assert fast.samples == ref.samples
        assert fast.samples  # the run is long enough to sample

    def test_engine_counters_match_reference(self, programs):
        fast_engine = ExecutionEngine(programs["gzip"], seed=0)
        ref_engine = ExecutionEngine(programs["gzip"], seed=0)
        simulator = Simulator(programs["gzip"], "net")
        simulator.run_program(fast_engine)
        Simulator(programs["gzip"], "net").run(ref_engine.run())
        assert fast_engine.steps_executed == ref_engine.steps_executed
        assert (fast_engine.instructions_executed
                == ref_engine.instructions_executed)

    def test_run_program_rejects_foreign_engine(self, programs):
        from repro.errors import ReproError

        engine = ExecutionEngine(programs["gzip"], seed=0)
        simulator = Simulator(programs["mcf"], "net")
        with pytest.raises(ReproError):
            simulator.run_program(engine)


def _recording(selector):
    """Turn ``selector`` into an instance of a subclass that logs every
    callback as ``(hook, cache.now, block, taken, target, order)``,
    ``order`` being the exited region's selection order."""
    calls = []

    class Recording(type(selector)):
        def observe_interpreted(self, block, taken, target):
            calls.append(("observe_interpreted", self.cache.now,
                          block, taken, target, None))
            super().observe_interpreted(block, taken, target)

        def on_interpreted_taken(self, block, taken, target):
            calls.append(("on_interpreted_taken", self.cache.now,
                          block, taken, target, None))
            return super().on_interpreted_taken(block, taken, target)

        def on_cache_enter(self, block, taken, target):
            calls.append(("on_cache_enter", self.cache.now,
                          block, taken, target, None))
            super().on_cache_enter(block, taken, target)

        def on_cache_exit(self, block, taken, target, region):
            calls.append(("on_cache_exit", self.cache.now,
                          block, taken, target, region.selection_order))
            super().on_cache_exit(block, taken, target, region)

    selector.__class__ = Recording
    return calls


class TestOneCallbackProtocol:
    """Both loops drive a selector through the same four
    ``(block, taken, target)`` callbacks, and the fused loop builds no
    ``Step`` to do it."""

    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_both_loops_make_the_same_calls(self, programs, bench,
                                            selector):
        program = programs[bench]
        fused = Simulator(program, selector)
        fused_calls = _recording(fused.selector)
        fused.run_program(ExecutionEngine(program, seed=0))
        ref = Simulator(program, selector)
        ref_calls = _recording(ref.selector)
        ref.run(ExecutionEngine(program, seed=0).run())
        assert fused_calls
        assert fused_calls == ref_calls

    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    def test_fused_run_builds_no_step(self, programs, monkeypatch,
                                      selector):
        from repro.execution.events import Step

        built = []
        init = Step.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Step, "__init__", spy)
        result = simulate(programs["gzip"], selector, seed=0)
        assert result.stats.interp_steps > 0
        assert built == []


class TestBoundedCacheIdentity:
    """The link-invalidation path: fast == reference under eviction.

    Capacity 300 is below every selector's steady-state footprint on
    gzip at this scale, so every cell actually evicts (asserted) and
    the dispatch layer's retire/patch lifecycle is exercised for real.
    """

    @pytest.mark.parametrize("policy", ("flush", "fifo"))
    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    def test_bit_identical_under_eviction(self, programs, selector, policy):
        config = SystemConfig(cache_capacity_bytes=300,
                              cache_eviction_policy=policy)
        fast = simulate(programs["gzip"], selector, config, seed=0, fast=True)
        ref = simulate(programs["gzip"], selector, config, seed=0, fast=False)
        assert fast.cache_evictions > 0
        assert fast.cache_evictions == ref.cache_evictions
        assert fast.regenerated_regions == ref.regenerated_regions
        assert fingerprint(fast) == fingerprint(ref)


#: Every SPEC stand-in twice, unbounded under one selector and in a
#: 300-byte FIFO cache under another, so each selector runs in both.
OBSERVED_CELLS = [
    (bench, ALL_SELECTORS[(i + shift) % len(ALL_SELECTORS)], capacity)
    for i, bench in enumerate(benchmark_names())
    for shift, capacity in ((0, None), (3, 300))
]


#: The FIFO half of the observed cells: one selector per SPEC stand-in.
OBSERVED_REPLAYS = [(bench, selector)
                    for bench, selector, capacity in OBSERVED_CELLS
                    if capacity]


class TestObservedStepsIdentity:
    """With an icache model and a timeline sampler the fused loop walks
    step by step, with no static runs or counted laps, but it still
    links regions inside its walk.  Icache accesses and misses and
    every timeline sample must match the reference's, on live runs and
    on replays."""

    @pytest.mark.parametrize(
        "bench,selector,capacity", OBSERVED_CELLS,
        ids=[f"{b}-{s}-{c or 'unbounded'}" for b, s, c in OBSERVED_CELLS])
    def test_icache_and_samples_identical(self, bench, selector, capacity):
        program = build_benchmark(bench, scale=SCALE)
        config = SystemConfig(cache_capacity_bytes=capacity,
                              cache_eviction_policy="fifo")

        def run(fast):
            return simulate(program, selector, config, seed=3, fast=fast,
                            icache=InstructionCache(1024), sample_every=97)

        fused, ref = run(True), run(False)
        assert fingerprint(fused) == fingerprint(ref)
        assert fused.icache.accesses and fused.samples

    @pytest.mark.parametrize("bench,selector", OBSERVED_REPLAYS,
                             ids=[f"{b}-{s}" for b, s in OBSERVED_REPLAYS])
    def test_replays_observed_step_by_step(self, bench, selector, tmp_path,
                                           monkeypatch):
        program = build_benchmark(bench, scale=SCALE)
        config = SystemConfig(cache_capacity_bytes=300,
                              cache_eviction_policy="fifo")
        path = tmp_path / "trace.rtrc"
        collect_trace(ExecutionEngine(program, seed=3), path)

        def simulator():
            return Simulator(program, selector, config,
                             icache=InstructionCache(1024), sample_every=97)

        # Laps, and static runs, which leave run hits for ``advance`` to
        # fold or are cut by it, are off under per-step observers.
        batched = []

        def spy(name):
            original = getattr(WalkTable, name)

            def spied(table, *args):
                batched.append(name)
                return original(table, *args)

            monkeypatch.setattr(WalkTable, name, spied)

        spy("run_laps")
        spy("advance")
        fused = simulator().run_push(
            lambda consume: replay_trace_into(path, program, consume))
        assert batched == []
        ref = simulator().run(replay_trace(path, program))
        assert fingerprint(fused) == fingerprint(ref)
        assert fused.icache.accesses and fused.samples
        assert fused.cache_evictions > 0


class TestLinkingIdentity:
    """metrics/linking must not see the pipelines apart: the fast path's
    link patching changes *how* transfers chain, never *which* links
    exist."""

    CONFIGS = {
        "unbounded": SystemConfig(),
        "bounded-flush": SystemConfig(cache_capacity_bytes=300,
                                      cache_eviction_policy="flush"),
        "bounded-fifo": SystemConfig(cache_capacity_bytes=300,
                                     cache_eviction_policy="fifo"),
    }

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    def test_inter_region_links_match(self, programs, selector, config_name):
        config = self.CONFIGS[config_name]
        fast = simulate(programs["gzip"], selector, config, seed=0, fast=True)
        ref = simulate(programs["gzip"], selector, config, seed=0, fast=False)
        assert inter_region_links(fast) == inter_region_links(ref)
        assert (resident_inter_region_links(fast)
                == resident_inter_region_links(ref))

    def test_resident_links_subset_of_total(self, programs):
        config = SystemConfig(cache_capacity_bytes=300,
                              cache_eviction_policy="fifo")
        result = simulate(programs["gzip"], "net", config, seed=0)
        assert result.cache_evictions > 0
        assert resident_inter_region_links(result) <= inter_region_links(result)

    def test_unbounded_resident_links_equal_total(self, programs):
        result = simulate(programs["gzip"], "net", seed=0)
        assert resident_inter_region_links(result) == inter_region_links(result)


@pytest.fixture(scope="module")
def gzip_trace(programs, tmp_path_factory):
    """gzip's seed-0 trace, collected once: (path, steps written)."""
    trace = tmp_path_factory.mktemp("replay") / "trace.rtrc"
    written = collect_trace(ExecutionEngine(programs["gzip"], seed=0),
                            trace)
    return trace, written


class TestReplayMatchesLive:
    """Replay, pulled (the reference state machine) or pushed (the
    fused core), into unbounded and evicting caches.

    Capacity 300 evicts for every selector on gzip at this scale (see
    :class:`TestBoundedCacheIdentity`); asserted here too.
    """

    CONFIGS = {
        "unbounded": SystemConfig(),
        "bounded-fifo": SystemConfig(cache_capacity_bytes=300,
                                     cache_eviction_policy="fifo"),
        "bounded-flush": SystemConfig(cache_capacity_bytes=300,
                                      cache_eviction_policy="flush"),
    }

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    def test_collected_trace_replays_identically(self, programs, gzip_trace,
                                                 selector, config_name):
        program = programs["gzip"]
        config = self.CONFIGS[config_name]
        trace, written = gzip_trace

        live = simulate(program, selector, config, seed=0)
        assert written == live.stats.interp_steps + live.stats.cache_steps
        if config.cache_capacity_bytes is not None:
            assert live.cache_evictions > 0

        pull = Simulator(program, selector, config).run(
            replay_trace(trace, program))
        push = Simulator(program, selector, config).run_push(
            lambda consume: replay_trace_into(trace, program, consume)
        )
        assert fingerprint(pull) == fingerprint(live)
        assert fingerprint(push) == fingerprint(live)

    def test_push_collection_writes_reference_bytes(self, tmp_path, programs):
        program = programs["gzip"]
        fast_file = tmp_path / "fast.rtrc"
        collect_trace(ExecutionEngine(program, seed=0), fast_file)

        ref_engine = ExecutionEngine(program, seed=0)
        header = TraceHeader(program.name, program.block_count, ref_engine.seed)
        ref_file = tmp_path / "ref.rtrc"
        with open(ref_file, "wb") as fh:
            with TraceWriter(fh, header) as writer:
                for step in ref_engine.run():
                    writer.write(step.block, step.taken, step.target)

        assert fast_file.read_bytes() == ref_file.read_bytes()


@pytest.fixture
def fused_runs(monkeypatch):
    """Count the runs that reach the fused loop."""
    runs = []
    orig = Simulator._run_fused

    def counting(self, engine, *args):
        runs.append(type(engine).__name__)
        return orig(self, engine, *args)

    monkeypatch.setattr(Simulator, "_run_fused", counting)
    return runs


class TestReplayHandoff:
    """``consume.run_engine``: what reaches the fused core, and what
    stays on the reference state machine."""

    def test_pushed_replay_runs_on_the_fused_core(self, programs,
                                                  gzip_trace, fused_runs):
        trace, written = gzip_trace
        program = programs["gzip"]
        result = Simulator(program, "net").run_push(
            lambda consume: replay_trace_into(trace, program, consume))
        assert fused_runs == ["TraceSource"]
        assert result.stats.interp_steps + result.stats.cache_steps == written

    def test_reference_paths_stay_on_the_state_machine(self, programs,
                                                       gzip_trace,
                                                       fused_runs):
        trace, _ = gzip_trace
        program = programs["gzip"]
        Simulator(program, "net").run(replay_trace(trace, program))
        Simulator(program, "net").run_push(
            ExecutionEngine(program, seed=0).run_into)
        assert fused_runs == []

    def test_handoff_after_consume_is_refused(self, programs, gzip_trace):
        from repro.errors import ReproError

        trace, _ = gzip_trace
        program = programs["gzip"]

        def producer(consume):
            consume(program.entry, False, program.entry.fallthrough)
            replay_trace_into(trace, program, consume)

        with pytest.raises(ReproError, match="before any consume"):
            Simulator(program, "net").run_push(producer)

    def test_handoff_refuses_another_programs_engine(self, programs,
                                                     gzip_trace):
        from repro.errors import ReproError

        trace, _ = gzip_trace
        with pytest.raises(ReproError, match="simulator was built for"):
            Simulator(programs["mcf"], "net").run_push(
                lambda consume: replay_trace_into(
                    trace, programs["gzip"], consume))


class TestReplayObservability:
    """A fused replay looks exactly like the reference replay to every
    observability pillar: events, metrics and span entries per phase."""

    @staticmethod
    def _observe(run):
        from repro.obs import CollectingSink, MetricsRegistry, Observer
        from repro.obs import SpanTimer

        sink = CollectingSink()
        timer = SpanTimer()
        result = run(Observer(metrics=MetricsRegistry(), sink=sink,
                              profiler=timer))
        events = [(e.kind, e.step, e.fields) for e in sink.events]
        entries = {name: phase["entries"]
                   for name, phase in timer.snapshot()["phases"].items()}
        return events, result.metrics, entries

    @pytest.mark.parametrize("capacity", [None, 300])
    @pytest.mark.parametrize("selector", SELECTOR_NAMES)
    def test_fused_replay_observes_like_the_reference(
            self, programs, gzip_trace, selector, capacity):
        trace, _ = gzip_trace
        program = programs["gzip"]
        config = SystemConfig(cache_capacity_bytes=capacity,
                              cache_eviction_policy="fifo")
        reference = self._observe(
            lambda obs: Simulator(program, selector, config, observer=obs)
            .run(replay_trace(trace, program)))
        fused = self._observe(
            lambda obs: Simulator(program, selector, config, observer=obs)
            .run_push(lambda consume: replay_trace_into(trace, program,
                                                        consume)))
        kinds = [kind for kind, _, _ in reference[0]]
        if capacity is not None:
            assert "cache_evicted" in kinds
        assert fused[0] == reference[0]
        assert fused[1] == reference[1]
        assert fused[2] == reference[2]
        assert reference[2]["interpret"] >= 1


# -- trace codec properties ---------------------------------------------

def _codec_program():
    """A dispatch loop with a call: every transfer the format records
    (conditionals, indirect jumps) or implies (jumps, calls, returns,
    fall-throughs and the halt)."""
    pb = ProgramBuilder("codec")
    main = pb.procedure("main")
    main.block("head", insts=1).cond("end", Bernoulli(0.05))
    main.block("disp", insts=1).indirect({"c0": 1.0, "c1": 1.0, "c2": 1.0})
    main.block("c0", insts=2).jump("head")
    main.block("c1", insts=1).call("leaf")
    main.block("back", insts=1).jump("head")
    main.block("c2", insts=1)
    main.block("c3", insts=1).cond("head", Bernoulli(0.5))
    main.block("c4", insts=1).jump("head")
    main.block("end", insts=1).halt()
    leaf = pb.procedure("leaf")
    leaf.block("spin", insts=1).cond("spin", Bernoulli(0.5))
    leaf.block("out", insts=1).ret()
    return pb.build()


_CODEC_PROGRAM = _codec_program()
_CODEC_BLOCKS = _CODEC_PROGRAM.blocks


def _encode(seed: int, max_steps: int):
    """A run of the codec program written through ``TraceWriter.write``:
    (trace bytes, the run's ``(block, taken, target)`` steps)."""
    engine = ExecutionEngine(_CODEC_PROGRAM, seed=seed, max_steps=max_steps)
    steps = [(s.block, s.taken, s.target) for s in engine.run()]
    buf = io.BytesIO()
    header = TraceHeader(_CODEC_PROGRAM.name, _CODEC_PROGRAM.block_count,
                         seed)
    with TraceWriter(buf, header) as writer:
        for step in steps:
            writer.write(*step)
    return buf.getvalue(), steps


def _pulled(data: bytes):
    """Decode through ``TraceSource.steps`` (the pull face)."""
    source = TraceSource.read(io.BytesIO(data), _CODEC_PROGRAM)
    return [(s.block, s.taken, s.target) for s in source.steps()]


def _pushed(data: bytes):
    """Decode through ``replay_trace_into`` (the push face)."""
    pushed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "codec.rtrc")
        with open(path, "wb") as fh:
            fh.write(data)
        count = replay_trace_into(
            path, _CODEC_PROGRAM, lambda *step: pushed.append(step))
    assert count == len(pushed)
    return pushed


#: A run that records indirect targets: the last one's id is the
#: trace's final four bytes.
_FAULT_DATA = _encode(0, 60)[0]


class TestTraceCodec:
    @given(seed=st.integers(0, 2**32 - 1), max_steps=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_pull_and_push(self, seed, max_steps):
        data, steps = _encode(seed, max_steps)
        assert _pulled(data) == steps
        assert _pushed(data) == steps

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_trailing_bytes_rejected_pulled_and_pushed(self, decode):
        with pytest.raises(TraceFormatError, match="1 trailing bytes"):
            decode(_FAULT_DATA + b"\x7f")

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_truncated_target_rejected_pulled_and_pushed(self, decode):
        data = _FAULT_DATA[:-2]  # cut into the final target id
        with pytest.raises(TraceFormatError, match="truncated trace body"):
            decode(data)

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_out_of_range_block_id_rejected_pulled_and_pushed(self, decode):
        data = _FAULT_DATA[:-4] + (99).to_bytes(4, "little")
        with pytest.raises(TraceFormatError,
                           match="target id 99 is not a target of main:disp"):
            decode(data)

    @given(bits=st.lists(st.booleans(), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_direction_bits_pack_least_significant_first(self, bits):
        packed = pack_bits(bytearray(bits))
        assert len(packed) == (len(bits) + 7) // 8
        # Bit i is bit i % 8 of byte i // 8; padding bits are zero.
        assert int.from_bytes(packed, "little") == sum(
            1 << i for i, bit in enumerate(bits) if bit)

    def test_writer_rejects_use_after_close(self):
        buf = io.BytesIO()
        header = TraceHeader(_CODEC_PROGRAM.name, _CODEC_PROGRAM.block_count, 0)
        writer = TraceWriter(buf, header)
        writer.close()
        with pytest.raises(TraceFormatError):
            writer.write(_CODEC_BLOCKS[0], True, None)
