"""Bit-identity suite for the fused fast path (execute→simulate).

The simulator has two loop bodies — the reference state machine, fed
by pull (``Simulator.run``) or by push (``Simulator.run_push``, used
for replay), and the fully fused loop (``Simulator.run_program``).
Everything here pins them to each other: for every (benchmark ×
selector) cell the fused loop and both feeds of the reference must
agree *bit for bit* — metric report, raw run statistics, edge profile,
selector diagnostics and timeline samples.

Replay is held to the same standard: a collected trace replayed
pulled (the reference state machine) and pushed (the fused core) must
equal the live run.  The trace codec too: collection through the raw
``TraceWriter.write`` must write the bytes the Step-based
``write_step`` writes, the version-1 parser must decode
hypothesis-generated and malformed record streams the same pulled and
pushed, and version-2 direction bits pack least significant bit first.
"""

from __future__ import annotations

import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import TraceFormatError
from repro.execution.engine import ExecutionEngine
from repro.metrics.linking import inter_region_links, resident_inter_region_links
from repro.metrics.summary import MetricReport
from repro.program.builder import ProgramBuilder
from repro.selection.registry import RELATED_SELECTOR_NAMES, SELECTOR_NAMES
from repro.system.simulator import Simulator, simulate
from repro.tracing import (
    TraceHeader,
    TraceReader,
    TraceWriter,
    collect_trace,
    replay_trace,
    replay_trace_into,
)
from repro.tracing.encoder import pack_bits
from repro.tracing.records import (
    FLAG_HAS_TARGET,
    FLAG_TAKEN,
    RECORD_HEAD,
    RECORD_TARGET,
)
from repro.workloads import build_benchmark

ALL_SELECTORS = SELECTOR_NAMES + RELATED_SELECTOR_NAMES
BENCHMARKS = ("gzip", "mcf", "vortex")
SCALE = 0.05


@pytest.fixture(scope="module")
def programs():
    """One finalized program per benchmark, shared across the module."""
    return {name: build_benchmark(name, scale=SCALE) for name in BENCHMARKS}


def _fingerprint(result):
    """Everything a run measures, in comparable form."""
    stats = {
        name: getattr(result.stats, name) for name in result.stats.__slots__
    }
    return (
        MetricReport.from_result(result),
        stats,
        result.edge_profile,
        result.selector_diagnostics,
        result.samples,
        result.peak_counters,
        result.peak_observed_trace_bytes,
    )


class TestFusedVersusReference:
    @pytest.mark.parametrize("selector", ALL_SELECTORS)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_results(self, programs, bench, selector):
        fast = simulate(programs[bench], selector, seed=0, fast=True)
        ref = simulate(programs[bench], selector, seed=0, fast=False)
        assert _fingerprint(fast) == _fingerprint(ref)

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
        assert _fingerprint(fast) == _fingerprint(ref)


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
        assert _fingerprint(pull) == _fingerprint(live)
        assert _fingerprint(push) == _fingerprint(live)

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
                    writer.write_step(step)

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
    pb = ProgramBuilder("codec")
    main = pb.procedure("main")
    for i in range(6):
        main.block(f"b{i}", insts=1)
    main.block("end", insts=1).halt()
    return pb.build()


_CODEC_PROGRAM = _codec_program()
_CODEC_BLOCKS = _CODEC_PROGRAM.blocks
_CODEC_IDS = len(_CODEC_BLOCKS) - 1

_record = st.tuples(
    st.integers(0, _CODEC_IDS),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, _CODEC_IDS)),
)


def _encode_v1(records) -> bytes:
    """A version-1 trace of raw ``(block id, taken, target id)`` records."""
    data = bytearray(TraceHeader(_CODEC_PROGRAM.name,
                                 _CODEC_PROGRAM.block_count, 0,
                                 version=1).encode())
    for block_id, taken, target_id in records:
        flags = FLAG_TAKEN if taken else 0
        if target_id is None:
            data += RECORD_HEAD.pack(block_id, flags)
        else:
            data += RECORD_HEAD.pack(block_id, flags | FLAG_HAS_TARGET)
            data += RECORD_TARGET.pack(target_id)
    return bytes(data)


def _pulled(data: bytes):
    """Decode through ``TraceReader.steps`` (the pull face)."""
    steps = TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps()
    return [(s.block, s.taken, s.target) for s in steps]


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


class TestTraceCodec:
    @given(records=st.lists(_record, max_size=300))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip_pull_and_push(self, records):
        expected = [
            (
                _CODEC_BLOCKS[block_id],
                taken,
                None if target_id is None else _CODEC_BLOCKS[target_id],
            )
            for block_id, taken, target_id in records
        ]
        data = _encode_v1(records)
        assert _pulled(data) == expected
        assert _pushed(data) == expected

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_trailing_bytes_rejected_pulled_and_pushed(self, decode):
        data = _encode_v1([(0, True, 1), (1, False, None)]) + b"\x7f"
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            decode(data)

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_truncated_target_rejected_pulled_and_pushed(self, decode):
        data = _encode_v1([(0, True, 1)])
        data = data[:-2]  # cut into the final target record
        with pytest.raises(TraceFormatError, match="truncated target"):
            decode(data)

    @pytest.mark.parametrize("decode", [_pulled, _pushed])
    def test_out_of_range_block_id_rejected_pulled_and_pushed(self, decode):
        with pytest.raises(TraceFormatError, match="out of range"):
            decode(_encode_v1([(99, False, None)]))

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
