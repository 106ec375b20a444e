"""Bit-identity suite for the fused fast path (execute→simulate).

The simulator has two loop bodies — the reference state machine, fed
by pull (``Simulator.run``) or by push (``Simulator.run_push``, used
for replay), and the fully fused loop (``Simulator.run_program``).
Everything here pins them to each other: for every (benchmark ×
selector) cell the fused loop and both feeds of the reference must
agree *bit for bit* — metric report, raw run statistics, edge profile,
selector diagnostics and timeline samples.

The trace codec gets the same treatment: the push-mode writer/decoder
pair (``TraceWriter.write`` / ``TraceReader.steps_into``) must agree
byte-for-byte and step-for-step with the Step-based reference methods,
including on hypothesis-generated record streams and on malformed
input.
"""

from __future__ import annotations

import io

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
from repro.tracing.records import RECORD_HEAD
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


class TestReplayMatchesLive:
    """Replay, pulled or pushed, into unbounded and evicting caches.

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

    @pytest.fixture(scope="class")
    def gzip_trace(self, programs, tmp_path_factory):
        """gzip's seed-0 trace, collected once: (path, steps written)."""
        trace = tmp_path_factory.mktemp("replay") / "trace.rtrc"
        written = collect_trace(ExecutionEngine(programs["gzip"], seed=0),
                                trace)
        return trace, written

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


def _encode(records) -> bytes:
    buf = io.BytesIO()
    header = TraceHeader(_CODEC_PROGRAM.name, _CODEC_PROGRAM.block_count, 0)
    with TraceWriter(buf, header) as writer:
        for block_id, taken, target_id in records:
            writer.write(
                _CODEC_BLOCKS[block_id],
                taken,
                None if target_id is None else _CODEC_BLOCKS[target_id],
            )
    return buf.getvalue()


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
        data = _encode(records)

        pulled = TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps()
        assert [(s.block, s.taken, s.target) for s in pulled] == expected

        pushed = []
        decoded = TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps_into(
            lambda block, taken, target: pushed.append((block, taken, target))
        )
        assert decoded == len(records)
        assert pushed == expected

    def test_trailing_bytes_rejected_by_both_decoders(self):
        data = _encode([(0, True, 1), (1, False, None)]) + b"\x7f"
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            list(TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps())
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps_into(
                lambda *step: None
            )

    def test_truncated_target_rejected_by_both_decoders(self):
        data = _encode([(0, True, 1)])
        data = data[:-2]  # cut into the final target record
        with pytest.raises(TraceFormatError, match="truncated target"):
            list(TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps())
        with pytest.raises(TraceFormatError, match="truncated target"):
            TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps_into(
                lambda *step: None
            )

    def test_out_of_range_block_id_rejected_by_both_decoders(self):
        header = TraceHeader(
            _CODEC_PROGRAM.name, _CODEC_PROGRAM.block_count, 0
        ).encode()
        data = header + RECORD_HEAD.pack(99, 0)
        with pytest.raises(TraceFormatError, match="out of range"):
            list(TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps())
        with pytest.raises(TraceFormatError, match="out of range"):
            TraceReader(io.BytesIO(data), _CODEC_PROGRAM).steps_into(
                lambda *step: None
            )

    def test_writer_rejects_use_after_close(self):
        buf = io.BytesIO()
        header = TraceHeader(_CODEC_PROGRAM.name, _CODEC_PROGRAM.block_count, 0)
        writer = TraceWriter(buf, header)
        writer.close()
        with pytest.raises(TraceFormatError):
            writer.write(_CODEC_BLOCKS[0], True, None)
