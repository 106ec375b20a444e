"""Property-based tests (hypothesis) on core invariants.

Programs are generated from the motif library with randomized structure
and seeds, so every generated program is valid, halting, and realistic;
the properties then assert conservation laws and algorithm invariants
that must hold for *any* program.
"""

from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.behavior.models import LoopTrip
from repro.behavior.rng import SplitMix64
from repro.config import SystemConfig
from repro.execution.engine import ExecutionEngine
from repro.metrics.summary import MetricReport
from repro.program.builder import ProgramBuilder
from repro.selection.compact import CompactTrace
from repro.selection.counters import CounterTable
from repro.selection.history import BranchHistoryBuffer
from repro.selection.marking import mark_rejoining_paths
from repro.selection.region_cfg import build_observed_cfg
from repro.system.simulator import Simulator
from repro.workloads import motifs
from repro.workloads.motifs import MotifContext

SELECTORS = ("net", "lei", "combined-net", "combined-lei")


@st.composite
def small_programs(draw):
    """A random, valid, halting program built from motifs."""
    pb = ProgramBuilder("prop", entry="main")
    ctx = MotifContext(pb, SplitMix64(draw(st.integers(0, 2**31))))
    main = pb.procedure("main")
    main.block("start", insts=draw(st.integers(1, 6)))

    outer_head = ctx.fresh("outer")
    main.block(outer_head, insts=1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["hot", "nested", "branchy", "diamond", "switch", "retry", "once"]
        ))
        if kind == "hot":
            motifs.hot_loop(main, ctx, trips=draw(st.integers(2, 20)),
                            body_blocks=draw(st.integers(1, 3)),
                            dual_entry=draw(st.booleans()))
        elif kind == "nested":
            motifs.nested_loop(main, ctx,
                               [draw(st.integers(2, 6)), draw(st.integers(2, 8))])
        elif kind == "branchy":
            motifs.branchy_loop(
                main, ctx, trips=draw(st.integers(2, 10)),
                biases=[draw(st.floats(0.05, 0.95)) for _ in range(draw(st.integers(1, 3)))],
            )
        elif kind == "diamond":
            motifs.diamond(main, ctx, bias=draw(st.floats(0.0, 1.0)))
        elif kind == "switch":
            motifs.switch_loop(main, ctx, trips=draw(st.integers(2, 8)),
                               case_insts=[2] * draw(st.integers(2, 4)))
        elif kind == "retry":
            motifs.rare_retry(main, ctx, retry_probability=draw(st.floats(0.0, 0.3)))
        else:
            motifs.one_shot_loop(main, ctx)
    main.block(ctx.fresh("latch"), insts=1).cond(
        outer_head, model=LoopTrip(draw(st.integers(2, 60)))
    )
    main.block("end", insts=1).halt()
    return pb.build(), draw(st.integers(0, 2**31))


COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestEngineProperties:
    @COMMON
    @given(small_programs())
    def test_stream_is_contiguous(self, program_seed):
        program, seed = program_seed
        engine = ExecutionEngine(program, seed=seed, max_steps=20_000)
        previous_target = None
        for step in engine.run():
            if previous_target is not None:
                assert step.block is previous_target
            previous_target = step.target

    @COMMON
    @given(small_programs())
    def test_engine_deterministic(self, program_seed):
        program, seed = program_seed
        first = [
            (s.block, s.taken)
            for s in ExecutionEngine(program, seed=seed, max_steps=5_000).run()
        ]
        second = [
            (s.block, s.taken)
            for s in ExecutionEngine(program, seed=seed, max_steps=5_000).run()
        ]
        assert first == second


class TestSimulatorConservation:
    @COMMON
    @given(small_programs(), st.sampled_from(SELECTORS))
    def test_instructions_conserved(self, program_seed, selector):
        program, seed = program_seed
        config = SystemConfig(net_threshold=6, lei_threshold=5,
                              combined_net_t_start=3, combined_lei_t_start=2,
                              combine_t_prof=3, combine_t_min=2)
        engine = ExecutionEngine(program, seed=seed, max_steps=30_000)
        result = Simulator(program, selector, config).run(engine.run())
        assert result.total_instructions_executed == engine.instructions_executed
        per_region = sum(r.executed_instructions for r in result.regions)
        assert per_region == result.stats.cache_instructions
        assert 0.0 <= result.hit_rate <= 1.0

    @COMMON
    @given(small_programs(), st.sampled_from(SELECTORS))
    def test_entry_accounting(self, program_seed, selector):
        program, seed = program_seed
        config = SystemConfig(net_threshold=6, lei_threshold=5,
                              combined_net_t_start=3, combined_lei_t_start=2,
                              combine_t_prof=3, combine_t_min=2)
        engine = ExecutionEngine(program, seed=seed, max_steps=30_000)
        result = Simulator(program, selector, config).run(engine.run())
        entries = sum(r.entry_count for r in result.regions)
        assert entries == result.stats.cache_entries + result.stats.region_transitions
        # Every region in the cache was selected; single-entry invariant.
        heads = [r.entry for r in result.regions]
        assert len(heads) == len(set(heads))

    @COMMON
    @given(small_programs())
    def test_region_blocks_are_program_blocks(self, program_seed):
        program, seed = program_seed
        config = SystemConfig(net_threshold=6, lei_threshold=5)
        engine = ExecutionEngine(program, seed=seed, max_steps=30_000)
        result = Simulator(program, "lei", config).run(engine.run())
        universe = set(program.blocks)
        for region in result.regions:
            assert region.block_set <= universe
            assert region.entry in region.block_set


def _fingerprint(result):
    """Report, raw statistics, edge profile and selector diagnostics."""
    stats = {
        name: getattr(result.stats, name) for name in result.stats.__slots__
    }
    return (
        MetricReport.from_result(result),
        stats,
        result.edge_profile,
        result.selector_diagnostics,
    )


class TestPipelinesAgree:
    """The reference state machine, fed by pull or by push, and the
    fused fast core agree on any generated program."""

    # Examples run in milliseconds, and only about a third of the
    # bounded ones select enough regions to evict, so draw more.
    @settings(COMMON, max_examples=100)
    @given(small_programs(), st.sampled_from(SELECTORS),
           st.sampled_from((None, "fifo", "flush")))
    def test_pull_push_and_fused_fingerprints_equal(
            self, program_seed, selector, policy):
        program, seed = program_seed
        config = SystemConfig(net_threshold=6, lei_threshold=5,
                              combined_net_t_start=3, combined_lei_t_start=2,
                              combine_t_prof=3, combine_t_min=2)

        def engine():
            return ExecutionEngine(program, seed=seed, max_steps=30_000)

        if policy is not None:
            # Half of what an unbounded run installs: every run that
            # selects two or more regions must evict.
            unbounded = Simulator(program, selector, config).run_program(
                engine())
            capacity = max(1, unbounded.cache.resident_bytes // 2)
            config = replace(config, cache_capacity_bytes=capacity,
                             cache_eviction_policy=policy)

        pull = Simulator(program, selector, config).run(engine().run())
        push = Simulator(program, selector, config).run_push(
            engine().run_into)
        fused = Simulator(program, selector, config).run_program(engine())
        if policy is not None and len(unbounded.regions) >= 2:
            assert pull.cache_evictions > 0
        assert _fingerprint(push) == _fingerprint(pull)
        assert _fingerprint(fused) == _fingerprint(pull)


class TestLEITraceProperties:
    @COMMON
    @given(small_programs())
    def test_lei_paths_are_statically_legal(self, program_seed):
        """Every consecutive pair in an LEI trace must be a legal static
        transfer: fall-through, direct target, or dynamic transfer."""
        from repro.isa.opcodes import BranchKind

        program, seed = program_seed
        config = SystemConfig(lei_threshold=5)
        engine = ExecutionEngine(program, seed=seed, max_steps=30_000)
        result = Simulator(program, "lei", config).run(engine.run())
        for region in result.regions:
            path = region.path
            for src, dst in zip(path, path[1:]):
                kind = src.terminator.kind
                legal = (
                    dst is src.fallthrough
                    or dst is src.terminator.taken_target
                    or dst in src.terminator.indirect_targets
                    or kind is BranchKind.RETURN
                )
                assert legal, (src.full_label, dst.full_label, kind)


class TestCompactTraceProperties:
    @COMMON
    @given(small_programs(), st.integers(1, 40))
    def test_round_trip_any_executed_prefix(self, program_seed, length):
        program, seed = program_seed
        steps = list(islice(
            ExecutionEngine(program, seed=seed, max_steps=length + 1).run(), length
        ))
        path = [s.block for s in steps]
        if not path:
            return
        compact = CompactTrace.encode(path)
        assert compact.decode(program) == path

    @COMMON
    @given(small_programs(), st.integers(2, 30))
    def test_compact_size_bound(self, program_seed, length):
        """2 bits per branch + 66 end bits + 64 per dynamic transfer."""
        from repro.isa.opcodes import BranchKind

        program, seed = program_seed
        path = [s.block for s in islice(
            ExecutionEngine(program, seed=seed, max_steps=length + 1).run(), length
        )]
        if len(path) < 2:
            return
        compact = CompactTrace.encode(path)
        dynamic = sum(
            1 for b in path[:-1] if b.terminator.kind.target_is_dynamic
        )
        expected_bits = 2 * (len(path) - 1) + 2 + 64 + 64 * dynamic
        assert compact.bit_length == expected_bits


class TestTraceFormatEquivalence:
    @COMMON
    @given(program_seed=small_programs())
    def test_binary_and_jsonl_replays_match_live(self, tmp_path_factory, program_seed):
        """Any program's run must survive both trace formats verbatim."""
        from repro.tracing import (
            collect_trace, read_jsonl_trace, replay_trace, write_jsonl_trace,
        )

        program, seed = program_seed
        tmp = tmp_path_factory.mktemp("traces")
        binary_path = tmp / "t.rtrc"
        jsonl_path = tmp / "t.jsonl"

        live = list(ExecutionEngine(program, seed=seed, max_steps=2_000).run())
        collect_trace(ExecutionEngine(program, seed=seed, max_steps=2_000),
                      binary_path)
        write_jsonl_trace(iter(live), jsonl_path, program.name)

        assert list(replay_trace(binary_path, program)) == live
        assert list(read_jsonl_trace(jsonl_path, program)) == live


class TestHistoryBufferProperties:
    @COMMON
    @given(st.integers(2, 32), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                        min_size=1, max_size=200))
    def test_live_entries_bounded_and_lookup_latest(self, capacity, ops):
        pb = ProgramBuilder("bufprop")
        main = pb.procedure("main")
        for i in range(10):
            main.block(f"b{i}", insts=1)
        main.block("end", insts=1).halt()
        program = pb.build()
        blocks = [program.block_by_full_label(f"main:b{i}") for i in range(10)]

        buf = BranchHistoryBuffer(capacity)
        latest_live = {}
        for src_i, tgt_i in ops:
            entry = buf.insert(blocks[src_i], blocks[tgt_i])
            buf.hash_update(blocks[tgt_i], entry.seq)
            latest_live[blocks[tgt_i]] = entry.seq
            assert buf.live_entries <= capacity
        for target, seq in latest_live.items():
            found = buf.hash_lookup(target)
            # Either evicted (too old) or exactly the latest occurrence.
            if found is not None:
                assert found.seq == seq
                assert found.target is target


class TestCounterTableProperties:
    @COMMON
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7)),
                    min_size=1, max_size=300))
    def test_peak_matches_bruteforce(self, ops):
        table = CounterTable()
        model = {}
        peak = 0
        for is_increment, key in ops:
            if is_increment:
                table.increment(key)
                model[key] = model.get(key, 0) + 1
            else:
                table.release(key)
                model.pop(key, None)
            peak = max(peak, len(model))
            assert table.live == len(model)
            for k, v in model.items():
                assert table.get(k) == v
        assert table.peak == peak


class TestMarkingProperties:
    @COMMON
    @given(small_programs(), st.integers(2, 6), st.integers(0, 1000))
    def test_marking_equals_bruteforce_reachability(self, program_seed, n_paths, pick):
        program, seed = program_seed
        paths = []
        engine_steps = list(islice(
            ExecutionEngine(program, seed=seed, max_steps=400).run(), 300
        ))
        if len(engine_steps) < 10:
            return
        blocks = [s.block for s in engine_steps]
        entrance = blocks[0]
        chunk = max(3, len(blocks) // n_paths)
        for i in range(n_paths):
            prefix = blocks[: chunk * (i + 1)]
            paths.append(prefix)
        cfg = build_observed_cfg(entrance, paths)

        nodes = sorted(cfg.trace_counts, key=lambda b: b.require_address())
        marked = {nodes[pick % len(nodes)], entrance}
        result = mark_rejoining_paths(cfg, marked)

        # Brute force: a block is marked iff some initially-marked block
        # is reachable from it.
        def reaches_marked(block):
            seen = set()
            frontier = [block]
            while frontier:
                current = frontier.pop()
                if current in marked:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                frontier.extend(cfg.successors.get(current, ()))
            return False

        expected = {b for b in cfg.trace_counts if reaches_marked(b)} | marked
        assert result.marked == expected
