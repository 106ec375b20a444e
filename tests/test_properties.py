"""Property-based tests (hypothesis) on core invariants.

Programs are generated from the motif library with randomized structure
and seeds, so every generated program is valid, halting, and realistic;
the properties then assert conservation laws and algorithm invariants
that must hold for *any* program.
"""

from contextlib import contextmanager
from dataclasses import replace
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import phase_shifts
from repro.behavior.models import LoopTrip
from repro.behavior.rng import SplitMix64
from repro.cache.dispatch import DispatchTable
from repro.cache.icache import InstructionCache
from repro.config import SystemConfig
from repro.execution.engine import ExecutionEngine
from repro.isa.opcodes import BranchKind
from repro.program.builder import ProgramBuilder
from repro.selection.compact import CompactTrace
from repro.selection.counters import CounterTable
from repro.selection.history import BranchHistoryBuffer
from repro.selection.marking import mark_rejoining_paths
from repro.selection.region_cfg import build_observed_cfg
from repro.system.simulator import Simulator
from repro.workloads import benchmark_names, build_benchmark, motifs
from repro.workloads.motifs import MotifContext

from .identity import fingerprint

SELECTORS = ("net", "lei", "combined-net", "combined-lei")
RELATED_SELECTORS = ("mojo", "boa", "wiggins")


#: main's motifs.  The call motifs come first, the value examples
#: shrink towards, and are listed twice each, so that about half of
#: the generated programs call a procedure and return from it.
MOTIFS = ("call", "call_loop") * 2 + (
    "hot", "nested", "branchy", "diamond", "switch", "retry", "once",
    "phase", "cold_init")


@st.composite
def small_programs(draw):
    """A random, valid, halting program built from motifs.

    One or two callees, leaf procedures or recursions at most six deep,
    are declared before ``main`` (backward calls, as in the paper's
    Figure 2) or after it (forward calls); ``main`` runs an outer loop
    over one to three motifs, which may call them once or from a loop.
    """
    pb = ProgramBuilder("prop", entry="main")
    ctx = MotifContext(pb, SplitMix64(draw(st.integers(0, 2**31))))

    def declare(kind):
        name = ctx.fresh("proc")
        if kind == "leaf":
            return motifs.leaf_procedure(ctx, name,
                                         blocks=draw(st.integers(1, 3)),
                                         insts=draw(st.integers(1, 5)))
        return motifs.recursive_procedure(ctx, name,
                                          depth=draw(st.integers(1, 6)))

    placements = draw(st.lists(
        st.tuples(st.sampled_from(["leaf", "recursive"]), st.booleans()),
        min_size=1, max_size=2))
    callees = [declare(kind) for kind, before in placements if before]
    main = pb.procedure("main")
    callees += [declare(kind) for kind, before in placements if not before]
    main.block("start", insts=draw(st.integers(1, 6)))

    outer_head = ctx.fresh("outer")
    main.block(outer_head, insts=1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MOTIFS))
        if kind == "call":
            motifs.call_stage(main, ctx, draw(st.sampled_from(callees)))
        elif kind == "call_loop":
            motifs.call_loop(main, ctx, draw(st.sampled_from(callees)),
                             trips=draw(st.integers(2, 12)))
        elif kind == "phase":
            motifs.phase_split(
                main, ctx, period=draw(st.integers(5, 300)),
                body_a=lambda: motifs.straight_run(main, ctx, 1, 3),
                body_b=lambda: motifs.hot_loop(
                    main, ctx, trips=draw(st.integers(2, 10)),
                    body_blocks=1))
        elif kind == "cold_init":
            motifs.cold_init_section(main, ctx,
                                     one_shot=draw(st.integers(0, 3)),
                                     tight=draw(st.integers(0, 2)))
        elif kind == "hot":
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


def legal_transfer(src, dst, return_sites) -> bool:
    """Whether the program lets control pass from ``src`` to ``dst``:
    a fall-through, the direct target of a branch, jump or call, a
    target of an indirect jump, or a return to a call's return site."""
    term = src.terminator
    kind = term.kind
    if kind.may_fall_through and dst is src.fallthrough:
        return True
    if dst is term.taken_target:
        return True
    if kind is BranchKind.INDIRECT:
        return dst in term.indirect_targets
    return kind is BranchKind.RETURN and dst in return_sites


def assert_paper_invariants(result, engine, program):
    """The paper's invariants on one run of ``engine``: instructions
    conserved, region entries accounted for, one resident region per
    entry, and every region path and edge statically legal."""
    stats = result.stats
    assert result.total_instructions_executed == engine.instructions_executed
    assert 0.0 <= result.hit_rate <= 1.0
    regions = result.regions  # every selected region, evicted ones too
    assert (sum(r.executed_instructions for r in regions)
            == stats.cache_instructions)
    assert (sum(r.entry_count for r in regions)
            == stats.cache_entries + stats.region_transitions)
    heads = [r.entry for r in result.cache.resident_regions]
    assert len(heads) == len(set(heads))
    return_sites = {block.fallthrough for block in program.blocks
                    if block.terminator.kind is BranchKind.CALL}
    universe = set(program.blocks)
    for region in regions:
        assert region.entry in region.block_set
        assert region.block_set <= universe
        for src, dst in region.internal_edges():
            assert legal_transfer(src, dst, return_sites), (
                region.kind, src.full_label, dst.full_label)


@contextmanager
def checked_dispatch():
    """Check the dispatch invariants after every install and retire;
    yields the list of checks made."""
    checks = []
    install, retire = DispatchTable.install, DispatchTable.retire

    def checked_install(self, region):
        table = install(self, region)
        self.check_invariants()
        checks.append(region)
        return table

    def checked_retire(self, region):
        retire(self, region)
        self.check_invariants()
        checks.append(region)

    with patch.object(DispatchTable, "install", checked_install), \
            patch.object(DispatchTable, "retire", checked_retire):
        yield checks


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One trace file, rewritten by every example that collects."""
    return tmp_path_factory.mktemp("pipelines") / "t.rtrc"


class TestPipelinesAgree:
    """The reference state machine, fed by pull or by push, and the
    fused fast core agree on any generated program, live and replaying
    a collected trace, and the paper's invariants hold on the
    reference and fused runs."""

    # Examples run in milliseconds, and only about a third of the
    # bounded ones select enough regions to evict, so draw more: 20 per
    # selector in each arm, unobserved and observed.  Generated runs
    # take a few hundred steps, so a drawn budget below 500 often stops
    # the run, and its collection, mid-way.  The observed arm samples
    # the timeline every few steps and fetches through a 1 KiB icache,
    # so the fused loop walks step by step.
    @settings(COMMON, max_examples=280)
    @given(small_programs(), st.sampled_from(SELECTORS + RELATED_SELECTORS),
           st.sampled_from((None, "fifo", "flush")),
           st.one_of(st.just(30_000), st.integers(1, 500)),
           st.one_of(st.none(), st.integers(1, 40)))
    def test_pull_push_and_fused_fingerprints_equal(
            self, trace_path, program_seed, selector, policy, max_steps,
            sample_every):
        from repro.tracing import collect_trace, replay_trace, replay_trace_into

        program, seed = program_seed
        # Low enough that every selector, the related ones included,
        # selects within a few dozen steps.
        config = SystemConfig(net_threshold=6, lei_threshold=5,
                              combined_net_t_start=3, combined_lei_t_start=2,
                              combine_t_prof=3, combine_t_min=2,
                              mojo_exit_threshold=3, boa_threshold=4,
                              sampling_period=20, sampling_window=40)

        def engine():
            return ExecutionEngine(program, seed=seed, max_steps=max_steps)

        if policy is not None:
            # Half of what an unbounded run installs: every run that
            # selects two or more regions must evict.
            unbounded = Simulator(program, selector, config).run_program(
                engine())
            capacity = max(1, unbounded.cache.resident_bytes // 2)
            config = replace(config, cache_capacity_bytes=capacity,
                             cache_eviction_policy=policy)

        def simulator():
            observed = sample_every is not None
            return Simulator(
                program, selector, config, sample_every=sample_every,
                icache=InstructionCache(1024) if observed else None)

        pull_engine = engine()
        pull = simulator().run(pull_engine.run())
        push = simulator().run_push(engine().run_into)
        fused_engine = engine()
        with checked_dispatch() as checks:
            fused = simulator().run_program(fused_engine)
        if policy is not None and len(unbounded.regions) >= 2:
            assert pull.cache_evictions > 0
        assert fingerprint(push) == fingerprint(pull)
        assert fingerprint(fused) == fingerprint(pull)
        assert phase_shifts(fused.samples) == phase_shifts(pull.samples)
        assert_paper_invariants(pull, pull_engine, program)
        assert_paper_invariants(fused, fused_engine, program)
        assert len(checks) >= len(fused.regions)
        if sample_every is not None:
            total = pull.stats.interp_steps + pull.stats.cache_steps
            assert [sample.step for sample in pull.samples] == (
                list(range(sample_every, total, sample_every)) + [total])

        # Collect once, then replay on the reference state machine
        # (pulled) and on the fused core (pushed).
        collect_trace(engine(), trace_path)
        replay_pull = simulator().run(replay_trace(trace_path, program))
        replay_fused = simulator().run_push(
            lambda consume: replay_trace_into(trace_path, program, consume))
        assert fingerprint(replay_pull) == fingerprint(pull)
        assert fingerprint(replay_fused) == fingerprint(pull)


class TestSpecStandInInvariants:
    """The same invariants on every SPEC stand-in, for every selector,
    on the fused core in an evicting cache.  The generated programs
    above are small; the stand-ins add deep call chains, indirect
    dispatch and long counted loops.  200 bytes evicts in every cell,
    and the policy alternates so each selector meets both."""

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_paper_invariants_hold(self, bench):
        program = build_benchmark(bench, scale=0.02)
        shift = benchmark_names().index(bench)
        for i, selector in enumerate(SELECTORS + RELATED_SELECTORS):
            config = SystemConfig(
                cache_capacity_bytes=200,
                cache_eviction_policy=("fifo", "flush")[(i + shift) % 2])
            engine = ExecutionEngine(program, seed=3)
            with checked_dispatch() as checks:
                result = Simulator(program, selector, config).run_program(
                    engine)
            assert result.cache_evictions > 0, selector
            assert_paper_invariants(result, engine, program)
            assert len(checks) >= len(result.regions)


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
