"""Tests for the compile-on-install dispatch layer (repro.cache.dispatch).

One property anchors the layer: link patching is residency.  After
*any* sequence of installs, evictions and flushes, every registered
link slot holds exactly the walk table of the region resident at its
target — never a dangling table (``DispatchTable.check_invariants``).

One walk table serves both region kinds, so the fused walk is held to
the reference state machine on the CFG shapes traces never have:
static runs that a step budget cuts, static cycles that avoid the
entry, dynamic transfers that stay only along observed edges, and
evicted regions whose walked edges must still reach the profile.  So
are the walk's two shortcuts: the laps of a cycle closed by a counted
latch, walked at once on live runs and replays alike, and linked exits
taken inside the walk, into regions a bounded cache later evicts too.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.models import Bernoulli, LoopTrip, RoundRobinIndirect
from repro.cache.codecache import BoundedCodeCache, CodeCache
from repro.cache.dispatch import DYNAMIC, DispatchTable, WalkTable
from repro.cache.region import CFGRegion, TraceRegion
from repro.config import SystemConfig
from repro.execution.engine import ExecutionEngine
from repro.metrics.linking import _direct_exit_targets
from repro.obs import CollectingSink, Observer
from repro.program.builder import ProgramBuilder
from repro.selection.base import RegionSelector
from repro.selection.registry import SELECTOR_FACTORIES
from repro.system.simulator import Simulator, simulate
from repro.tracing import (
    TraceSource,
    collect_trace,
    replay_trace,
    replay_trace_into,
)
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro

from .identity import fingerprint


def _decider_for(program):
    """A real pre-bound decision source, as the fused loop builds one."""
    engine = ExecutionEngine(program, seed=0)
    stack, ctx = engine._push_state()
    memo = {}

    def decider_for(block):
        decide = memo.get(block)
        if decide is None:
            decide = engine._decider_for(block, stack, ctx)
            memo[block] = decide
        return decide

    return decider_for


@pytest.fixture(scope="module")
def chain_program():
    return build_micro("linked_chain", iterations=60)


@pytest.fixture(scope="module")
def chain_regions(chain_program):
    """Every region NET selects on the chain — one per segment loop,
    richly linked (each exits to the next segment's entry)."""
    result = simulate(chain_program, "net", seed=1)
    regions = result.regions
    assert len(regions) >= 10
    return regions


@pytest.fixture(scope="module")
def cfg_regions(chain_program):
    """Every region trace combination selects on the chain."""
    regions = simulate(chain_program, "combined-net", seed=1).regions
    assert regions and not any(region.is_trace for region in regions)
    return regions


def _static_cycle_program(back_to="A"):
    """E falls into A, A jumps to B and B jumps back to ``back_to``,
    forever: a cycle of constant decisions that avoids the entry E, or
    (``back_to="E"``) one through it."""
    pb = ProgramBuilder("static_cycle", entry="main")
    main = pb.procedure("main")
    main.block("S", insts=1).jump("E")
    main.block("E", insts=2).fallthrough()
    main.block("A", insts=3).jump("B")
    main.block("B", insts=1).jump(back_to)
    return pb.build()


def _static_cycle_regions(program):
    block = program.block_by_full_label
    return [CFGRegion(block("main:E"),
                      [block("main:E"), block("main:A"), block("main:B")],
                      [])]


def _observed_edges_program():
    """E's indirect jump cycles over T1, T2 and T3; T1 and T2 call R,
    whose return goes back to C1 or C2; every path loops back to E."""
    pb = ProgramBuilder("observed_edges", entry="main")
    helper = pb.procedure("helper")
    helper.block("R", insts=2).ret()
    main = pb.procedure("main")
    main.block("S", insts=1).jump("E")
    main.block("E", insts=2).indirect(["T1", "T2", "T3"],
                                      model=RoundRobinIndirect())
    main.block("T1", insts=1).call("helper")
    main.block("C1", insts=1).jump("L")
    main.block("T2", insts=1).call("helper")
    main.block("C2", insts=1).jump("L")
    main.block("T3", insts=3).jump("L")
    main.block("L", insts=1).cond("E", model=LoopTrip(60))
    main.block("done", insts=1).halt()
    return pb.build()


def _observed_edges_regions(program):
    """A CFG region over everything but T3 that observed E->T1, E->T2
    and R->C1 only (E->T3 and R->C2 leave it), plus a trace at T3."""
    block = program.block_by_full_label
    e, r = block("main:E"), block("helper:R")
    t1, t2 = block("main:T1"), block("main:T2")
    cfg = CFGRegion(
        e,
        [e, t1, block("main:C1"), t2, block("main:C2"), block("main:L"), r],
        [(e, t1), (e, t2), (r, block("main:C1"))],
    )
    return [cfg, TraceRegion([block("main:T3"), block("main:L")])]


def _counted_loop_program(body=0, trips=40, jitter=0, outer=5, latch=None):
    """An outer loop at O around a counted loop at E.  With ``body``
    0, E is a one-block self-loop latch; otherwise E falls into
    ``body`` blocks that jump one to the next and reach the latch L.
    The latch's LoopTrip (or the ``latch`` model given) goes back to
    E, then falls into T, whose own latch goes back to O ``outer``
    times."""
    pb = ProgramBuilder("counted_loop", entry="main")
    main = pb.procedure("main")
    main.block("S", insts=1)
    main.block("O", insts=1)
    if latch is None:
        latch = LoopTrip(trips, jitter)
    if body:
        main.block("E", insts=2)
        for i in range(body):
            main.block(f"A{i}", insts=i + 1).jump(
                f"A{i + 1}" if i + 1 < body else "L")
        main.block("L", insts=1).cond("E", model=latch)
    else:
        main.block("E", insts=3).cond("E", model=latch)
    main.block("T", insts=1).cond("O", model=LoopTrip(outer))
    main.block("done", insts=1).halt()
    return pb.build()


def _counted_loop_regions(kind):
    """Regions over the counted loop: a trace from E to the latch, or
    a CFG region that also holds O and T, so its entry E is not its
    first position and the outer loop cycles back through O."""

    def make(program):
        blocks = [block for block in program.blocks
                  if block.label not in ("S", "done")]
        loop = [block for block in blocks if block.label not in ("O", "T")]
        if kind == "trace":
            return [TraceRegion(loop)]
        return [CFGRegion(loop[0], blocks, [])]

    return make


class _FixedRegions(RegionSelector):
    """Installs hand-built regions at the first taken branch, then
    enters whichever one a branch targets."""

    name = "fixed-regions"

    def __init__(self, cache, config, regions):
        super().__init__(cache, config)
        self._regions = regions

    def on_interpreted_taken(self, block, taken, target):
        for region in self._regions:
            self.cache.insert(region)
        self._regions = ()
        return self.cache.lookup(target)

    @property
    def peak_counters(self):
        return 0


@pytest.fixture
def fixed_regions(monkeypatch):
    """Register ``fixed-regions`` for a program: each simulation gets
    fresh regions from ``make_regions(program)``."""

    def register(make_regions):
        monkeypatch.setitem(
            SELECTOR_FACTORIES, "fixed-regions",
            lambda cache, config, program: _FixedRegions(
                cache, config, make_regions(program)))
        return "fixed-regions"

    return register


def _agree(program, selector, **kwargs):
    """Run the fused loop and the reference; assert they agree and
    return the fused result."""
    fast = simulate(program, selector, fast=True, **kwargs)
    ref = simulate(program, selector, fast=False, **kwargs)
    assert fingerprint(fast) == fingerprint(ref)
    return fast


class TestLinkInvariants:
    @given(
        picks=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        policy=st.sampled_from(("flush", "fifo")),
        capacity=st.integers(60, 800),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_dangling_links_after_any_sequence(
        self, chain_program, chain_regions, picks, policy, capacity
    ):
        cache = BoundedCodeCache(capacity, policy)
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        cache.bind_dispatch(dispatch)
        for index in picks:
            region = chain_regions[index % len(chain_regions)]
            if cache.contains_entry(region.entry):
                continue
            cache.insert(region)
            dispatch.check_invariants()
        # Drain the cache one victim at a time: every retire must keep
        # the slots consistent, and a fully-retired dispatch holds no
        # tables and no registered sites at all.
        for victim in list(cache.resident_regions):
            cache._retire_region(victim, policy)
            dispatch.check_invariants()
        assert all(table is None for table in dispatch.tables_by_entry)
        assert not dispatch._link_sites

    def test_patch_and_unpatch_one_link(self, chain_program, chain_regions):
        # Find a linked pair: source's direct exit targets dest's entry.
        source = dest = None
        for a in chain_regions:
            for b in chain_regions:
                if b is not a and b.entry in _direct_exit_targets(a):
                    source, dest = a, b
                    break
            if source is not None:
                break
        assert source is not None, "chain workload must produce a link"

        cache = CodeCache()
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        cache.bind_dispatch(dispatch)
        cache.insert(source)
        source_table = dispatch.tables_by_entry[source.entry.block_id]
        dest_id = dest.entry.block_id

        def slots_for(table, target_id):
            return [
                site.container[site.key]
                for tid, site in table.sites
                if tid == target_id
            ]

        assert slots_for(source_table, dest_id) == [None]
        dest_table = dispatch.install(dest)
        assert slots_for(source_table, dest_id) == [dest_table]
        dispatch.retire(dest)
        assert slots_for(source_table, dest_id) == [None]
        repatched = dispatch.install(dest)
        assert repatched is not dest_table
        assert slots_for(source_table, dest_id) == [repatched]
        dispatch.check_invariants()

    def test_retire_is_idempotent_and_order_safe(self, chain_program,
                                                 chain_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        region = chain_regions[0]
        dispatch.install(region)
        dispatch.retire(region)
        dispatch.retire(region)  # second retire is a no-op
        dispatch.check_invariants()
        assert dispatch.tables_by_entry[region.entry.block_id] is None


class TestWalkTables:
    def test_static_runs_are_sound(self, chain_program, chain_regions,
                                   cfg_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        runs = {True: 0, False: 0}
        for region in list(chain_regions) + list(cfg_regions):
            table = dispatch.compile(region)
            for i, span in enumerate(table.run_len):
                runs[region.is_trace] += bool(span)
                # The run follows constant decisions, each staying on
                # its target's position and never moving onto the entry.
                pos = i
                insts = 0
                for _ in range(span):
                    decide = table.deciders[pos]
                    assert isinstance(decide, tuple)
                    taken, target = decide
                    stay = (table.next_taken if taken
                            else table.next_fall)[pos]
                    assert stay >= 0 and stay != table.entry_pos
                    assert table.blocks[stay] is target
                    insts += table.counts[pos]
                    pos = stay
                assert table.run_end[i] == pos
                assert table.run_insts[i] == insts
        assert runs[True] and runs[False]

    def test_cycles_that_avoid_the_entry_are_cut(self):
        program = _static_cycle_program()
        (region,) = _static_cycle_regions(program)
        table = DispatchTable(program, _decider_for(program)).compile(region)
        pos = {block.label: i for i, block in enumerate(table.blocks)}
        e, a, b = pos["E"], pos["A"], pos["B"]
        assert table.entry_pos == e
        # A -> B -> A is one lap that lands back on A; E's run leads
        # into it and lands on A too.
        assert (table.run_len[a], table.run_end[a]) == (2, a)
        assert (table.run_len[b], table.run_end[b]) == (1, a)
        assert (table.run_len[e], table.run_end[e]) == (3, a)
        assert table.run_insts[e] == 2 + 3 + 1

    def test_runs_stop_before_the_entry(self):
        program = _static_cycle_program(back_to="E")
        (region,) = _static_cycle_regions(program)
        table = DispatchTable(program, _decider_for(program)).compile(region)
        pos = {block.label: i for i, block in enumerate(table.blocks)}
        # B's jump back to E is walked stepwise, so it counts a cycle.
        assert table.run_len[pos["B"]] == 0
        assert (table.run_len[pos["E"]], table.run_end[pos["E"]]) == (
            2, pos["B"])

    def test_dynamic_targets_map_only_the_targets_that_stay(self):
        program = _observed_edges_program()
        cfg, trace = _observed_edges_regions(program)
        dispatch = DispatchTable(program, _decider_for(program))
        table = dispatch.compile(cfg)
        pos = {block.label: i for i, block in enumerate(table.blocks)}
        for label, stays in (("E", ("T1", "T2")), ("R", ("C1",))):
            assert table.next_taken[pos[label]] == DYNAMIC
            slots = table.targets[pos[label]]
            assert {t.label: slot[0] for t, slot in slots.items()} == {
                name: pos[name] for name in stays}
        # A trace's return or indirect jump stays on the next path
        # block or the top; T3's jump is direct.
        assert dispatch.compile(trace).targets == (None, None)

    def test_table_for_falls_back_to_fresh_compile(self, chain_program,
                                                   chain_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        region = chain_regions[0]
        fresh = dispatch.table_for(region)  # not resident: compiled ad hoc
        assert fresh.region is region
        assert dispatch.tables_by_entry[region.entry.block_id] is None
        installed = dispatch.install(region)
        assert dispatch.table_for(region) is installed

    def test_deciders_are_shared_with_the_source(self, chain_program,
                                                 chain_regions, cfg_regions):
        decider_for = _decider_for(chain_program)
        dispatch = DispatchTable(chain_program, decider_for)
        for region in (chain_regions[0], cfg_regions[0]):
            table = dispatch.compile(region)
            for position, block in enumerate(table.blocks):
                assert table.deciders[position] is decider_for(block)


class TestFusedWalkAgrees:
    """The fused walk against the reference state machine on the CFG
    shapes the one walk table must get right."""

    def test_budget_ending_inside_a_cfg_static_run(self, monkeypatch):
        program = build_benchmark("gzip", scale=0.05)
        cut = []
        advance = WalkTable.advance

        def spy(self, pos, span, hits=1):
            if span < self.run_len[pos]:
                cut.append(self.region.is_trace)
            return advance(self, pos, span, hits)

        monkeypatch.setattr(WalkTable, "advance", spy)
        for selector in ("combined-net", "combined-lei"):
            for max_steps in range(3000, 3040):
                _agree(program, selector, seed=1, max_steps=max_steps)
        assert False in cut

    @pytest.mark.parametrize("sample_every", (None, 5))
    @pytest.mark.parametrize("back_to", ("A", "E"))
    def test_static_cycle(self, fixed_regions, back_to, sample_every):
        program = _static_cycle_program(back_to)
        selector = fixed_regions(_static_cycle_regions)
        for max_steps in range(1, 25):
            result = _agree(program, selector, max_steps=max_steps,
                            sample_every=sample_every)
        (region,) = result.regions
        assert region.exit_count == 0
        assert result.stats.cache_steps == 24 - 1
        # The entry is re-entered every third step only through E.
        assert region.cycle_backs == (0 if back_to == "A" else 7)

    def test_dynamic_transfers_stay_along_observed_edges(self,
                                                         fixed_regions):
        program = _observed_edges_program()
        result = _agree(program, fixed_regions(_observed_edges_regions))
        block = program.block_by_full_label
        profile = result.edge_profile
        cfg, trace = result.regions
        # Both observed edges were walked, both unobserved ones left
        # the region: E->T3 through residency into the trace at T3,
        # R->C2 to the interpreter.
        for src, dst in (("main:E", "main:T1"), ("main:E", "main:T2"),
                         ("helper:R", "main:C1"), ("main:E", "main:T3"),
                         ("helper:R", "main:C2")):
            assert profile[(block(src), block(dst))] == 20
        assert cfg.cycle_backs and cfg.exit_count and trace.entry_count
        assert result.stats.region_transitions >= 20

    def test_evicted_cfg_regions_fold_their_walked_edges(self):
        program = build_benchmark("gzip", scale=0.05)
        config = SystemConfig(cache_capacity_bytes=300,
                              cache_eviction_policy="fifo")
        for selector in ("combined-net", "combined-lei"):
            result = _agree(program, selector, config=config, seed=0)
            resident = set(map(id, result.cache.resident_regions))
            evicted = [region for region in result.regions
                       if id(region) not in resident]
            assert any(not region.is_trace and region.executed_instructions
                       for region in evicted)


def _counting_latch_calls(monkeypatch, engine=ExecutionEngine):
    """Wrap every decider of ``engine`` that takes laps so that its
    calls are counted; the wrapper takes the same laps."""
    calls = []
    make = engine._decider_for

    def spy(self, block, stack, ctx):
        decide = make(self, block, stack, ctx)
        laps = getattr(decide, "laps", None)
        if laps is None:
            return decide

        def counted(step):
            calls.append(block.label)
            return decide(step)

        counted.laps = laps
        return counted

    monkeypatch.setattr(engine, "_decider_for", spy)
    return calls


@pytest.fixture
def lap_budgets(monkeypatch):
    """The step budget of every ``WalkTable.run_laps`` call."""
    budgets = []
    run_laps = WalkTable.run_laps

    def spy(self, budget):
        budgets.append(budget)
        return run_laps(self, budget)

    monkeypatch.setattr(WalkTable, "run_laps", spy)
    return budgets


class TestCountedCycles:
    """A cycle whose only varying block is a latch back to the entry
    that takes laps is walked in whole laps, on traces and CFG regions
    alike: a LoopTrip latch on live runs, any conditional latch on
    replays."""

    SHAPES = {
        "self-loop": dict(body=0),
        "constant-body": dict(body=3),
        "jittered": dict(body=3, jitter=9),
    }

    @pytest.mark.parametrize("kind", ("trace", "cfg"))
    @pytest.mark.parametrize("body", (0, 3))
    def test_the_latch_is_marked_with_its_lap(self, body, kind):
        program = _counted_loop_program(body=body)
        (region,) = _counted_loop_regions(kind)(program)
        table = DispatchTable(program, _decider_for(program)).compile(region)
        pos = {block.label: i for i, block in enumerate(table.blocks)}
        latch = pos["L" if body else "E"]
        assert table.entry_pos == pos["E"]
        assert (table.latch, table.latch_laps) == (
            latch, table.deciders[latch].laps)
        # The lap is E, the body and the latch.
        assert table.cycle_len == (body + 2 if body else 1)
        assert table.cycle_insts == (2 + sum(range(1, body + 1)) + 1
                                     if body else 3)

    def test_no_latch_without_a_count_or_off_the_entry_run(self):
        program = _observed_edges_program()
        dispatch = DispatchTable(program, _decider_for(program))
        # E's decider is an indirect jump, so its run is empty and the
        # LoopTrip at L is not on it; T3's trace latch goes to E, not
        # back to T3.
        for region in _observed_edges_regions(program):
            assert dispatch.compile(region).latch == -1
        cut = _static_cycle_program()
        (region,) = _static_cycle_regions(cut)
        assert DispatchTable(cut, _decider_for(cut)).compile(
            region).latch == -1

    @pytest.mark.parametrize("kind", ("trace", "cfg"))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_laps_agree_and_the_latch_is_rarely_called(
            self, fixed_regions, monkeypatch, shape, kind):
        program = _counted_loop_program(**self.SHAPES[shape])
        selector = fixed_regions(_counted_loop_regions(kind))
        calls = _counting_latch_calls(monkeypatch)
        fused = _agree(program, selector)
        fused_calls = len(calls)
        del calls[:]
        push = Simulator(program, selector).run_push(
            ExecutionEngine(program).run_into)
        assert fingerprint(push) == fingerprint(fused)
        (region,) = fused.regions
        assert region.cycle_backs > 100
        # Each activation calls the latch about three times, not once
        # per lap.
        assert len(calls) > 8 * fused_calls

    @pytest.mark.parametrize("kind", ("trace", "cfg"))
    def test_budgets_ending_inside_laps_and_the_entry_run(
            self, fixed_regions, monkeypatch, kind):
        program = _counted_loop_program(body=3)
        selector = fixed_regions(_counted_loop_regions(kind))
        cuts = set()
        run_laps, advance = WalkTable.run_laps, WalkTable.advance

        def laps_spy(self, budget):
            steps, insts = run_laps(self, budget)
            if budget - steps < self.cycle_len:
                # No whole lap is left: the budget ends inside the
                # next one.
                cuts.add("laps")
            return steps, insts

        def advance_spy(self, pos, span, hits=1):
            if pos == self.entry_pos and span < self.run_len[pos]:
                cuts.add("entry run")
            return advance(self, pos, span, hits)

        monkeypatch.setattr(WalkTable, "run_laps", laps_spy)
        monkeypatch.setattr(WalkTable, "advance", advance_spy)
        # The first activation enters the region at step 8 and walks
        # its laps in 5-step strides from step 13.
        for max_steps in range(100, 112):
            _agree(program, selector, max_steps=max_steps)
        assert cuts == {"laps", "entry run"}

    def test_a_latch_that_falls_onto_the_entry(self, fixed_regions,
                                               lap_budgets):
        """L's taken and fall-through targets are both the entry E: after
        the fall the count starts over, so the walk lands on the entry
        from the latch with nothing to lap."""
        pb = ProgramBuilder("fall_onto_entry", entry="main")
        main = pb.procedure("main")
        main.block("S", insts=1).jump("E")
        main.block("L", insts=1).cond("E", model=LoopTrip(7))
        main.block("E", insts=2).jump("A")
        main.block("A", insts=1).jump("L")
        program = pb.build()

        def regions(program):
            block = program.block_by_full_label
            loop = [block("main:E"), block("main:A"), block("main:L")]
            return [CFGRegion(loop[0], loop, [])]

        selector = fixed_regions(regions)
        for max_steps in range(60, 64):
            result = _agree(program, selector, max_steps=max_steps)
        (region,) = result.regions
        assert region.exit_count == 0 and region.cycle_backs == 20
        assert lap_budgets

    def test_observed_steps_turn_laps_off(self, fixed_regions, lap_budgets):
        program = _counted_loop_program(body=3)
        selector = fixed_regions(_counted_loop_regions("trace"))
        _agree(program, selector, sample_every=7)
        assert not lap_budgets
        _agree(program, selector)
        assert lap_budgets

    @pytest.mark.parametrize("kind", ("trace", "cfg"))
    def test_replays_lap(self, fixed_regions, lap_budgets, monkeypatch,
                         kind, tmp_path):
        program = _counted_loop_program(body=3, jitter=9)
        selector = fixed_regions(_counted_loop_regions(kind))
        path = tmp_path / "counted.rtrc"
        collect_trace(ExecutionEngine(program, seed=4), path)
        calls = _counting_latch_calls(monkeypatch, TraceSource)
        replay = Simulator(program, selector).run_push(
            lambda consume: replay_trace_into(path, program, consume))
        assert lap_budgets
        fused_calls = calls.count("L")
        del calls[:]
        reference = Simulator(program, selector).run(
            replay_trace(path, program))
        assert fingerprint(replay) == fingerprint(reference)
        assert fingerprint(replay) == fingerprint(
            _agree(program, selector, seed=4))
        (region,) = replay.regions
        assert region.cycle_backs > 100
        assert calls.count("L") > 8 * fused_calls

    @pytest.mark.parametrize("kind", ("trace", "cfg"))
    def test_a_bernoulli_latch_laps_only_on_replays(
            self, fixed_regions, lap_budgets, kind, tmp_path):
        program = _counted_loop_program(body=3, latch=Bernoulli(0.98))
        selector = fixed_regions(_counted_loop_regions(kind))
        live = _agree(program, selector, seed=5)
        assert not lap_budgets
        path = tmp_path / "bernoulli.rtrc"
        collect_trace(ExecutionEngine(program, seed=5), path)
        replay = Simulator(program, selector).run_push(
            lambda consume: replay_trace_into(path, program, consume))
        assert lap_budgets
        reference = Simulator(program, selector).run(
            replay_trace(path, program))
        assert fingerprint(replay) == fingerprint(reference)
        assert fingerprint(replay) == fingerprint(live)
        (region,) = replay.regions
        assert region.cycle_backs > 100


class TestLinksInsideTheWalk:
    """A static exit whose link slot is patched switches tables inside
    the walk: the same exits, entries, transitions and edges as the
    reference, into regions a bounded cache later evicts too."""

    @pytest.mark.parametrize("policy", ("fifo", "flush"))
    @pytest.mark.parametrize("selector", ("net", "lei"))
    def test_links_into_regions_evicted_mid_run(self, selector, policy):
        program = build_micro("linked_chain", iterations=30)
        config = SystemConfig(cache_capacity_bytes=200,
                              cache_eviction_policy=policy,
                              net_threshold=6, lei_threshold=5)
        sink = CollectingSink()
        fused = simulate(program, selector, config, seed=1,
                         observer=Observer(sink=sink))
        reference = simulate(program, selector, config, seed=1, fast=False)
        assert fingerprint(fused) == fingerprint(reference)
        # Entries that the interpreter did not make came through links.
        from_interpreter = Counter(
            event.payload["order"] for event in sink.by_kind("cache_entered"))
        evicted = {event.payload["order"]
                   for event in sink.by_kind("cache_evicted")}
        linked_then_evicted = [
            region for region in fused.regions
            if region.selection_order in evicted
            and region.entry_count > from_interpreter[region.selection_order]
        ]
        assert len(linked_then_evicted) > 10

    def test_linked_exit_edges_reach_the_profile(self, chain_program):
        result = _agree(chain_program, "net", seed=1)
        block = chain_program.block_by_full_label
        # Each segment's loop falls into the next one's head: a linked
        # exit once both regions are resident.
        assert result.stats.region_transitions > 100
        assert result.edge_profile[(block("main:b0"), block("main:h1"))] == 60
