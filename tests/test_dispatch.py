"""Tests for the compile-on-install dispatch layer (repro.cache.dispatch).

One property anchors the layer: link patching is residency.  After
*any* sequence of installs, evictions and flushes, every registered
link slot holds exactly the walk table of the region resident at its
target — never a dangling table (``DispatchTable.check_invariants``).

One walk table serves both region kinds, so the fused walk is held to
the reference state machine on the CFG shapes traces never have:
static runs that a step budget cuts, static cycles that avoid the
entry, dynamic transfers that stay only along observed edges, and
evicted regions whose walked edges must still reach the profile.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.models import LoopTrip, RoundRobinIndirect
from repro.cache.codecache import BoundedCodeCache, CodeCache
from repro.cache.dispatch import DYNAMIC, DispatchTable, WalkTable
from repro.cache.region import CFGRegion, TraceRegion
from repro.config import SystemConfig
from repro.execution.engine import ExecutionEngine
from repro.metrics.linking import _direct_exit_targets
from repro.metrics.summary import MetricReport
from repro.program.builder import ProgramBuilder
from repro.selection.base import RegionSelector
from repro.selection.registry import SELECTOR_FACTORIES
from repro.system.simulator import simulate
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro


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


def _fingerprint(result):
    """Everything a run measures, in comparable form."""
    return (
        MetricReport.from_result(result),
        {name: getattr(result.stats, name)
         for name in result.stats.__slots__},
        result.edge_profile,
        [(r.entry_count, r.exit_count, r.cycle_backs,
          r.executed_instructions) for r in result.regions],
    )


def _agree(program, selector, **kwargs):
    """Run the fused loop and the reference; assert they agree and
    return the fused result."""
    fast = simulate(program, selector, fast=True, **kwargs)
    ref = simulate(program, selector, fast=False, **kwargs)
    assert _fingerprint(fast) == _fingerprint(ref)
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
