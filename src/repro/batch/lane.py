"""One fleet lane: a grid cell executing inside the batched kernel.

A :class:`Lane` owns everything the serial pipeline builds per run —
program, code cache, selector, dispatch table, call stack, decision
closures, edge profile, run statistics — while the *hot columns* (step
counter, step budget, walk-table program counter, current-stint
instruction count, branch-model site slots, the SplitMix64 state word)
live in the kernel's structure-of-arrays storage, indexed by the
lane's fleet slot.  The kernel advances every region-walking lane
(trace or CFG) with vectorized sweeps; this module supplies the scalar
complement:

* interpreting (:meth:`Lane.run_scalar`), a per-lane transcription of
  the fused loop's interp section in
  :meth:`repro.system.simulator.Simulator._run_fused`;
* region-walk decisions the vector rounds cannot batch — call/return
  stack effects, indirect branches, unknown branch models
  (:meth:`Lane._trace_decide_scalar`, :meth:`Lane._cfg_decide_scalar`);
* region exits — link-slot chasing, selector callbacks, immediate
  re-entry (:meth:`Lane._leave`);
* the straggler walk (:meth:`Lane.run_trace_scalar`) for rounds with
  too few region-walking lanes to fill a vector sweep.

Every method mirrors the fused loop decision-for-decision: same hook
resolution (:func:`~repro.selection.base.fast_hooks`), same
``cache.now`` advancement points, same edge-recording order, same
counter flush discipline.  The bit-identity suite in
``tests/test_batch.py`` holds a fleet lane equal to a serial
``simulate`` run for the same cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.batch.backend import (
    K_BERN,
    K_CALL,
    K_LOOP,
    K_LOOPJ,
    K_PERIODIC,
    K_RET,
    LaneRng,
    M_DONE,
    M_SCALAR,
    M_VEC,
)
from repro.behavior.models import Bernoulli, DecisionContext, LoopTrip, Periodic
from repro.cache.codecache import make_cache
from repro.cache.dispatch import DispatchTable
from repro.errors import ExecutionError, SelectionError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import Step
from repro.execution.stack import CallStack
from repro.isa.opcodes import BranchKind
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER
from repro.program.cfg import BasicBlock
from repro.program.program import Program
from repro.selection.base import RegionSelector, fast_hooks
from repro.selection.net import NETSelector
from repro.selection.registry import make_selector
from repro.system.results import RunResult, RunStats


def _never_idle() -> bool:
    """Quiescence predicate for selectors with unknown interp hooks."""
    return False


class LaneDispatch(DispatchTable):
    """Dispatch table that registers walk tables with the kernel arena.

    Compilation (install, or ``table_for`` on a selector-returned
    region) routes through :meth:`compile`; every fresh table — trace
    *and* CFG — is handed to the kernel so its columns join the global
    SoA arena and the vector rounds can walk it.
    """

    def __init__(self, program: Program, decider_for, lane: "Lane") -> None:
        super().__init__(program, decider_for)
        self._lane = lane
        self.on_link_patch = lane.kernel.link_patched

    def compile(self, region):
        table = super().compile(region)
        if table.is_trace:
            self._lane.kernel.register_table(self._lane, table)
        else:
            self._lane.kernel.register_cfg_table(self._lane, table)
        return table

    def retire(self, region):
        # Fold the table's pending vector counts *before* the region
        # loses residency: a bounded cache snapshots region stats at
        # the eviction moment (metrics, ``cache_evicted`` events), and
        # counts folded after that would resurrect the retired region's
        # totals.  Folding zeroes the pending slots, so the fold at
        # lane finish sees nothing to double-count.
        table = self.tables_by_entry[region.entry.block_id]
        if table is not None and table.region is region:
            self._lane.kernel.fold_table_pending(table)
        super().retire(region)


class Lane:
    """One cell's full execution context, advanced by the fleet kernel."""

    __slots__ = (
        "kernel", "idx", "cell", "program", "program_key", "config",
        "max_steps", "cache", "selector", "engine", "stack", "ctx", "rng",
        "deciders", "vec_desc", "dispatch", "tables_by_entry", "sites",
        "stats", "edge_profile", "edge_get",
        "observe_interpreted", "on_cache_enter", "on_interpreted_taken",
        "on_cache_exit", "on_taken_raw", "on_enter_raw",
        "interp_idle", "ispan_hits",
        "block", "region", "cur_table", "cur_base", "cur_end",
        "interp_steps", "interp_insts", "cache_insts",
        "mode", "result", "report",
    )

    def __init__(self, kernel, idx: int, cell, program: Program,
                 config, max_steps: Optional[int]) -> None:
        self.kernel = kernel
        self.idx = idx
        self.cell = cell
        self.program = program
        #: Stable program identity for kernel-side memos — streaming
        #: runs release programs mid-run, so ``id(program)`` may be
        #: recycled but this coordinate never lies.
        self.program_key = (cell.benchmark, cell.scale)
        self.config = config
        #: Kernel site slots this lane allocated — recycled at settle.
        self.sites: List[int] = []

        # The same per-run build the serial Simulator performs, with the
        # null observer (fleet observability happens at batch
        # granularity, not per step).
        self.cache = make_cache(
            config.cache_capacity_bytes, config.cache_eviction_policy
        )
        self.cache.observer = NULL_OBSERVER
        self.selector: RegionSelector = make_selector(
            cell.selector, self.cache, config, program
        )
        self.selector.obs = NULL_OBSERVER

        self.engine = ExecutionEngine(program, seed=cell.seed,
                                      max_steps=max_steps)
        self.max_steps = self.engine.max_steps
        # Decision state: the stack and context the engine's closure
        # factory binds, with the RNG swapped for the SoA-backed adapter
        # over this lane's state word (seeded exactly like
        # ``SplitMix64(seed)`` — the kernel wrote ``seed & MASK64``).
        self.stack = CallStack(self.engine.max_call_depth)
        self.rng = LaneRng(kernel.rng_states, idx)
        self.ctx = DecisionContext(rng=self.rng, site_state={}, step=0)

        nblocks = len(program.blocks)
        self.deciders: List[object] = [None] * nblocks
        #: Vector-eligibility descriptor per block id:
        #: ``(kind, pf, pi, slot, pat_base)`` or ``None`` (scalar).
        self.vec_desc: List[Optional[tuple]] = [None] * nblocks
        self.dispatch = LaneDispatch(program, self._decider_for, self)
        self.cache.bind_dispatch(self.dispatch)
        self.tables_by_entry = self.dispatch.tables_by_entry

        self.stats = RunStats()
        self.edge_profile: Dict[Tuple[BasicBlock, BasicBlock], int] = {}
        self.edge_get = self.edge_profile.get

        # Selector hooks, resolved exactly as the fused loop does.
        selector = self.selector
        (self.observe_interpreted, self.on_cache_enter,
         self.on_interpreted_taken, self.on_cache_exit,
         self.on_taken_raw, self.on_enter_raw) = fast_hooks(selector)

        # Interp span batching (see ``_build_interp_spans``) is legal
        # only while no observer would see the individual steps:
        # ``interp_idle`` is None when the selector has no interpreted
        # hook at all (always idle — the LEI family), a quiescence
        # predicate when the hook is exactly NET's recorder-gated one
        # (idle while nothing records), else a constant False (BOA and
        # other subclasses keep real per-step state).
        if self.observe_interpreted is None:
            self.interp_idle = None
        elif (getattr(self.observe_interpreted, "__func__", None)
                is NETSelector.observe_interpreted):
            self.interp_idle = selector.interp_quiescent
        else:
            self.interp_idle = _never_idle
        #: Applied-span counts by head block id; the walked edges fold
        #: into ``edge_profile`` at finish (order-insensitive sums).
        self.ispan_hits: Dict[int, int] = {}

        self.block: Optional[BasicBlock] = program.entry
        self.region = None
        self.cur_table = None
        self.cur_base = 0
        self.cur_end = 0

        self.interp_steps = 0
        self.interp_insts = 0
        self.cache_insts = 0

        self.mode = M_SCALAR
        self.result: Optional[RunResult] = None
        self.report: Optional[MetricReport] = None

    # -- decision closures -------------------------------------------------
    def _decider_for(self, block: BasicBlock):
        """Interned per-block decider (shared interp/walk memo)."""
        bid = block.block_id
        decide = self.deciders[bid]
        if decide is None:
            decide = self.deciders[bid] = self._make_decider(block)
        return decide

    def _make_decider(self, block: BasicBlock):
        """Build the block's decider, SoA-backed where vectorizable.

        The stock models the vector rounds can batch — ``Bernoulli``,
        ``LoopTrip`` with or without jitter, ``Periodic`` — and
        call/return stack effects get closures whose state lives in
        kernel storage (the shared RNG column, a site slot, the SoA
        call stack), so the interpret path and the vector path read and
        write the *same* state.  Everything else (constants, indirect
        branches, unknown models) delegates to the engine's own closure
        factory, bound to this lane's stack and SoA-backed context;
        those positions evaluate scalar in every execution mode, so
        closure-cell state is safe.  Exact-type checks only, mirroring
        ``ExecutionEngine._decider_for``.
        """
        term = block.terminator
        kernel = self.kernel
        if term.kind is BranchKind.COND:
            model = term.model
            model_type = type(model)
            taken_result = (True, term.taken_target)
            fall_result = (False, block.fallthrough)
            if model_type is Bernoulli:
                p = model.probability
                self.vec_desc[block.block_id] = (K_BERN, p, 0, -1, -1)

                def decide_bernoulli(step, _random=self.rng.random, _p=p,
                                     _taken=taken_result, _fall=fall_result):
                    return _taken if _random() < _p else _fall

                return decide_bernoulli
            if model_type is LoopTrip and model.jitter == 0:
                trips = model.trips
                slot = kernel.alloc_site()
                self.sites.append(slot)
                self.vec_desc[block.block_id] = (K_LOOP, 0.0, trips, slot, -1)

                # Slot value 0 encodes the reference's "between
                # activations" None state; live countdowns are 1..trips-1.
                def decide_loop(step, _k=kernel, _slot=slot, _trips=trips,
                                _taken=taken_result, _fall=fall_result):
                    site = _k.site
                    remaining = site[_slot]
                    if remaining == 0:
                        remaining = _trips
                    remaining -= 1
                    if remaining <= 0:
                        site[_slot] = 0
                        return _fall
                    site[_slot] = remaining
                    return _taken

                return decide_loop
            if model_type is LoopTrip:
                # Jittered: the trip count is drawn per activation —
                # ``randint`` is one SplitMix64 word plus a modulo, so
                # the vector rounds draw it batched (K_LOOPJ) and this
                # closure draws it scalar, both from the lane's shared
                # state word.  Same 0-as-None slot encoding as above.
                lo = model.trips - model.jitter
                hi = model.trips + model.jitter
                slot = kernel.alloc_site()
                self.sites.append(slot)
                self.vec_desc[block.block_id] = (
                    K_LOOPJ, 0.0, lo, slot, hi - lo + 1
                )

                def decide_loop_jitter(step, _k=kernel, _slot=slot,
                                       _randint=self.rng.randint,
                                       _lo=lo, _hi=hi,
                                       _taken=taken_result,
                                       _fall=fall_result):
                    site = _k.site
                    remaining = site[_slot]
                    if remaining == 0:
                        remaining = _randint(_lo, _hi)
                    remaining -= 1
                    if remaining <= 0:
                        site[_slot] = 0
                        return _fall
                    site[_slot] = remaining
                    return _taken

                return decide_loop_jitter
            if model_type is Periodic:
                pattern = tuple(bool(x) for x in model.pattern)
                n = len(pattern)
                slot = kernel.alloc_site()
                self.sites.append(slot)
                pat_base = kernel.alloc_pattern(pattern)
                self.vec_desc[block.block_id] = (
                    K_PERIODIC, 0.0, n, slot, pat_base
                )

                def decide_periodic(step, _k=kernel, _slot=slot,
                                    _pattern=pattern, _n=n,
                                    _taken=taken_result, _fall=fall_result):
                    site = _k.site
                    cursor = site[_slot]
                    site[_slot] = (cursor + 1) % _n
                    return _taken if _pattern[cursor] else _fall

                return decide_periodic
        # Call/return stack effects vectorize too: the pushed return
        # site is a per-position constant (its block id goes in the SoA
        # stack), and a pop is an id compare against the next path
        # position.  These closures are the scalar complement over the
        # same kernel columns — the stack never forks between execution
        # modes.  The lane's ``CallStack`` stays empty; only its
        # canonical overflow error survives.
        if term.kind is BranchKind.CALL:
            site_block = block.fallthrough
            assert site_block is not None
            result = (True, term.taken_target)
            kernel.ensure_stack(self.engine.max_call_depth)
            self.vec_desc[block.block_id] = (
                K_CALL, 0.0, site_block.block_id, -1, -1
            )

            # The lane's slot can move under compaction, so the closure
            # reads ``idx`` through the lane each call instead of
            # capturing its current value.
            def decide_call(step, _k=kernel, _lane=self,
                            _limit=self.engine.max_call_depth,
                            _pid=site_block.block_id, _r=result):
                i = _lane.idx
                depth = _k.l_depth.item(i)
                if depth >= _limit:
                    raise ExecutionError(
                        f"call stack overflow (depth {_limit}); "
                        "does a recursive workload lack a base case?"
                    )
                _k.stk[i, depth] = _pid
                _k.l_depth[i] = depth + 1
                return _r

            return decide_call
        if term.kind is BranchKind.RETURN:
            kernel.ensure_stack(self.engine.max_call_depth)
            self.vec_desc[block.block_id] = (K_RET, 0.0, 0, -1, -1)
            blocks = self.dispatch.interner.blocks

            def decide_ret(step, _k=kernel, _lane=self,
                           _blocks=blocks):
                i = _lane.idx
                depth = _k.l_depth.item(i)
                if depth == 0:
                    # Returning from main: target None ends the program
                    # (CallStack.pop's contract).
                    return (True, None)
                _k.l_depth[i] = depth - 1
                return (True, _blocks[_k.stk.item(i, depth - 1)])

            return decide_ret
        return self.engine._decider_for(block, self.stack, self.ctx)

    # -- scalar stepping (interpreting) ------------------------------------
    def run_scalar(self, quota: int) -> None:
        """Interpret up to ``quota`` steps (one kernel round).

        The fused reference loop's interp section, transcribed per
        lane, with the hot counters held in locals and flushed to the
        kernel arrays only at region entry and round boundaries
        (per-step array indexing is what the SoA layout exists to
        avoid).  Entering a region — trace or CFG — hands the lane to
        the vector rounds.
        """
        kernel = self.kernel
        i = self.idx
        max_steps = self.max_steps
        steps = int(kernel.l_steps[i])
        block = self.block
        deciders = self.deciders
        tables_by_entry = self.tables_by_entry
        edge_profile = self.edge_profile
        edge_get = self.edge_get
        cache = self.cache
        interp_steps = self.interp_steps
        interp_insts = self.interp_insts
        observe_interpreted = self.observe_interpreted
        on_cache_enter = self.on_cache_enter
        on_interpreted_taken = self.on_interpreted_taken
        on_taken_raw = self.on_taken_raw
        on_enter_raw = self.on_enter_raw
        dispatch = self.dispatch
        interp_spans = kernel.interp_spans(self.program_key, self.program)
        interp_idle = self.interp_idle
        ispan_hits = self.ispan_hits

        while quota > 0:
            quota -= 1
            if block is None or steps >= max_steps:
                kernel.l_steps[i] = steps
                self.block = block
                self.interp_steps = interp_steps
                self.interp_insts = interp_insts
                self._finish()
                return

            # ---- constant-decision span (batched interp) ----------------
            span = interp_spans[block.block_id]
            if span is not None and (interp_idle is None or interp_idle()):
                span_steps = span[0]
                if steps + span_steps <= max_steps:
                    # Never-taken constants: no cache-entry check, no
                    # taken-callbacks, and the interpreted-step observer
                    # is absent or provably idle — the whole chain
                    # advances as one bookkeeping update.  The walked
                    # edges bank by span head and fold at finish; the
                    # clock lands exactly where stepping would have
                    # left it.
                    steps += span_steps
                    interp_steps += span_steps
                    interp_insts += span[1]
                    head_id = block.block_id
                    ispan_hits[head_id] = ispan_hits.get(head_id, 0) + 1
                    if observe_interpreted is not None:
                        cache.now = steps
                    block = span[3]
                    continue
            # ---- one interpreted step -----------------------------------
            steps += 1
            decide = deciders[block.block_id]
            if decide is None:
                decide = deciders[block.block_id] = self._make_decider(block)
            if decide.__class__ is tuple:
                taken, target = decide
            else:
                taken, target = decide(steps)
            count = block.bundle.count

            if target is not None:
                edge = (block, target)
                prior = edge_get(edge)
                edge_profile[edge] = 1 if prior is None else prior + 1
            if observe_interpreted is not None:
                cache.now = steps
                step = Step(block, taken, target)
                observe_interpreted(step)
            else:
                step = None
            interp_steps += 1
            interp_insts += count
            if taken and target is not None:
                cache.now = steps
                entered_table = tables_by_entry[target.block_id]
                if entered_table is not None:
                    if on_enter_raw is not None and step is None:
                        on_enter_raw(block, taken, target)
                    elif on_cache_enter is not None:
                        if step is None:
                            step = Step(block, taken, target)
                        on_cache_enter(step)
                else:
                    if on_taken_raw is not None and step is None:
                        entered = on_taken_raw(block, taken, target)
                    else:
                        if step is None:
                            step = Step(block, taken, target)
                        entered = on_interpreted_taken(step)
                    if entered is not None:
                        if entered.entry is not target:
                            raise SelectionError(
                                f"selector {self.selector.name} "
                                f"returned a region entered at "
                                f"{entered.entry.full_label} for a "
                                f"branch to {target.full_label}"
                            )
                        entered_table = dispatch.table_for(entered)
                if entered_table is not None:
                    kernel.l_steps[i] = steps
                    self.interp_steps = interp_steps
                    self.interp_insts = interp_insts
                    self._enter_table(entered_table, transition=False)
                    self.block = target
                    return
            block = target

        kernel.l_steps[i] = steps
        self.block = block
        self.interp_steps = interp_steps
        self.interp_insts = interp_insts

    # -- trace walking: scalar complement of the vector rounds -------------
    def _sync_vec(self, gpos: int):
        """Derive the lane's current table from its arena position.

        Vectorized linked transitions move a lane between tables
        without touching the lane object; any Python touchpoint on a
        trace-walking lane re-derives ``cur_table``/``cur_base``/
        ``region`` from ``a_tbl[gpos]`` first.
        """
        if self.cur_base <= gpos < self.cur_end:
            return self.cur_table
        kernel = self.kernel
        table = kernel.tables[int(kernel.a_tbl[gpos])]
        if table is not self.cur_table:
            self.cur_table = table
            self.region = table.region
        self.cur_base = table.arena_base
        self.cur_end = self.cur_base + (
            table.path_len if table.is_trace else len(table.block_list))
        return table

    def _trace_decide_scalar(self, gpos: int, steps: int) -> None:
        """One scalar-kind trace decision.

        The vector round has already charged the step and the position's
        instruction count; this evaluates the lane's own closure (stack
        effects, indirect targets, unknown models consume RNG here) and
        applies the outcome exactly as the fused loop's trace section.
        """
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        kernel = self.kernel
        decide = table.deciders[pos]
        if decide.__class__ is tuple:
            taken, target = decide
        else:
            taken, target = decide(steps)
        next_position = pos + 1
        if next_position < table.path_len and target is table.path[next_position]:
            table.adv[pos] += 1
            kernel.l_gpos[self.idx] = gpos + 1
            self.block = target
            return
        if taken and target is table.path0:
            table.cyc[pos] += 1
            self.region.cycle_backs += 1
            kernel.l_gpos[self.idx] = self.cur_base
            self.block = target
            return
        self._trace_leave(table, pos, taken, target, steps)

    def _cfg_decide_scalar(self, gpos: int, steps: int) -> None:
        """One scalar-kind CFG decision.

        The CFG counterpart of :meth:`_trace_decide_scalar` — dynamic
        targets, RETURN pops and unknown models evaluate the lane's own
        closure here, then apply the reference walker's stays-internal
        check verbatim (observed-edge set for dynamic blocks, the block
        set otherwise).  Internal moves record their edge directly (the
        vector pass banks them by arena row instead; the profile is an
        order-insensitive sum either way).
        """
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        block = table.block_list[pos]
        rec = table.records[block]
        decide = rec[0]  # REC_DECIDE
        if decide.__class__ is tuple:
            taken, target = decide
        else:
            taken, target = decide(steps)
        if target is not None and (
                (target in rec[2])  # REC_STAY
                if taken else (target in table.blocks)):
            edge = (block, target)
            prior = self.edge_get(edge)
            self.edge_profile[edge] = 1 if prior is None else prior + 1
            if target is table.entry:
                self.region.cycle_backs += 1
            self.kernel.l_gpos[self.idx] = (
                self.cur_base + table.index_of[target]
            )
            self.block = target
            return
        self._cfg_leave(table, block, rec, taken, target, steps)

    def _cfg_leave(self, table, block, rec, taken: bool, target,
                   steps: int) -> None:
        """Resolve a CFG exit's link slot and leave the region."""
        if rec[7]:  # REC_DYNAMIC
            linked = (self.tables_by_entry[target.block_id]
                      if target is not None else None)
        elif taken:
            linked = rec[5]  # REC_LINK_TAKEN
        else:
            linked = rec[6]  # REC_LINK_FALL
        self._leave(block, taken, target, linked, steps)

    def _trace_exit_vec(self, gpos: int, taken: bool, steps: int) -> None:
        """Apply a vector-evaluated decision that leaves the region.

        The decision itself (and any RNG consumption) already happened
        in the vector round; only the branch *direction* is needed to
        recover the target — never re-evaluate the closure.  Only
        *unlinked* exits land here (the round takes linked ones
        vectorized), so a selector callback follows in ``_leave``.
        CFG rows take the parallel :meth:`_cfg_exit_vec` path (the
        kernel pre-splits the pend queue by row shape).
        """
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        decide = table.deciders[pos]
        if decide.__class__ is tuple:
            taken, target = decide
        else:
            block = table.path[pos]
            target = (block.terminator.taken_target if taken
                      else block.fallthrough)
        self._trace_leave(table, pos, taken, target, steps)

    def _cfg_exit_vec(self, gpos: int, taken: bool, steps: int) -> None:
        """Apply a vector-evaluated CFG decision that leaves the region.

        The round demotes a CFG row's external transfer to the shared
        exit outcome; vector-walkable CFG kinds are never dynamic, so
        the branch direction recovers the target without re-evaluating
        the closure.
        """
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        block = table.block_list[pos]
        target = (block.terminator.taken_target if taken
                  else block.fallthrough)
        self._cfg_leave(table, block, table.records[block], taken,
                        target, steps)

    def _trace_ret_exit(self, gpos: int, target_id: int, steps: int) -> None:
        """Apply a vector-evaluated RETURN that leaves the region.

        The vector round already popped the SoA stack; the popped
        return site arrives as a block id (a RETURN's target is
        dynamic — it cannot be recomputed from the terminator).
        """
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        target = self.dispatch.interner.blocks[target_id]
        self._trace_leave(table, pos, True, target, steps)

    def _trace_leave(self, table, pos: int, taken: bool, target, steps: int
                     ) -> None:
        """Resolve a trace exit's link slot and leave the region."""
        if target is None:
            linked = None
        elif table.dyn_exit[pos]:
            linked = self.tables_by_entry[target.block_id]
        elif taken:
            linked = table.link_taken[pos]
        else:
            linked = table.link_fall[pos]
        self._leave(table.path[pos], taken, target, linked, steps)

    def run_trace_scalar(self, quota: int) -> None:
        """Walk trace and CFG tables per lane, in Python.

        The fused loop's cache sections verbatim — static-run hops, one
        decision per iteration, and *inline* linked region-to-region
        transitions — bounded by ``quota`` decisions per kernel round.
        This is the straggler path: when too few lanes remain in vector
        mode for a vector round to pay for itself, the kernel steps
        them here at fused-loop speed.  The hot counters live in locals
        across region transitions (a linked jump costs a table-local
        rebind, exactly like the reference loop — not a kernel round
        trip); they flush to the kernel columns only at the round
        boundary, at unlinked exits (selector callbacks may install or
        evict), and at lane retirement.
        """
        kernel = self.kernel
        i = self.idx
        gpos = int(kernel.l_gpos[i])
        table = self._sync_vec(gpos)
        pos = gpos - self.cur_base
        region = self.region
        steps = int(kernel.l_steps[i])
        walk = int(kernel.l_walk[i])
        max_steps = self.max_steps
        stats = self.stats
        edge_profile = self.edge_profile
        edge_get = self.edge_get
        tables_by_entry = self.tables_by_entry
        block = self.block
        while True:
            left = False
            taken = False
            target = None
            if table.is_trace:
                path = table.path
                path_len = table.path_len
                path0 = table.path0
                deciders = table.deciders
                counts = table.counts
                run_len = table.run_len
                run_insts = table.run_insts
                run_hits = table.run_hits
                adv = table.adv
                cyc = table.cyc
                while quota > 0:
                    quota -= 1
                    if steps >= max_steps:
                        break
                    span = run_len[pos]
                    if span:
                        remaining = max_steps - steps
                        if span <= remaining:
                            batch_insts = run_insts[pos]
                            run_hits[pos] += 1
                        else:
                            span = remaining
                            batch_insts = 0
                            for j in range(pos, pos + span):
                                batch_insts += counts[j]
                                adv[j] += 1
                        steps += span
                        walk += batch_insts
                        pos += span
                        continue
                    steps += 1
                    decide = deciders[pos]
                    if decide.__class__ is tuple:
                        taken, target = decide
                    else:
                        taken, target = decide(steps)
                    walk += counts[pos]
                    next_position = pos + 1
                    if (next_position < path_len
                            and target is path[next_position]):
                        adv[pos] += 1
                        pos = next_position
                        continue
                    if taken and target is path0:
                        cyc[pos] += 1
                        region.cycle_backs += 1
                        pos = 0
                        continue
                    left = True
                    break
                block = path[pos]
                if not left:
                    break
                if target is None:
                    linked = None
                elif table.dyn_exit[pos]:
                    linked = tables_by_entry[target.block_id]
                elif taken:
                    linked = table.link_taken[pos]
                else:
                    linked = table.link_fall[pos]
            else:
                records = table.records
                blocks = table.blocks
                entry = table.entry
                block = table.block_list[pos]
                rec = None
                while quota > 0:
                    quota -= 1
                    if steps >= max_steps:
                        break
                    rec = records[block]
                    steps += 1
                    decide = rec[0]  # REC_DECIDE
                    if decide.__class__ is tuple:
                        taken, target = decide
                    else:
                        taken, target = decide(steps)
                    walk += rec[1]  # REC_COUNT
                    if target is not None and (
                            (target in rec[2])  # REC_STAY
                            if taken else (target in blocks)):
                        edge = (block, target)
                        prior = edge_get(edge)
                        edge_profile[edge] = (
                            1 if prior is None else prior + 1)
                        if target is entry:
                            region.cycle_backs += 1
                        block = target
                        continue
                    left = True
                    break
                pos = table.index_of[block]
                if not left:
                    break
                if rec[7]:  # REC_DYNAMIC
                    linked = (tables_by_entry[target.block_id]
                              if target is not None else None)
                elif taken:
                    linked = rec[5]  # REC_LINK_TAKEN
                else:
                    linked = rec[6]  # REC_LINK_FALL

            if linked is not None:
                # Linked exit stub, inline: the fused loop's direct
                # region-to-region jump.  Nothing can observe the
                # departed region here (selector callbacks only run at
                # unlinked exits, and eviction folds pending counts in
                # ``LaneDispatch.retire``), so banked vector counts
                # need no fold on this path.
                edge = (block, target)
                prior = edge_get(edge)
                edge_profile[edge] = 1 if prior is None else prior + 1
                region.exit_count += 1
                region.executed_instructions += walk
                self.cache_insts += walk
                walk = 0
                stats.region_transitions += 1
                region = linked.region
                self.region = region
                self.cur_table = linked
                region.entry_count += 1
                pos = 0 if linked.is_trace else linked.entry_pos
                self.cur_base = linked.arena_base
                self.cur_end = self.cur_base + (
                    linked.path_len if linked.is_trace
                    else len(linked.block_list))
                table = linked
                block = target
                continue
            # Unlinked exit (or program end): flush and take the shared
            # slow path — selector callbacks may install or evict.
            kernel.l_steps[i] = steps
            kernel.l_walk[i] = walk
            kernel.l_gpos[i] = self.cur_base + pos
            self.block = block
            self._leave(block, taken, target, None, steps)
            if self.mode != M_VEC:
                return
            # (LEI) immediate re-entry into a fresh region: rebind and
            # keep walking the remaining quota.
            region = self.region
            table = self.cur_table
            walk = 0
            block = self.block
            pos = int(kernel.l_gpos[i]) - self.cur_base
            if quota <= 0:
                break

        kernel.l_steps[i] = steps
        kernel.l_walk[i] = walk
        kernel.l_gpos[i] = self.cur_base + pos
        self.block = block
        if steps >= max_steps:
            self._finish()

    def _partial_span(self) -> None:
        """Consume a budget-clipped static run, then retire.

        The step budget ends inside the span: consume only what fits,
        recording the walked edges position by position — the fused
        loop's clamp path.
        """
        kernel = self.kernel
        i = self.idx
        gpos = int(kernel.l_gpos[i])
        table = self._sync_vec(gpos)
        steps = int(kernel.l_steps[i])
        span = self.max_steps - steps
        pos = gpos - self.cur_base
        if table.is_trace:
            counts = table.counts
            adv = table.adv
            batch_insts = 0
            for j in range(pos, pos + span):
                batch_insts += counts[j]
                adv[j] += 1
            kernel.l_steps[i] = steps + span
            kernel.l_walk[i] += batch_insts
            kernel.l_gpos[i] += span
            self.block = table.path[pos + span]
            self._finish()
            return
        # CFG constant-run clip: replay the chain step by step.  Chain
        # edges are constant-decided, internal and non-cycling by
        # construction, so only walked edges and instruction counts
        # accrue — no region counters, no cycle checks.
        records = table.records
        block = table.block_list[pos]
        edge_profile = self.edge_profile
        edge_get = self.edge_get
        walk = 0
        for _ in range(span):
            rec = records[block]
            taken, target = rec[0]
            walk += rec[1]
            edge = (block, target)
            prior = edge_get(edge)
            edge_profile[edge] = 1 if prior is None else prior + 1
            block = target
        kernel.l_steps[i] = steps + span
        kernel.l_walk[i] += walk
        kernel.l_gpos[i] = self.cur_base + table.index_of[block]
        self.block = block
        self._finish()

    # -- region transitions ------------------------------------------------
    def _leave(self, block: BasicBlock, taken: bool, target,
               linked_table, steps: int) -> None:
        """The fused loop's 'transfer leaves the region' section."""
        kernel = self.kernel
        i = self.idx
        region = self.region
        if self.cur_table is not None:
            # Vector rounds bank region-counter updates per table; the
            # counts must be exact before any selector callback can
            # observe the region.
            kernel.fold_table_pending(self.cur_table)
        if target is not None:
            edge = (block, target)
            prior = self.edge_get(edge)
            self.edge_profile[edge] = 1 if prior is None else prior + 1
        region.exit_count += 1
        walk = int(kernel.l_walk[i])
        region.executed_instructions += walk
        self.cache_insts += walk
        kernel.l_walk[i] = 0
        if target is None:
            self.region = None
            self.cur_table = None
            self.cur_end = 0
            self.block = None
            self._set_mode(M_SCALAR)
            return
        if linked_table is not None:
            # A linked exit stub: direct region-to-region jump.
            self.stats.region_transitions += 1
            self._enter_table(linked_table, transition=True)
            self.block = target
            return
        # Exit to the interpreter; the exit target becomes a start
        # candidate, and (LEI) may complete a cycle that installs and
        # immediately enters a new region.
        self.stats.cache_exits += 1
        exited_region = region
        self.region = None
        self.cur_table = None
        self.cur_end = 0
        self.cache.now = steps
        step = Step(block, taken, target)
        self.on_cache_exit(step, exited_region)
        installed_table = self.tables_by_entry[target.block_id]
        if installed_table is not None:
            self._enter_table(installed_table, transition=False)
        else:
            self._set_mode(M_SCALAR)
        self.block = target

    def _enter_table(self, table, transition: bool) -> None:
        """Enter a walk table (interp entry, linked jump, or re-entry)."""
        kernel = self.kernel
        i = self.idx
        region = table.region
        self.region = region
        self.cur_table = table
        region.entry_count += 1
        if not transition:
            self.stats.cache_entries += 1
            kernel.l_walk[i] = 0
        # Trace or CFG, the lane parks at the table's arena entry row
        # and joins the next vector round.
        self.cur_base = table.arena_base
        self.cur_end = self.cur_base + (
            table.path_len if table.is_trace else len(table.block_list))
        kernel.l_gpos[i] = table.arena_entry
        self._set_mode(M_VEC)

    def _set_mode(self, mode: int) -> None:
        self.mode = mode
        self.kernel.l_mode[self.idx] = mode

    # -- finalization ------------------------------------------------------
    def _finish(self) -> None:
        """Retire the lane: flush counters, fold edges, build the result.

        Mirrors the fused loop's ``finally`` block, then the shared
        ``_execute`` tail (edge folding, ``selector.finish``,
        diagnostics, :class:`RunResult` assembly).
        """
        if self.mode == M_DONE:
            return
        kernel = self.kernel
        i = self.idx
        if self.mode == M_VEC:
            # Vectorized linked transitions may have moved the lane
            # between tables since the last touchpoint.
            self._sync_vec(int(kernel.l_gpos[i]))
        self._set_mode(M_DONE)
        steps = int(kernel.l_steps[i])
        walk = int(kernel.l_walk[i])
        if self.region is not None:
            self.region.executed_instructions += walk
        self.cache_insts += walk
        kernel.l_walk[i] = 0
        self.cache_insts += int(kernel.l_cinst[i])
        kernel.l_cinst[i] = 0
        self.stats.region_transitions += int(kernel.l_trans[i])
        kernel.l_trans[i] = 0
        stats = self.stats
        stats.interp_steps = self.interp_steps
        stats.interp_instructions = self.interp_insts
        stats.cache_steps = steps - self.interp_steps
        stats.cache_instructions = self.cache_insts
        self.cache.now = steps
        self.engine.steps_executed = steps
        self.engine.instructions_executed = self.interp_insts + self.cache_insts
        self.cache.unbind_dispatch()
        # Fold the position-batched trace-walk edges (arena counts
        # first, then each table's own lists) into the shared profile —
        # covers every table compiled this run, including tables of
        # regions evicted mid-run.
        for table in self.dispatch.trace_tables:
            kernel.fold_table_pending(table)
            kernel.transfer_arena(table, self.edge_profile)
            table.fold_edges(self.edge_profile)
        for table in self.dispatch.cfg_tables:
            kernel.fold_table_pending(table)
            kernel.transfer_arena(table, self.edge_profile)
        if self.ispan_hits:
            # Interp spans banked their walked edges by head block;
            # replay each span's edge list, weighted by its hit count.
            spans = kernel.interp_spans(self.program_key, self.program)
            edge_profile = self.edge_profile
            edge_get = self.edge_get
            for head_id, hits in self.ispan_hits.items():
                for edge in spans[head_id][2]:
                    prior = edge_get(edge)
                    edge_profile[edge] = (
                        hits if prior is None else prior + hits
                    )
        self.selector.finish()
        diagnostics = getattr(self.selector, "diagnostics", lambda: {})()
        self.result = RunResult(
            program_name=self.program.name,
            selector_name=self.cell.selector,
            stats=stats,
            cache=self.cache,
            edge_profile=self.edge_profile,
            peak_counters=self.selector.peak_counters,
            peak_observed_trace_bytes=(
                self.selector.peak_observed_trace_bytes
            ),
            selector_diagnostics=diagnostics,
            stub_bytes=self.config.stub_bytes,
            samples=[],
            icache=None,
            metrics={},
        )
        self.report = MetricReport.from_result(self.result)
        kernel.lane_done(self)
