"""The dynamic-optimization-system simulator (Figure 1, Section 2.1).

The simulator consumes the executed basic-block stream and models the
two execution contexts of a Dynamo-style system:

* **Interpreting** — every step is shown to the selector (recorders
  follow the path); at each taken branch the code cache is consulted
  first, then the selector (Figure 5 / Figure 13's
  INTERPRETED-BRANCH-TAKEN).  A selector may install a region and hand
  it back to be entered immediately (LEI's ``jump newT``).
* **In the cache** — execution walks the current region as long as the
  stream matches it (trace successor, internal CFG edge, or a taken
  branch back to the region's own top, which counts as an *executed
  cycle*).  On divergence the region is exited: straight into another
  region whose entry the branch targets (a linked stub — one *region
  transition*), or back to the interpreter (the exit target becomes a
  start candidate via ``on_cache_exit``).

The cache is unbounded by default (Section 2.3); setting
``SystemConfig.cache_capacity_bytes`` switches in the bounded cache with
flush or FIFO eviction (an explicit extension of the paper's setting).

Two loop bodies run that state machine.  The reference one is a
single ``consume(block, taken, target)`` callback, fed by pull
(:meth:`Simulator.run` over a step iterable) or by push
(:meth:`Simulator.run_push`); it is the oracle.  The fused one
(:meth:`Simulator.run_program`) inlines an engine's decisions and
compiled region walks into one frame for speed; a version-2 trace
replay through :meth:`Simulator.run_push` is handed to it too, with
the trace as the engine.  Both produce bit-identical results
(``tests/test_fast_path.py``).

Observability
-------------
Passing an :class:`~repro.obs.observer.Observer` threads the run
through :mod:`repro.obs`: structured events (``cache_exit``,
``region_installed`` via the cache, ``run_failed`` on abort), a
metrics snapshot attached to the returned :class:`RunResult`, and —
when the observer carries a :class:`~repro.obs.profile.SpanTimer` —
per-phase wall time over the ``interpret`` / ``cache_walk`` /
``selector_decide`` / ``region_build`` scopes.  All instrumentation is
gated on booleans hoisted before the loop, so a run with the default
:data:`~repro.obs.observer.NULL_OBSERVER` executes the same per-step
work as an uninstrumented simulator; the guard test in
``tests/test_obs_guard.py`` holds both properties (identical results,
negligible disabled-mode overhead).

Timeline sampling (``sample_every``) is the one windowed observer.
Both loops take a :class:`~repro.system.results.TimelineSample` on
each boundary step, straight from their own counters, and phase shifts
are read off the samples (:func:`repro.analysis.timeline.phase_shifts`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.codecache import make_cache
from repro.cache.dispatch import DYNAMIC, DispatchTable, WalkTable
from repro.cache.icache import InstructionCache
from repro.cache.region import Region
from repro.errors import ConfigError, ReproError, SelectionError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import Step
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.program.cfg import BasicBlock
from repro.program.program import Program
from repro.selection.base import RegionSelector, fast_hooks
from repro.selection.registry import make_selector
from repro.config import SystemConfig
from repro.system.results import RunResult, RunStats, TimelineSample


class Simulator:
    """Drives one selector over one program's execution stream."""

    def __init__(
        self,
        program: Program,
        selector_name: str,
        config: Optional[SystemConfig] = None,
        sample_every: Optional[int] = None,
        icache: Optional[InstructionCache] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if sample_every is not None and sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1 step, got {sample_every}")
        self.program = program
        self.selector_name = selector_name
        self.config = config if config is not None else SystemConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.cache = make_cache(
            self.config.cache_capacity_bytes,
            self.config.cache_eviction_policy,
            self.config.stub_bytes,
        )
        self.cache.observer = self.observer
        self.selector: RegionSelector = make_selector(
            selector_name, self.cache, self.config, program
        )
        self.selector.obs = self.observer
        #: When set, a TimelineSample is recorded every N steps, plus a
        #: closing one at the end of the run.
        self.sample_every = sample_every
        #: Optional instruction-cache model over the code-cache layout;
        #: fetches of cached instructions are simulated through it.
        self.icache = icache

    def run(self, steps: Iterable[Step]) -> RunResult:
        """Consume a step stream and return the measured result.

        The pull face of the reference state machine: any iterable of
        :class:`Step` objects works (a live engine generator, a replay,
        a hand-built list).  Each step is fed to the same callback
        :meth:`run_push` hands its producer.
        """
        def feed(consume) -> None:
            for step in steps:
                consume(step.block, step.taken, step.target)

        return self.run_push(feed)

    def run_push(self, producer) -> RunResult:
        """Consume a push-mode step producer and return the result.

        The push face of the reference state machine.  ``producer`` is
        called once with a ``consume(block, taken, target)`` callback
        and must invoke it for every step in order (e.g.
        :meth:`ExecutionEngine.run_into
        <repro.execution.engine.ExecutionEngine.run_into>`), so the
        stream arrives with no generator suspension.

        ``consume`` carries one attribute, ``consume.run_engine(engine)``:
        instead of calling ``consume`` at all, a producer may hand the
        whole run to the fused core, as :meth:`run_program` would run
        ``engine``, and get its step count back.  Only
        :func:`repro.tracing.replay_trace_into` does, for a version-2
        trace, whose decisions form an engine
        (:class:`~repro.tracing.decoder.TraceSource`).  Results are
        bit-identical to :meth:`run` over the equivalent stream and to
        :meth:`run_program` either way.
        """
        return self._execute(
            lambda stats, edge_profile, samples, events_on, prof:
            self._run_loop(producer, stats, edge_profile, samples,
                           events_on, prof)
        )

    def run_program(self, engine: Optional[ExecutionEngine] = None,
                    seed: int = 0,
                    max_steps: Optional[int] = None) -> RunResult:
        """Execute this simulator's program live through the fast path.

        With no ``engine``, one is built from ``seed`` / ``max_steps``;
        passing an engine lets callers pin execution parameters (it must
        wrap the simulator's own program).
        """
        if engine is None:
            engine = ExecutionEngine(self.program, seed=seed,
                                     max_steps=max_steps)
        else:
            self._check_engine(engine)
        return self._execute(
            lambda stats, edge_profile, samples, events_on, prof:
            self._run_fused(engine, stats, edge_profile, samples,
                            events_on, prof)
        )

    def _check_engine(self, engine: ExecutionEngine) -> None:
        if engine.program is not self.program:
            raise ReproError(
                f"engine runs program {engine.program.name!r} but the "
                f"simulator was built for {self.program.name!r}"
            )

    def _execute(self, loop) -> RunResult:
        """Shared run scaffolding around the reference state machine
        (:meth:`_run_loop`) or the fused loop (:meth:`_run_fused`)."""
        stats = RunStats()
        edge_profile: Dict[Tuple[BasicBlock, BasicBlock], int] = {}
        selector = self.selector
        cache = self.cache
        samples: List[TimelineSample] = []
        icache = self.icache
        obs = self.observer
        if obs.enabled:
            obs.common["benchmark"] = self.program.name
            obs.common["selector"] = self.selector_name
        events_on = obs.events_enabled
        prof = obs.profiler
        step_index = 0

        if events_on:
            obs.emit("run_started", 0, config_cache_capacity=(
                self.config.cache_capacity_bytes))
        try:
            # Entered once here, not by the loops: a push run handed to
            # the fused core must not enter it twice.
            if prof is not None:
                prof.enter("interpret")
            step_index = loop(stats, edge_profile, samples, events_on, prof)
            selector.finish()
        except ReproError as exc:
            # cache.now is the loop's step index (advanced every step),
            # so the context is exact even though the loop never
            # returned.
            failed_at = cache.now
            exc.with_context(
                benchmark=self.program.name,
                selector=self.selector_name,
                step=failed_at,
            )
            if events_on:
                obs.emit(
                    "run_failed",
                    failed_at,
                    error=type(exc).__name__,
                    message=exc.args[0] if exc.args else "",
                    **{
                        key: value
                        for key, value in exc.context.items()
                        if key not in ("benchmark", "selector", "step")
                    },
                )
                obs.sink.close()
            if prof is not None:
                prof.steps = failed_at
                prof.stop()
            raise
        sampled = self.sample_every is not None
        # Close the timeline with a sample at the final step.  A run
        # that ended on a sampling boundary took that boundary's sample
        # before the last step's effects, so the closing sample replaces
        # it: two samples at one step would make a zero-width window.
        if sampled:
            if samples and samples[-1].step == step_index:
                samples.pop()
            samples.append(self._sample(
                step_index, stats.interp_instructions,
                stats.cache_instructions, stats.region_transitions))
        if prof is not None:
            prof.steps = step_index
            prof.stop()
        diagnostics = getattr(selector, "diagnostics", lambda: {})()
        if obs.metrics is not None:
            self._fill_metrics(stats, step_index)
        if events_on:
            if sampled:
                self._emit_phase_shifts(samples)
            obs.emit(
                "run_finished",
                step_index,
                steps=step_index,
                regions=len(cache.regions),
                cache_exits=stats.cache_exits,
                region_transitions=stats.region_transitions,
            )
        return RunResult(
            program_name=self.program.name,
            selector_name=self.selector_name,
            stats=stats,
            cache=cache,
            edge_profile=edge_profile,
            peak_counters=selector.peak_counters,
            peak_observed_trace_bytes=selector.peak_observed_trace_bytes,
            selector_diagnostics=diagnostics,
            samples=samples,
            icache=icache,
            metrics=obs.metrics.snapshot() if obs.metrics is not None else {},
        )

    def _sample(self, step: int, interp_instructions: int,
                cache_instructions: int,
                region_transitions: int) -> TimelineSample:
        """A timeline sample at ``step`` from a loop's own counters."""
        cache = self.cache
        return TimelineSample(
            step, interp_instructions, cache_instructions,
            len(cache.regions), region_transitions,
            cache.evictions + cache.flushes,
        )

    def _emit_phase_shifts(self, samples: List[TimelineSample]) -> None:
        """Emit each window-over-window shift as a ``phase_shift`` event."""
        # Imported here: repro.analysis pulls in the experiment layer,
        # which imports this module.
        from repro.analysis.timeline import phase_shifts

        emit = self.observer.emit
        for shift in phase_shifts(samples):
            emit(
                "phase_shift",
                shift.step,
                signal=shift.signal,
                previous=_rounded(shift.previous),
                current=_rounded(shift.current),
                delta=_rounded(shift.delta),
                window=self.sample_every,
            )

    def _run_loop(
        self,
        producer,
        stats: RunStats,
        edge_profile: Dict[Tuple[BasicBlock, BasicBlock], int],
        samples: List[TimelineSample],
        events_on: bool,
        prof,
    ) -> int:
        """The reference state machine; returns the final step index.

        Figure 1's dispatch as one ``consume(block, taken, target)``
        callback, handed to ``producer``, which calls it once per
        executed block in order.  :meth:`run` feeds it from a step
        iterable, :meth:`run_push` from a push-mode producer, so both
        drive this one body.  Selector callbacks take the same
        ``(block, taken, target)`` transfer.

        Instrumentation is branch-gated on ``events_on`` / ``prof`` so
        the disabled path stays identical to the uninstrumented loop.
        """
        selector = self.selector
        cache = self.cache
        icache = self.icache
        obs = self.observer
        observe_interpreted = selector.observe_interpreted
        on_interpreted_taken = selector.on_interpreted_taken
        on_cache_enter = selector.on_cache_enter
        on_cache_exit = selector.on_cache_exit
        lookup = cache.lookup
        edge_get = edge_profile.get
        sample_every = self.sample_every
        # Step indices start at 1, so 0 never matches an unsampled run.
        next_sample = sample_every or 0

        step_index = 0
        region: Optional[Region] = None  # None => interpreting
        trace_position = 0
        region_is_trace = False

        def consume(block, taken, target):
            nonlocal step_index, region, trace_position, region_is_trace
            nonlocal next_sample
            step_index += 1
            cache.now = step_index
            if step_index == next_sample:
                samples.append(self._sample(
                    step_index, stats.interp_instructions,
                    stats.cache_instructions, stats.region_transitions))
                next_sample += sample_every

            if target is not None:
                edge = (block, target)
                count = edge_get(edge)
                edge_profile[edge] = 1 if count is None else count + 1

            if region is None:
                # ---- interpreting -------------------------------------
                observe_interpreted(block, taken, target)
                stats.interp_steps += 1
                stats.interp_instructions += block.bundle.count
                if taken and target is not None:
                    entered = lookup(target)
                    if entered is not None:
                        # The branch entering the cache is a history
                        # boundary: never profiled (Figure 5 lines 1-3),
                        # but LEI records it so its buffer has no gaps.
                        on_cache_enter(block, taken, target)
                    else:
                        if prof is not None:
                            prof.enter("selector_decide")
                            entered = on_interpreted_taken(
                                block, taken, target)
                            prof.exit()
                        else:
                            entered = on_interpreted_taken(
                                block, taken, target)
                        if entered is not None and entered.entry is not target:
                            raise SelectionError(
                                f"selector {selector.name} returned a region "
                                f"entered at {entered.entry.full_label} for a "
                                f"branch to {target.full_label}"
                            )
                    if entered is not None:
                        region = entered
                        region_is_trace = entered.is_trace
                        trace_position = 0
                        entered.entry_count += 1
                        stats.cache_entries += 1
                        if prof is not None:
                            prof.switch("cache_walk")
                        if events_on:
                            obs.emit(
                                "cache_entered",
                                step_index,
                                entry=target.full_label,
                                order=entered.selection_order,
                            )
                return

            # ---- executing in the cache -------------------------------
            current = region
            count = block.bundle.count
            stats.cache_steps += 1
            stats.cache_instructions += count
            current.executed_instructions += count
            if icache is not None:
                base = current.cache_address
                if base is not None:
                    if region_is_trace:
                        offset = current.position_offsets[trace_position]
                    else:
                        offset = current.block_offsets[block]
                    icache.touch(base + offset, block.byte_size)

            if region_is_trace:
                next_position = current.position_after(
                    trace_position, taken, target)
                if next_position is not None:
                    if next_position == 0 and taken:
                        current.cycle_backs += 1
                    trace_position = next_position
                    return
            elif current.stays_internal(block, taken, target):
                if target is current.entry:
                    current.cycle_backs += 1
                return

            # The transfer leaves the region.
            current.exit_count += 1
            if target is None:
                region = None
                if prof is not None:
                    prof.switch("interpret")
                return
            linked = lookup(target)
            if linked is not None:
                # A linked exit stub: direct region-to-region jump.
                stats.region_transitions += 1
                region = linked
                region_is_trace = linked.is_trace
                trace_position = 0
                linked.entry_count += 1
                return
            # Exit to the interpreter; the exit target becomes a start
            # candidate, and (LEI) may complete a cycle that installs and
            # immediately enters a new region.
            stats.cache_exits += 1
            region = None
            if prof is not None:
                prof.switch("interpret")
            if events_on:
                obs.emit(
                    "cache_exit",
                    step_index,
                    region_entry=current.entry.full_label,
                    order=current.selection_order,
                    exit_target=target.full_label,
                )
            if prof is not None:
                prof.enter("selector_decide")
                on_cache_exit(block, taken, target, current)
                prof.exit()
            else:
                on_cache_exit(block, taken, target, current)
            installed = lookup(target)
            if installed is not None:
                region = installed
                region_is_trace = installed.is_trace
                trace_position = 0
                installed.entry_count += 1
                stats.cache_entries += 1
                if prof is not None:
                    prof.switch("cache_walk")
                if events_on:
                    obs.emit(
                        "cache_entered",
                        step_index,
                        entry=target.full_label,
                        order=installed.selection_order,
                    )

        def run_engine(engine: ExecutionEngine) -> int:
            # The fused-core handoff (see run_push): the whole run, or
            # nothing of it, goes to _run_fused.
            nonlocal step_index
            if step_index:
                raise ReproError(
                    "run_engine must be called before any consume() call")
            self._check_engine(engine)
            step_index = self._run_fused(engine, stats, edge_profile,
                                         samples, events_on, prof)
            return step_index

        consume.run_engine = run_engine
        producer(consume)
        return step_index

    def _run_fused(
        self,
        engine: ExecutionEngine,
        stats: RunStats,
        edge_profile: Dict[Tuple[BasicBlock, BasicBlock], int],
        samples: List[TimelineSample],
        events_on: bool,
        prof,
    ) -> int:
        """The fully fused loop: engine + simulator in one frame.

        :meth:`run_program`'s loop body, and a version-2 trace
        replay's (``engine`` is then a
        :class:`~repro.tracing.decoder.TraceSource`).  Where the
        reference state machine pays one consumer call per step, this
        loop inlines the engine's block-decision dispatch *and* the
        simulator's per-step logic into a single ``while`` over
        compiled *walk tables*
        (:mod:`repro.cache.dispatch`): every region install, trace or
        CFG, compiles one flat position-indexed table — pre-bound
        decision closure, instruction count, layout offsets, the
        position each transfer stays on, patched links — so a
        cache-walk step indexes parallel tuples instead of touching
        region or block attributes, chains of constant decisions are
        consumed in one bound (*static runs*), the laps of a cycle closed
        by a counted latch back to the entry are consumed in one bound
        per activation (*counted cycles*), and a region exit whose
        statically-known target is another resident region's entry
        chains through the patched link slot without any residency
        lookup and without leaving the walk loop.  One walk loop serves
        both region kinds; it leaves only to interpret and for exits
        with a dynamic target.  Decision-for-decision it must mirror
        :meth:`_run_loop`; the bit-identity suite in
        ``tests/test_fast_path.py`` compares the two over every
        (benchmark × selector × cache-policy) cell.

        Bit-identity-preserving shortcuts, and why they are safe:

        * the hot ``RunStats`` counters (``region_transitions``
          included) accumulate in locals and are flushed to ``stats``
          on every exit path; a timeline sample at step ``N`` reads
          the locals, which then cover steps ``1..N-1``, exactly what
          the reference loop's ``stats`` hold there;
        * ``cache.now`` is advanced only where someone can read it —
          before selector callbacks and region installs — not on pure
          walk steps, where nothing consults the clock;
        * the selector's base-class no-op hooks are skipped entirely
          (:func:`~repro.selection.base.fast_hooks`), so e.g. LEI pays
          nothing per untaken interpreted step;
        * walk-table decision closures are the *same objects* the
          interpret path uses (one shared per-block memo indexed by
          block id), so per-site decision state never forks between
          contexts; building a closure consumes no randomness, so eager
          compilation at install time leaves the RNG stream untouched;
        * a static run batches only decisions that are constant
          ``(taken, target)`` tuples that stay in the region and never
          move onto its entry (so no cycle back is hidden inside one) —
          evaluating them stepwise has no side effects — and batching
          is disabled when a per-step observer (the timeline sampler,
          an icache model) is set;
        * a counted cycle (``WalkTable.run_laps``) is walked in whole
          laps only when batching is on, right after the walk moved
          from its latch onto the entry.  Between two latch decisions
          only the entry's static run executes, which decides nothing,
          so the latch's next decisions are its own, and its
          ``laps(limit)`` takes as many further taken ones as it can
          tell in advance.  A live ``LoopTrip`` latch reads them off
          its remaining count: a jittered count draws from the RNG only
          when its cell is empty, which no lap reaches, so no draw is
          skipped or moved.  A replay's conditional latch reads them
          off the run of 1-bits at the trace's bit cursor, never past
          the last recorded conditional.  The laps move the steps,
          instructions, the latch's taken hits, the entry's run hits
          and ``cycle_backs`` by the same multiple, and stop at the
          step budget;
        * a static exit whose link slot is patched switches tables
          inside the walk loop: the same exit and entry counts, exited
          instructions and region transition as the exit path, with the
          exit edge counted by position and direction.  Neither loop
          emits an event, calls a selector or reads the clock on a
          linked exit, so nothing sees where the switch happens;
        * where a transfer stays is the region's own rule
          (``TraceRegion.position_after``, ``CFGRegion.stays_internal``)
          evaluated at compile time on the block's static targets: a
          static block's taken and fall-through targets never vary, and
          a return or indirect jump looks its target up among the ones
          that stay;
        * a patched link slot holds exactly what ``CodeCache.lookup``
          would return for that exit's statically-known target — the
          dispatch layer re-patches every slot on install and eviction,
          and dynamic-target exits (returns, indirect jumps) fall back
          to the flat residency table;
        * walked-edge counts, linked exits' included, are keyed by
          position and direction (a dynamic target's by its slot) and
          folded into ``edge_profile`` once at the end — the walked edge
          is fully determined by them, and dict equality does not see
          insertion order.
        """
        selector = self.selector
        cache = self.cache
        icache = self.icache
        obs = self.observer

        (observe_interpreted, on_cache_enter, on_interpreted_taken,
         on_cache_exit) = fast_hooks(selector)
        edge_get = edge_profile.get
        profiled = prof is not None
        if profiled:
            prof_enter = prof.enter
            prof_exit = prof.exit
            prof_switch = prof.switch

        stack, ctx = engine._push_state()
        program = engine.program
        # Per-block decision closures, indexed by dense block id: one
        # shared memo serving the interpret path and every compiled
        # walk table, so per-site decision state lives in exactly one
        # closure regardless of execution context.
        deciders: List[object] = [None] * len(program.blocks)
        make_decider = engine._decider_for

        def decider_for(b, _deciders=deciders, _make=make_decider,
                        _stack=stack, _ctx=ctx):
            bid = b.block_id
            decide = _deciders[bid]
            if decide is None:
                decide = _deciders[bid] = _make(b, _stack, _ctx)
            return decide

        dispatch = DispatchTable(program, decider_for)
        cache.bind_dispatch(dispatch)
        # Flat residency by entry block id — the HASH-LOOKUP of
        # Figures 5/13 reduced to one list index; kept patched by the
        # cache across installs, evictions, and flushes.
        tables_by_entry = dispatch.tables_by_entry

        block: Optional[BasicBlock] = program.entry
        max_steps = engine.max_steps
        steps = 0
        # Static runs and counted laps fold many steps into one loop
        # iteration, so they are valid only when nothing observes
        # individual steps; when something does, the walk serves it.
        sample_every = self.sample_every
        sampling = sample_every is not None
        next_sample = sample_every or 0
        can_batch = not sampling and icache is None

        # Hot counters, kept local (see the flush discipline above).
        # Every step is either interpreted or cached, so the cache-side
        # step count is derived at flush points (``steps`` minus the
        # interpreted count) instead of accumulated per walk step, and
        # cache instructions accumulate per region stint
        # (``walk_insts``), flushed into ``cache_insts`` when the stint
        # ends.
        interp_steps = 0
        interp_insts = 0
        cache_insts = 0
        transitions = 0

        # The walk table of the region being walked, None while
        # interpreting; its region and its locals are bound when the
        # walk starts.
        cur_table: Optional[WalkTable] = None
        region: Optional[Region] = None
        walk_insts = 0  # current region stint, flushed on region change

        try:
            while block is not None and steps < max_steps:
                if cur_table is None:
                    # ---- interpreting ---------------------------------
                    steps += 1
                    bid = block.block_id
                    decide = deciders[bid]
                    if decide is None:
                        decide = deciders[bid] = make_decider(
                            block, stack, ctx)
                    if decide.__class__ is tuple:
                        taken, target = decide
                    else:
                        taken, target = decide(steps)
                    count = block.bundle.count

                    if sampling and steps == next_sample:
                        samples.append(self._sample(
                            steps, interp_insts, cache_insts + walk_insts,
                            transitions))
                        next_sample += sample_every

                    if target is not None:
                        edge = (block, target)
                        prior = edge_get(edge)
                        edge_profile[edge] = 1 if prior is None else prior + 1
                    if observe_interpreted is not None:
                        # The clock must be current before any selector
                        # callback (installs stamp ``selected_at_step``
                        # from it); steps with no callback skip the
                        # store — nothing reads the clock there.
                        cache.now = steps
                        observe_interpreted(block, taken, target)
                    interp_steps += 1
                    interp_insts += count
                    if taken and target is not None:
                        cache.now = steps
                        entered_table = tables_by_entry[target.block_id]
                        if entered_table is not None:
                            # The branch entering the cache is a history
                            # boundary: never profiled (Figure 5 lines
                            # 1-3), but LEI records it so its buffer has
                            # no gaps.
                            if on_cache_enter is not None:
                                on_cache_enter(block, taken, target)
                        else:
                            if profiled:
                                prof_enter("selector_decide")
                                entered = on_interpreted_taken(
                                    block, taken, target)
                                prof_exit()
                            else:
                                entered = on_interpreted_taken(
                                    block, taken, target)
                            if entered is not None:
                                if entered.entry is not target:
                                    raise SelectionError(
                                        f"selector {selector.name} returned "
                                        f"a region entered at "
                                        f"{entered.entry.full_label} for a "
                                        f"branch to {target.full_label}"
                                    )
                                # A selector-returned region (LEI's
                                # ``jump newT``): resident after the
                                # selector's install, or compiled on
                                # the spot for a region the selector
                                # chose not to install.
                                entered_table = dispatch.table_for(entered)
                        if entered_table is not None:
                            cur_table = entered_table
                            entered_table.region.entry_count += 1
                            stats.cache_entries += 1
                            if profiled:
                                prof_switch("cache_walk")
                            if events_on:
                                obs.emit(
                                    "cache_entered",
                                    steps,
                                    entry=target.full_label,
                                    order=entered_table.region.selection_order,
                                )
                    block = target
                    continue

                # ---- executing in the cache ---------------------------
                # Bind the walk table's locals; a linked exit rebinds
                # them inside the walk.
                (region, entry_pos, w_deciders, w_counts, next_taken,
                 next_fall, taken_hits, fall_hits, run_len, run_end,
                 run_insts, run_hits) = cur_table.walk_locals
                pos = entry_pos
                while steps < max_steps:
                    if can_batch:
                        span = run_len[pos]
                        if span:
                            steps += span
                            if steps < max_steps:
                                # The whole run, then the step it lands
                                # on.
                                run_hits[pos] += 1
                                walk_insts += run_insts[pos]
                                pos = run_end[pos]
                            else:
                                # The step budget ends inside the run or
                                # with it: walk only what fits.
                                pos, batch_insts = cur_table.advance(
                                    pos, span - (steps - max_steps))
                                walk_insts += batch_insts
                                steps = max_steps
                                continue
                    steps += 1
                    decide = w_deciders[pos]
                    if decide.__class__ is tuple:
                        taken, target = decide
                    else:
                        taken, target = decide(steps)
                    if not can_batch:
                        if sampling and steps == next_sample:
                            samples.append(self._sample(
                                steps, interp_insts,
                                cache_insts + walk_insts, transitions))
                            next_sample += sample_every
                        if icache is not None:
                            base_addr = region.cache_address
                            if base_addr is not None:
                                icache.touch(
                                    base_addr + cur_table.offsets[pos],
                                    cur_table.sizes[pos])
                    walk_insts += w_counts[pos]
                    # The region's stay rule, compiled: the position the
                    # transfer stays on, with its walked edge batched;
                    # -1 with ``linked`` set for a static exit whose
                    # link slot is patched.
                    if taken:
                        stay = next_taken[pos]
                        if stay >= 0:
                            taken_hits[pos] += 1
                        elif stay == DYNAMIC:
                            slot = cur_table.targets[pos].get(target)
                            if slot is None:
                                break
                            slot[1] += 1
                            stay = slot[0]
                        else:
                            linked = cur_table.link_taken[pos]
                            if linked is None:
                                break
                            taken_hits[pos] += 1
                    else:
                        stay = next_fall[pos]
                        if stay < 0:
                            linked = cur_table.link_fall[pos]
                            if linked is None:
                                break
                        fall_hits[pos] += 1
                    # Both rare cases sit at or below the entry: a
                    # cycle back, and a linked exit (-1).
                    if stay <= entry_pos:
                        if stay == entry_pos:
                            region.cycle_backs += 1
                            if can_batch and pos == cur_table.latch:
                                span, batch_insts = cur_table.run_laps(
                                    max_steps - steps)
                                steps += span
                                walk_insts += batch_insts
                        elif stay < 0:
                            # A linked exit stub: a direct region-to-
                            # region jump, taken inside the walk.
                            region.exit_count += 1
                            region.executed_instructions += walk_insts
                            cache_insts += walk_insts
                            walk_insts = 0
                            transitions += 1
                            cur_table = linked
                            (region, entry_pos, w_deciders, w_counts,
                             next_taken, next_fall, taken_hits, fall_hits,
                             run_len, run_end, run_insts,
                             run_hits) = linked.walk_locals
                            region.entry_count += 1
                            pos = entry_pos
                            continue
                    pos = stay
                else:
                    break  # the step budget ran out inside the region

                # ---- the transfer leaves the region -------------------
                block = cur_table.blocks[pos]
                if target is not None:
                    edge = (block, target)
                    prior = edge_get(edge)
                    edge_profile[edge] = 1 if prior is None else prior + 1
                region.exit_count += 1
                region.executed_instructions += walk_insts
                cache_insts += walk_insts
                walk_insts = 0
                if target is None:
                    cur_table = region = None
                    if profiled:
                        prof_switch("interpret")
                    block = target
                    continue
                # Static exits with a patched link slot never get here;
                # a return's or an indirect jump's target is looked up
                # in flat residency.
                if next_taken[pos] == DYNAMIC:
                    linked = tables_by_entry[target.block_id]
                    if linked is not None:
                        # A linked exit stub: direct region-to-region jump.
                        transitions += 1
                        cur_table = linked
                        linked.region.entry_count += 1
                        block = target
                        continue
                # Exit to the interpreter; the exit target becomes a
                # start candidate, and (LEI) may complete a cycle
                # that installs and immediately enters a new region.
                stats.cache_exits += 1
                exited_region = region
                cur_table = region = None
                cache.now = steps
                if profiled:
                    prof_switch("interpret")
                if events_on:
                    obs.emit(
                        "cache_exit",
                        steps,
                        region_entry=exited_region.entry.full_label,
                        order=exited_region.selection_order,
                        exit_target=target.full_label,
                    )
                if profiled:
                    prof_enter("selector_decide")
                    on_cache_exit(block, taken, target, exited_region)
                    prof_exit()
                else:
                    on_cache_exit(block, taken, target, exited_region)
                cur_table = tables_by_entry[target.block_id]
                if cur_table is not None:
                    cur_table.region.entry_count += 1
                    stats.cache_entries += 1
                    if profiled:
                        prof_switch("cache_walk")
                    if events_on:
                        obs.emit(
                            "cache_entered",
                            steps,
                            entry=target.full_label,
                            order=cur_table.region.selection_order,
                        )
                block = target
        finally:
            if region is not None:
                region.executed_instructions += walk_insts
            cache_insts += walk_insts
            stats.interp_steps = interp_steps
            stats.interp_instructions = interp_insts
            stats.cache_steps = steps - interp_steps
            stats.cache_instructions = cache_insts
            stats.region_transitions = transitions
            cache.now = steps
            engine.steps_executed = steps
            engine.instructions_executed = interp_insts + cache_insts
            cache.unbind_dispatch()

        # Fold the position-batched walked edges into the shared
        # profile (covers every table compiled this run, including
        # tables of regions evicted mid-run).
        for table in dispatch.tables:
            table.fold_edges(edge_profile)
        return steps

    def _fill_metrics(self, stats: RunStats, step_index: int) -> None:
        """Transfer the run's aggregates into the metrics registry.

        Hot-path counts are kept in :class:`RunStats` exactly as before
        (instrumentation must never perturb the simulation) and flowed
        into the registry once at end of run; only rare events (region
        install/reject, evictions) count live.
        """
        registry = self.observer.metrics
        steps = registry.counter(
            "steps_total", "Executed basic blocks by context.", ["context"]
        )
        steps.inc(stats.interp_steps, context="interpret")
        steps.inc(stats.cache_steps, context="cache")
        insts = registry.counter(
            "instructions_total", "Executed instructions by context.",
            ["context"],
        )
        insts.inc(stats.interp_instructions, context="interpret")
        insts.inc(stats.cache_instructions, context="cache")
        registry.counter(
            "cache_entries_total",
            "Entries into the code cache from the interpreter.",
        ).inc(stats.cache_entries)
        registry.counter(
            "cache_exits_total",
            "Exits from the code cache back to the interpreter.",
        ).inc(stats.cache_exits)
        registry.counter(
            "region_transitions_total",
            "Direct region-to-region jumps through linked exit stubs.",
        ).inc(stats.region_transitions)
        registry.gauge(
            "cache_resident_regions", "Resident regions at end of run."
        ).set(self.cache.resident_count)
        registry.gauge(
            "cache_resident_bytes", "Resident cache bytes at end of run."
        ).set(self.cache.resident_bytes)
        registry.gauge(
            "peak_profiling_counters",
            "Peak live profiling counters (Figure 10).",
        ).set(self.selector.peak_counters)
        registry.gauge(
            "peak_observed_trace_bytes",
            "Peak observed-trace storage (Figure 18).",
        ).set(self.selector.peak_observed_trace_bytes)


def _rounded(value):
    """Event payload form of a signal value: floats to 6 places."""
    return round(value, 6) if isinstance(value, float) else value


def simulate(
    program: Program,
    selector_name: str,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    max_steps: Optional[int] = None,
    sample_every: Optional[int] = None,
    icache: Optional[InstructionCache] = None,
    observer: Optional[Observer] = None,
    fast: bool = True,
) -> RunResult:
    """Convenience: execute ``program`` live and simulate the system.

    ``simulate(program, "net")`` is the one-call entry point used by the
    examples; experiments that want collect-once/replay-many semantics
    drive :class:`Simulator` with :func:`repro.tracing.replay_trace`
    streams instead.

    ``fast`` selects the fused execute→simulate pipeline (the default;
    see :meth:`Simulator.run_program`); ``fast=False`` feeds the
    engine's generator into the reference state machine instead
    (:meth:`Simulator.run`).  The two produce bit-identical
    results — the flag only exists so tests and debugging sessions can
    pin a path (see ``docs/performance.md``).
    """
    engine = ExecutionEngine(program, seed=seed, max_steps=max_steps)
    simulator = Simulator(
        program, selector_name, config,
        sample_every=sample_every, icache=icache, observer=observer,
    )
    if fast:
        return simulator.run_program(engine)
    return simulator.run(engine.run())
