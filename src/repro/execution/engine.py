"""The execution engine: interprets a program into a stream of Steps.

This is the performance-critical inner loop of the whole reproduction
(every experiment pushes hundreds of thousands of steps through it), so
it trades a little elegance for speed: branch kinds are compared by
identity, per-site state dicts are created lazily, and a single
:class:`~repro.behavior.models.DecisionContext` instance is reused.

Two execution modes share the same decision semantics:

* :meth:`ExecutionEngine.run` — the *reference* pull-mode generator,
  yielding one :class:`Step` per executed block.  Simple to consume,
  but pays a generator suspension and a ``Step`` allocation per block.
* :meth:`ExecutionEngine.run_into` — the *fast* push mode: the engine
  calls ``consumer(block, taken, target)`` per block, with branch-kind
  dispatch and model lookup resolved **once per block** into a decision
  closure instead of once per execution, and no ``Step`` objects at
  all.  ``(program, seed)`` determines the exact same stream on both
  paths; the bit-identity suite in ``tests/test_fast_path.py`` holds
  them equal.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.behavior.models import (
    AlwaysTaken,
    Bernoulli,
    DecisionContext,
    LoopTrip,
    MarkovBiased,
    NeverTaken,
    Periodic,
    PhaseShift,
    RoundRobinIndirect,
    TableIndirect,
)
from repro.behavior.rng import SplitMix64
from repro.errors import ExecutionError
from repro.execution.events import Step
from repro.execution.stack import CallStack
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.program.program import Program

#: Default step budget.  Most workloads HALT well before this; the cap
#: exists so a mis-modelled loop cannot hang an experiment run.
DEFAULT_MAX_STEPS = 50_000_000


class ExecutionEngine:
    """Deterministically executes a finalized program.

    Parameters
    ----------
    program:
        A finalized :class:`~repro.program.Program`.
    seed:
        Seed for all branch decisions; ``(program, seed)`` fully
        determines the emitted stream.
    max_steps:
        Hard cap on executed blocks.  Reaching the cap is not an error
        (the stream just ends), mirroring how the paper truncates
        nothing but we must bound synthetic programs.
    max_call_depth:
        Bound on the call stack, guarding against runaway recursion.
    """

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        max_steps: Optional[int] = None,
        max_call_depth: int = 4096,
    ) -> None:
        if not program.is_finalized:
            raise ExecutionError(
                f"program {program.name!r} must be finalized before execution"
            )
        self.program = program
        self.seed = seed
        self.max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
        self.max_call_depth = max_call_depth
        #: Number of steps emitted by the last (or current) run.
        self.steps_executed = 0
        #: Number of instructions covered by emitted steps.
        self.instructions_executed = 0

    def run(self) -> Iterator[Step]:
        """Yield one :class:`Step` per executed basic block.

        The generator ends when the program halts, returns from its
        outermost frame, or exhausts ``max_steps``.
        """
        rng = SplitMix64(self.seed)
        stack = CallStack(self.max_call_depth)
        site_states: Dict[BasicBlock, dict] = {}
        ctx = DecisionContext(rng=rng, site_state={}, step=0)

        # Localize hot names (measurably faster in CPython's interpreter).
        cond = BranchKind.COND
        jump = BranchKind.JUMP
        call = BranchKind.CALL
        ret = BranchKind.RETURN
        indirect = BranchKind.INDIRECT
        fall = BranchKind.FALLTHROUGH

        block: Optional[BasicBlock] = self.program.entry
        steps = 0
        instructions = 0
        max_steps = self.max_steps

        # The counters must reflect whatever was actually consumed, even
        # when the caller abandons the generator early (``close()``) or
        # the stream dies mid-run (stack overflow): the finally clause
        # runs on every exit path, so stale counts from a prior run can
        # never leak through.
        try:
            while block is not None and steps < max_steps:
                steps += 1
                instructions += block.bundle.count
                term = block.terminator
                kind = term.kind

                if kind is cond:
                    state = site_states.get(block)
                    if state is None:
                        state = site_states[block] = {}
                    ctx.site_state = state
                    ctx.step = steps
                    assert term.model is not None
                    taken = term.model.next_taken(ctx)
                    target = term.taken_target if taken else block.fallthrough
                elif kind is jump:
                    taken = True
                    target = term.taken_target
                elif kind is call:
                    taken = True
                    target = term.taken_target
                    assert block.fallthrough is not None
                    stack.push(block.fallthrough)
                elif kind is ret:
                    taken = True
                    target = stack.pop()  # None ends the program.
                elif kind is indirect:
                    state = site_states.get(block)
                    if state is None:
                        state = site_states[block] = {}
                    ctx.site_state = state
                    ctx.step = steps
                    assert term.indirect_model is not None
                    index = term.indirect_model.next_target_index(
                        ctx, len(term.indirect_targets)
                    )
                    taken = True
                    target = term.indirect_targets[index]
                elif kind is fall:
                    taken = False
                    target = block.fallthrough
                else:  # HALT
                    taken = False
                    target = None

                yield Step(block, taken, target)
                block = target
        finally:
            self.steps_executed = steps
            self.instructions_executed = instructions

    # -- fast path --------------------------------------------------------
    def _push_state(self) -> Tuple[CallStack, DecisionContext]:
        """Fresh per-run decision state for the push/fused loops.

        Shared by :meth:`run_into` and the simulator's fused loop
        (:meth:`~repro.system.simulator.Simulator.run_program`) so both
        construct the RNG and call stack exactly as :meth:`run` does.
        """
        rng = SplitMix64(self.seed)
        stack = CallStack(self.max_call_depth)
        ctx = DecisionContext(rng=rng, site_state={}, step=0)
        return stack, ctx

    def _decider_for(
        self, block: BasicBlock, stack: CallStack, ctx: DecisionContext
    ):
        """Build the per-block decision rule for :meth:`run_into`.

        Blocks whose transfer is fully static (JUMP / FALLTHROUGH /
        HALT, and conditionals on ``AlwaysTaken``/``NeverTaken``)
        resolve to a plain ``(taken, target)`` tuple — no call at all
        on later executions.  The rest resolve to a closure taking the
        step index and returning a prebuilt tuple, with terminator
        kind, model and targets bound once.  The stock branch models
        are specialized into dedicated closures that replicate their
        decision logic (same RNG consumption, per-site state in a
        closure cell); unknown models are consulted through the shared
        :class:`DecisionContext` exactly as the reference path does.
        Either way the RNG stream is preserved bit-for-bit.
        """
        term = block.terminator
        kind = term.kind
        if kind is BranchKind.COND:
            model = term.model
            assert model is not None
            taken_result = (True, term.taken_target)
            fall_result = (False, block.fallthrough)
            # Known-model specializations.  Each reproduces the exact
            # RNG-consumption pattern of the model's ``next_taken`` (and
            # its per-site state machine, as a closure cell instead of a
            # ``site_state`` dict), so the decision stream stays
            # bit-identical to the reference path.  Exact-type checks
            # only: a subclass overriding ``next_taken`` falls through
            # to the generic closure below.
            model_type = type(model)
            if model_type is AlwaysTaken:
                return taken_result
            if model_type is NeverTaken:
                return fall_result
            if model_type is Bernoulli:

                def decide_bernoulli(step, _random=ctx.rng.random,
                                     _p=model.probability,
                                     _taken=taken_result, _fall=fall_result):
                    return _taken if _random() < _p else _fall

                return decide_bernoulli
            if model_type is LoopTrip:
                # After a taken decision the remaining-count cell holds
                # ``r >= 1``, and the next ``r - 1`` decisions are taken
                # with no draw: ``laps(limit)`` takes up to ``limit`` of
                # them at once, so the fused walk runs a counted cycle's
                # laps in one bound (``WalkTable.run_laps``).
                cell = [None]
                trips = model.trips
                jitter = model.jitter

                def laps(limit, _cell=cell):
                    remaining = _cell[0]
                    if remaining is None:
                        # The last decision fell through: the count
                        # starts over on the next one.
                        return 0
                    taken = min(remaining - 1, limit)
                    _cell[0] = remaining - taken
                    return taken

                if jitter == 0:

                    def decide_loop(step, _cell=cell, _trips=trips,
                                    _taken=taken_result, _fall=fall_result):
                        remaining = _cell[0]
                        if remaining is None:
                            remaining = _trips
                        remaining -= 1
                        if remaining <= 0:
                            _cell[0] = None
                            return _fall
                        _cell[0] = remaining
                        return _taken

                    decide_loop.laps = laps
                    return decide_loop

                def decide_loop_jitter(step, _cell=cell,
                                       _randint=ctx.rng.randint,
                                       _lo=trips - jitter,
                                       _hi=trips + jitter,
                                       _taken=taken_result,
                                       _fall=fall_result):
                    remaining = _cell[0]
                    if remaining is None:
                        remaining = _randint(_lo, _hi)
                    remaining -= 1
                    if remaining <= 0:
                        _cell[0] = None
                        return _fall
                    _cell[0] = remaining
                    return _taken

                decide_loop_jitter.laps = laps
                return decide_loop_jitter
            if model_type is Periodic:

                def decide_periodic(step, _cell=[0], _pattern=model.pattern,
                                    _n=len(model.pattern),
                                    _taken=taken_result, _fall=fall_result):
                    cursor = _cell[0]
                    _cell[0] = (cursor + 1) % _n
                    return _taken if _pattern[cursor] else _fall

                return decide_periodic
            if model_type is PhaseShift:

                def decide_phase(step, _random=ctx.rng.random,
                                 _prob_at=model.probability_at,
                                 _taken=taken_result, _fall=fall_result):
                    return _taken if _random() < _prob_at(step) else _fall

                return decide_phase
            if model_type is MarkovBiased:

                def decide_markov(step, _cell=[None],
                                  _random=ctx.rng.random,
                                  _stay_t=model.stay_taken,
                                  _stay_n=model.stay_not_taken,
                                  _initial=model.initial_taken,
                                  _taken=taken_result, _fall=fall_result):
                    last = _cell[0]
                    if last is None:
                        taken = _initial
                    elif last:
                        taken = _random() < _stay_t
                    else:
                        taken = not (_random() < _stay_n)
                    _cell[0] = taken
                    return _taken if taken else _fall

                return decide_markov
            state: dict = {}

            def decide_cond(step, _model=model, _ctx=ctx, _state=state,
                            _taken=taken_result, _fall=fall_result):
                _ctx.site_state = _state
                _ctx.step = step
                return _taken if _model.next_taken(_ctx) else _fall

            return decide_cond
        if kind is BranchKind.JUMP:
            return (True, term.taken_target)
        if kind is BranchKind.CALL:
            assert block.fallthrough is not None
            result = (True, term.taken_target)

            # The closures poke at the stack's frame list directly: one
            # list op per call/return instead of a method call.  The
            # depth limit is still enforced — overflow falls back to
            # ``push`` for the canonical error.
            def decide_call(step, _frames=stack._frames,
                            _limit=stack.max_depth, _push=stack.push,
                            _site=block.fallthrough, _r=result):
                if len(_frames) < _limit:
                    _frames.append(_site)
                else:
                    _push(_site)
                return _r

            return decide_call
        if kind is BranchKind.RETURN:

            def decide_ret(step, _frames=stack._frames):
                # An empty stack returns from main: target None ends
                # the program (CallStack.pop's contract).
                return (True, _frames.pop() if _frames else None)

            return decide_ret
        if kind is BranchKind.INDIRECT:
            imodel = term.indirect_model
            assert imodel is not None
            results = tuple((True, target) for target in term.indirect_targets)
            count = len(results)
            imodel_type = type(imodel)
            if imodel_type is RoundRobinIndirect:

                def decide_rr(step, _cell=[0], _results=results,
                              _count=count):
                    cursor = _cell[0]
                    _cell[0] = (cursor + 1) % _count
                    return _results[cursor]

                return decide_rr
            # Weight-count mismatches fall through so the model raises
            # its canonical error on the first execution, as before.
            if imodel_type is TableIndirect and len(imodel.weights) == count:

                def decide_table(step, _weighted=ctx.rng.weighted_index,
                                 _cum=imodel._cumulative, _results=results):
                    return _results[_weighted(_cum)]

                return decide_table
            state = {}

            def decide_indirect(step, _model=imodel, _ctx=ctx, _state=state,
                                _results=results, _count=count):
                _ctx.site_state = _state
                _ctx.step = step
                return _results[_model.next_target_index(_ctx, _count)]

            return decide_indirect
        if kind is BranchKind.FALLTHROUGH:
            return (False, block.fallthrough)
        # HALT
        return (False, None)

    def run_into(
        self,
        consumer: Callable[[BasicBlock, bool, Optional[BasicBlock]], object],
    ) -> int:
        """Push the stream into ``consumer(block, taken, target)``.

        The fast-path twin of :meth:`run`: same stream for the same
        ``(program, seed)``, but with no generator suspension and no
        :class:`Step` allocation — per-block decision closures are
        built on first execution of each block and reused after.
        Returns the number of steps pushed; the ``steps_executed`` /
        ``instructions_executed`` counters are maintained on every exit
        path, exactly as in :meth:`run`.
        """
        stack, ctx = self._push_state()
        deciders: Dict[BasicBlock, object] = {}
        deciders_get = deciders.get
        make_decider = self._decider_for

        block: Optional[BasicBlock] = self.program.entry
        steps = 0
        instructions = 0
        max_steps = self.max_steps

        try:
            while block is not None and steps < max_steps:
                steps += 1
                instructions += block.bundle.count
                decide = deciders_get(block)
                if decide is None:
                    decide = deciders[block] = make_decider(block, stack, ctx)
                if decide.__class__ is tuple:
                    taken, target = decide
                else:
                    taken, target = decide(steps)
                consumer(block, taken, target)
                block = target
        finally:
            self.steps_executed = steps
            self.instructions_executed = instructions
        return steps

    def run_to_list(self) -> list:
        """Materialize the full stream (tests and small programs only)."""
        return list(self.run())
