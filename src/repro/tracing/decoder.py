"""The reader of the binary trace format.

:meth:`TraceSource.read` checks a trace's header against its program
and reads its body (layout in :mod:`repro.tracing.records`).  The
result is a :class:`TraceSource`: an execution engine whose branch
decisions come from the trace instead of the branch models, so the
simulator's fused core can run it like a live engine.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import BinaryIO, Dict, Iterator, Optional

from repro.errors import TraceFormatError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import Step
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.program.program import Program
from repro.tracing.records import COUNTS, TARGET_BYTES, TraceHeader

#: The eight direction bits of every byte value, least significant
#: first, one byte each.
_BYTE_BITS = tuple(
    bytes(value >> bit & 1 for bit in range(8)) for value in range(256)
)


def _ran_out(what: str) -> Iterator[object]:
    """Ends an outcome stream: reading past the last outcome is a
    format error, not ``StopIteration``."""
    raise TraceFormatError(f"the trace has no more {what}")
    yield  # pragma: no cover - makes this a generator


class TraceSource(ExecutionEngine):
    """A trace's decisions, as a single-use execution engine.

    It overrides only :meth:`_decider_for`: a conditional branch takes
    the next recorded direction bit, an indirect jump the next recorded
    target id (one that is not among the site's targets is a
    :class:`~repro.errors.TraceFormatError`).  Every other transfer is
    the live engine's own constant tuple or call-stack closure.  So
    :meth:`Simulator.run_program
    <repro.system.simulator.Simulator.run_program>` runs a replay with
    its loop unchanged, static runs and counted laps included, and
    :meth:`run_into` pushes the recorded stream into any consumer.

    The direction bits are unpacked once, one byte per bit, and read
    through one iterator over them.  Every conditional decider exposes
    the lap protocol of :class:`~repro.cache.dispatch.WalkTable`:
    ``laps(limit)`` skips the run of 1-bits at the bit cursor, up to
    ``limit`` of them and never past the last recorded conditional, and
    returns its length.  In a counted cycle only the latch reads bits,
    so those are its next taken decisions.

    ``max_steps`` is the recorded step count.  After a run,
    :meth:`finish` checks that the walk lasted exactly that long and
    consumed every recorded outcome.  Build one with :meth:`read`.
    """

    @classmethod
    def read(cls, stream: BinaryIO, program: Program) -> "TraceSource":
        """Read the trace in ``stream`` as an engine over ``program``.

        The header must name ``program`` and its block count: replaying
        a trace against the wrong program would produce silently
        nonsensical results otherwise.  The body is read whole and its
        length checked against its counts, so a truncated or overlong
        trace fails before anything runs.
        """
        header = TraceHeader.decode(stream)
        if header.program_name != program.name:
            raise TraceFormatError(
                f"trace was recorded for program {header.program_name!r}, "
                f"not {program.name!r}"
            )
        if header.block_count != program.block_count:
            raise TraceFormatError(
                f"trace expects {header.block_count} blocks but program "
                f"{program.name!r} has {program.block_count}"
            )
        counts = stream.read(COUNTS.size)
        if len(counts) != COUNTS.size:
            raise TraceFormatError("truncated trace counts")
        steps, conditionals, targets = COUNTS.unpack(counts)
        if conditionals + targets > steps:
            raise TraceFormatError(
                f"trace counts {conditionals} conditional outcomes and "
                f"{targets} indirect targets in only {steps} steps"
            )
        bit_bytes = (conditionals + 7) // 8
        expected = bit_bytes + TARGET_BYTES * targets
        body = stream.read()
        if len(body) < expected:
            raise TraceFormatError(
                f"truncated trace body: {len(body)} of {expected} bytes"
            )
        if len(body) > expected:
            raise TraceFormatError(
                f"{len(body) - expected} trailing bytes in trace stream"
            )
        target_ids = array("I", body[bit_bytes:])
        if sys.byteorder == "big":
            target_ids.byteswap()
        return cls(program, header, steps, body[:bit_bytes], conditionals,
                   target_ids)

    def __init__(self, program: Program, header: TraceHeader, steps: int,
                 bits: bytes, conditionals: int, target_ids: array) -> None:
        # Call depth can never exceed the step count, and collection
        # already enforced its own bound.
        super().__init__(program, seed=header.seed, max_steps=steps,
                         max_call_depth=max(1, steps))
        # One byte per direction bit, padding included, read through
        # one iterator: its position is the bit cursor.
        unpacked = b"".join(map(_BYTE_BITS.__getitem__, bits))
        self._bit_stream = bit_stream = iter(unpacked)
        self._bit_count = total = len(unpacked)
        self._conditionals = conditionals
        self._next_bit = chain(
            bit_stream, _ran_out("direction bits")).__next__

        def laps(limit, _find=unpacked.find, _skip=bit_stream.__setstate__,
                 _left=bit_stream.__length_hint__):
            # The run of 1-bits at the cursor, never past the last
            # recorded conditional: that many taken decisions.
            cursor = total - _left()
            stop = min(cursor + limit, conditionals)
            if stop <= cursor:
                return 0
            end = _find(0, cursor, stop)
            if end < 0:
                end = stop
            _skip(end)
            return end - cursor

        self._laps = laps
        self._target_stream = iter(target_ids)
        self._targets = len(target_ids)
        self._next_target = chain(
            self._target_stream, _ran_out("indirect targets")).__next__

    def _decider_for(self, block: BasicBlock, stack, ctx):
        term = block.terminator
        kind = term.kind
        if kind is BranchKind.COND:

            def decide_recorded(step, _bit=self._next_bit,
                                _taken=(True, term.taken_target),
                                _fall=(False, block.fallthrough)):
                return _taken if _bit() else _fall

            decide_recorded.laps = self._laps
            return decide_recorded
        if kind is BranchKind.INDIRECT:
            results: Dict[int, tuple] = {
                target.block_id: (True, target)
                for target in term.indirect_targets
            }

            def decide_recorded_target(step, _next=self._next_target,
                                       _results=results, _site=block):
                target_id = _next()
                try:
                    return _results[target_id]
                except KeyError:
                    raise TraceFormatError(
                        f"recorded indirect target id {target_id} is not "
                        f"a target of {_site.full_label}"
                    ) from None

            return decide_recorded_target
        return super()._decider_for(block, stack, ctx)

    def steps(self) -> Iterator[Step]:
        """Yield the recorded run as :class:`Step` objects (the pull
        face), then :meth:`finish`."""
        stack, ctx = self._push_state()
        deciders: Dict[BasicBlock, object] = {}
        block: Optional[BasicBlock] = self.program.entry
        count = 0
        while block is not None and count < self.max_steps:
            count += 1
            decide = deciders.get(block)
            if decide is None:
                decide = deciders[block] = self._decider_for(block, stack, ctx)
            if decide.__class__ is tuple:
                taken, target = decide
            else:
                taken, target = decide(count)
            yield Step(block, taken, target)
            block = target
        self.finish(count)

    def finish(self, steps: int) -> None:
        """Check that a run of ``steps`` steps replayed the trace exactly."""
        if steps != self.max_steps:
            raise TraceFormatError(
                f"the trace records {self.max_steps} steps but the program "
                f"ended after {steps}"
            )
        used_bits = self._bit_count - self._bit_stream.__length_hint__()
        used_targets = self._targets - sum(1 for _ in self._target_stream)
        if used_bits != self._conditionals or used_targets != self._targets:
            raise TraceFormatError(
                f"the replay used {used_bits} of {self._conditionals} "
                f"direction bits and {used_targets} of {self._targets} "
                f"indirect targets"
            )
