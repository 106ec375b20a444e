"""Readers for the binary trace format.

:class:`TraceReader` reads either version (see
:mod:`repro.tracing.records`).  A version-1 trace is parsed record by
record into :class:`Step` objects.  A version-2 trace becomes a
:class:`TraceSource`: an execution engine whose branch decisions come
from the trace instead of the branch models, so the simulator's fused
core can run it like a live engine.
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
from repro.tracing.records import (
    COUNTS,
    FLAG_HAS_TARGET,
    FLAG_TAKEN,
    RECORD_HEAD,
    RECORD_TARGET,
    TARGET_BYTES,
    TraceHeader,
)

#: Version-1 read granularity; records are parsed out of chunks this
#: large.
_CHUNK_BYTES = 1 << 20

#: The eight direction bits of every byte value, least significant
#: first.
_BYTE_BITS = tuple(
    tuple(bool(value >> bit & 1) for bit in range(8)) for value in range(256)
)


def _ran_out(what: str) -> Iterator[object]:
    """Ends an outcome stream: reading past the last outcome is a
    format error, not ``StopIteration``."""
    raise TraceFormatError(f"the trace has no more {what}")
    yield  # pragma: no cover - makes this a generator


class TraceReader:
    """Reads a binary trace back against its program.

    The reader checks that the program's name and block count match the
    header — replaying a trace against the wrong program would produce
    silently nonsensical results otherwise.  A version-2 body is read
    whole and its length checked against its counts here, so a
    truncated or overlong trace fails before anything runs.
    """

    def __init__(self, stream: BinaryIO, program: Program) -> None:
        self._stream = stream
        self.header = TraceHeader.decode(stream)
        if self.header.program_name != program.name:
            raise TraceFormatError(
                f"trace was recorded for program {self.header.program_name!r}, "
                f"not {program.name!r}"
            )
        if self.header.block_count != program.block_count:
            raise TraceFormatError(
                f"trace expects {self.header.block_count} blocks but program "
                f"{program.name!r} has {program.block_count}"
            )
        self._program = program
        if self.header.version != 1:
            self._read_body()

    def _read_body(self) -> None:
        counts = self._stream.read(COUNTS.size)
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
        body = self._stream.read()
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
        self._steps = steps
        self._conditionals = conditionals
        self._bits = body[:bit_bytes]
        self._target_ids = target_ids

    def source(self) -> "TraceSource":
        """The version-2 trace as an engine (see :class:`TraceSource`)."""
        if self.header.version == 1:
            raise TraceFormatError(
                "a version-1 trace holds steps, not decisions; read it "
                "with steps()"
            )
        return TraceSource(self._program, self.header, self._steps,
                           self._bits, self._conditionals, self._target_ids)

    def steps(self) -> Iterator[Step]:
        """Yield all recorded steps in order.

        The one parser of version-1 traces; a version-2 trace yields its
        :class:`TraceSource`'s walk.
        """
        if self.header.version == 1:
            return self._records()
        return self.source().steps()

    def _records(self) -> Iterator[Step]:
        blocks = self._program.blocks
        head_size = RECORD_HEAD.size
        target_size = RECORD_TARGET.size
        unpack_head = RECORD_HEAD.unpack_from
        unpack_target = RECORD_TARGET.unpack_from

        buffer = b""
        offset = 0
        while True:
            if offset + head_size > len(buffer):
                chunk = self._stream.read(_CHUNK_BYTES)
                buffer = buffer[offset:] + chunk
                offset = 0
                if len(buffer) < head_size:
                    if buffer:
                        raise TraceFormatError("trailing bytes in trace stream")
                    return
            block_id, flags = unpack_head(buffer, offset)
            offset += head_size
            target = None
            if flags & FLAG_HAS_TARGET:
                if offset + target_size > len(buffer):
                    chunk = self._stream.read(_CHUNK_BYTES)
                    buffer = buffer[offset:] + chunk
                    offset = 0
                    if len(buffer) < target_size:
                        raise TraceFormatError("truncated target record")
                (target_id,) = unpack_target(buffer, offset)
                offset += target_size
                try:
                    target = blocks[target_id]
                except IndexError:
                    raise TraceFormatError(
                        f"target block id {target_id} out of range"
                    ) from None
            try:
                block = blocks[block_id]
            except IndexError:
                raise TraceFormatError(f"block id {block_id} out of range") from None
            yield Step(block, bool(flags & FLAG_TAKEN), target)


class TraceSource(ExecutionEngine):
    """A version-2 trace's decisions, as a single-use execution engine.

    It overrides only :meth:`_decider_for`: a conditional branch takes
    the next recorded direction bit, an indirect jump the next recorded
    target id (one that is not among the site's targets is a
    :class:`~repro.errors.TraceFormatError`).  Every other transfer is
    the live engine's own constant tuple or call-stack closure.  So
    :meth:`Simulator.run_program
    <repro.system.simulator.Simulator.run_program>` runs a replay with
    its loop unchanged, static runs included, and :meth:`run_into`
    pushes the recorded stream into any consumer.

    ``max_steps`` is the recorded step count.  After a run,
    :meth:`finish` checks that the walk lasted exactly that long and
    consumed every recorded outcome.
    """

    def __init__(self, program: Program, header: TraceHeader, steps: int,
                 bits: bytes, conditionals: int, target_ids: array) -> None:
        # Call depth can never exceed the step count, and collection
        # already enforced its own bound.
        super().__init__(program, seed=header.seed, max_steps=steps,
                         max_call_depth=max(1, steps))
        self._bit_stream = chain.from_iterable(
            map(_BYTE_BITS.__getitem__, bits))
        self._bit_count = 8 * len(bits)
        self._conditionals = conditionals
        self._next_bit = chain(
            self._bit_stream, _ran_out("direction bits")).__next__
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
        used_bits = self._bit_count - sum(1 for _ in self._bit_stream)
        used_targets = self._targets - sum(1 for _ in self._target_stream)
        if used_bits != self._conditionals or used_targets != self._targets:
            raise TraceFormatError(
                f"the replay used {used_bits} of {self._conditionals} "
                f"direction bits and {used_targets} of {self._targets} "
                f"indirect targets"
            )
