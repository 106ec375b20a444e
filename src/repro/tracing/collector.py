"""High-level trace collection and replay helpers."""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional, Union

from repro.program.cfg import BasicBlock

from repro.execution.engine import ExecutionEngine
from repro.execution.events import Step
from repro.program.program import Program
from repro.tracing.decoder import TraceReader
from repro.tracing.encoder import TraceWriter
from repro.tracing.records import TraceHeader

PathLike = Union[str, "os.PathLike[str]"]


def collect_trace(engine: ExecutionEngine, path: PathLike) -> int:
    """Run ``engine`` to completion, recording its steps to ``path``.

    Returns the number of steps written.  This is the analogue of the
    paper's Pin-based collection pass.
    """
    header = TraceHeader(
        program_name=engine.program.name,
        block_count=engine.program.block_count,
        seed=engine.seed,
    )
    with open(path, "wb") as fh:
        with TraceWriter(fh, header) as writer:
            # Push mode: the engine calls ``writer.write`` per block, so
            # collection allocates no Step objects (bit-identical stream
            # to the reference generator, per the fast-path suite).
            engine.run_into(writer.write)
            return writer.steps_written


def replay_trace(path: PathLike, program: Program) -> Iterator[Step]:
    """Yield the recorded step stream of ``path`` against ``program``."""
    with open(path, "rb") as fh:
        reader = TraceReader(fh, program)
        yield from reader.steps()


def replay_trace_into(
    path: PathLike,
    program: Program,
    consumer: Callable[[BasicBlock, bool, Optional[BasicBlock]], object],
) -> int:
    """Push the recorded stream of ``path`` into ``consumer``.

    The push twin of :func:`replay_trace`: pair it with
    :meth:`Simulator.run_push
    <repro.system.simulator.Simulator.run_push>` to replay a collected
    trace into the reference state machine with no generator
    suspension and no :class:`Step` allocation in the decoder —

    >>> simulator.run_push(
    ...     lambda consume: replay_trace_into(path, program, consume)
    ... )                                                 # doctest: +SKIP

    Returns the number of steps replayed.
    """
    with open(path, "rb") as fh:
        reader = TraceReader(fh, program)
        return reader.steps_into(consumer)


def trace_header(path: PathLike) -> TraceHeader:
    """Read just the header of a trace file (for inventory tooling)."""
    with open(path, "rb") as fh:
        return TraceHeader.decode(fh)
