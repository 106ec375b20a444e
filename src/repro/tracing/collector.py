"""High-level trace collection and replay helpers."""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional, Union

from repro.program.cfg import BasicBlock

from repro.execution.engine import ExecutionEngine
from repro.execution.events import Step
from repro.program.program import Program
from repro.tracing.decoder import TraceSource
from repro.tracing.encoder import TraceWriter
from repro.tracing.records import TraceHeader

PathLike = Union[str, "os.PathLike[str]"]


def collect_trace(engine: ExecutionEngine, path: PathLike) -> int:
    """Run ``engine`` to completion, recording a version-2 trace to
    ``path``.

    Returns the number of steps recorded.  This is the analogue of the
    paper's Pin-based collection pass; the file keeps one direction bit
    per executed conditional and one block id per executed indirect
    target (:mod:`repro.tracing.records`).
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
    """Yield the recorded step stream of ``path`` against ``program``.

    Feeding it to :meth:`Simulator.run
    <repro.system.simulator.Simulator.run>` replays the trace on the
    reference state machine.
    """
    with open(path, "rb") as fh:
        source = TraceSource.read(fh, program)
    yield from source.steps()


def replay_trace_into(
    path: PathLike,
    program: Program,
    consumer: Callable[[BasicBlock, bool, Optional[BasicBlock]], object],
) -> int:
    """Push the recorded stream of ``path`` into ``consumer``.

    The push twin of :func:`replay_trace`.  Paired with
    :meth:`Simulator.run_push <repro.system.simulator.Simulator.run_push>`
    it replays a collected trace with no generator suspension —

    >>> simulator.run_push(
    ...     lambda consume: replay_trace_into(path, program, consume)
    ... )                                                 # doctest: +SKIP

    The trace becomes a :class:`~repro.tracing.decoder.TraceSource`.
    When ``consumer`` is the simulator's ``consume``, the source is
    handed to its ``run_engine`` attribute and the replay runs on the
    fused core; any other consumer is called once per step.  Either way
    the run must consume the trace exactly, or a
    :class:`~repro.errors.TraceFormatError` is raised.

    Returns the number of steps replayed.
    """
    with open(path, "rb") as fh:
        source = TraceSource.read(fh, program)
    run_engine = getattr(consumer, "run_engine", None)
    if run_engine is not None:
        steps = run_engine(source)
    else:
        steps = source.run_into(consumer)
    source.finish(steps)
    return steps


def trace_header(path: PathLike) -> TraceHeader:
    """Read just the header of a trace file (for inventory tooling)."""
    with open(path, "rb") as fh:
        return TraceHeader.decode(fh)
