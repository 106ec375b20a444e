"""Trace collection and replay: the Pin substitute.

The paper collects basic-block traces of SPECint2000 with Pin and feeds
them to the region-selection simulator.  We provide the same decoupling:

* :func:`~repro.tracing.collector.collect_trace` runs an execution
  engine and writes a compact binary ``.rtrc`` file (version 2, in the
  spirit of the paper's Figure 14): one direction bit per executed
  conditional branch and one block id per executed indirect target;
  every other transfer follows from the program and its call stack
  (layout in :mod:`repro.tracing.records`);
* :func:`~repro.tracing.collector.replay_trace` re-yields the identical
  :class:`~repro.execution.Step` stream from the file — fed to
  :meth:`Simulator.run <repro.system.simulator.Simulator.run>`, it
  replays on the reference state machine;
* :func:`~repro.tracing.collector.replay_trace_into` pushes the same
  stream into a ``consumer(block, taken, target)`` callback.  Given
  the ``consume`` of :meth:`Simulator.run_push
  <repro.system.simulator.Simulator.run_push>`, a version-2 trace runs
  on the simulator's fused core instead, as a
  :class:`~repro.tracing.decoder.TraceSource` engine whose decisions
  come from the trace.

Version-1 traces (one record per step) are still read, always through
:meth:`TraceReader.steps <repro.tracing.decoder.TraceReader.steps>` and
the reference state machine.

Because the simulator accepts any step stream, pulled or pushed,
experiments can be run live (engine → simulator) or in the classic
two-phase style (collect once, replay for every selection algorithm)
with bit-identical results — the property the paper's footnote 4
highlights ("all details of region selection have been abstracted out
of the framework").
"""

from repro.tracing.records import TraceHeader
from repro.tracing.encoder import TraceWriter
from repro.tracing.decoder import TraceReader, TraceSource
from repro.tracing.collector import (
    collect_trace,
    replay_trace,
    replay_trace_into,
    trace_header,
)
from repro.tracing.jsonl import read_jsonl_trace, write_jsonl_trace

__all__ = [
    "TraceHeader",
    "TraceWriter",
    "TraceReader",
    "TraceSource",
    "collect_trace",
    "replay_trace",
    "replay_trace_into",
    "trace_header",
    "write_jsonl_trace",
    "read_jsonl_trace",
]
