"""Trace collection and replay: the Pin substitute.

The paper collects basic-block traces of SPECint2000 with Pin and feeds
them to the region-selection simulator.  We provide the same decoupling:

* :func:`~repro.tracing.collector.collect_trace` runs an execution
  engine and writes a compact binary ``.rtrc`` file (in the spirit of
  the paper's Figure 14): one direction bit per executed conditional
  branch and one block id per executed indirect target; every other
  transfer follows from the program and its call stack (layout in
  :mod:`repro.tracing.records`);
* :meth:`TraceSource.read <repro.tracing.decoder.TraceSource.read>`
  checks a trace against its program and reads it as an execution
  engine whose decisions come from the trace;
* :func:`~repro.tracing.collector.replay_trace` re-yields the identical
  :class:`~repro.execution.Step` stream from the file — fed to
  :meth:`Simulator.run <repro.system.simulator.Simulator.run>`, it
  replays on the reference state machine;
* :func:`~repro.tracing.collector.replay_trace_into` pushes the same
  stream into a ``consumer(block, taken, target)`` callback.  Given
  the ``consume`` of :meth:`Simulator.run_push
  <repro.system.simulator.Simulator.run_push>`, the trace's
  ``TraceSource`` runs on the simulator's fused core instead.

A binary trace whose header holds any version but 2 fails with a
:class:`~repro.errors.TraceFormatError`.  JSONL
(:mod:`repro.tracing.jsonl`) is the per-step format for streams from
outside.

Because the simulator accepts any step stream, pulled or pushed,
experiments can be run live (engine → simulator) or in the classic
two-phase style (collect once, replay for every selection algorithm)
with bit-identical results — the property the paper's footnote 4
highlights ("all details of region selection have been abstracted out
of the framework").
"""

from repro.tracing.records import TraceHeader
from repro.tracing.encoder import TraceWriter
from repro.tracing.decoder import TraceSource
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
    "TraceSource",
    "collect_trace",
    "replay_trace",
    "replay_trace_into",
    "trace_header",
    "write_jsonl_trace",
    "read_jsonl_trace",
]
