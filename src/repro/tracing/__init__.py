"""Trace collection and replay: the Pin substitute.

The paper collects basic-block traces of SPECint2000 with Pin and feeds
them to the region-selection simulator.  We provide the same decoupling:

* :func:`~repro.tracing.collector.collect_trace` runs an execution
  engine and writes its step stream to a compact binary ``.rtrc`` file;
* :func:`~repro.tracing.collector.replay_trace` re-yields the identical
  :class:`~repro.execution.Step` stream from the file;
* :func:`~repro.tracing.collector.replay_trace_into` pushes the same
  stream into a ``consumer(block, taken, target)`` callback — the
  allocation-free twin that feeds the simulator's reference state
  machine by push
  (:meth:`Simulator.run_push <repro.system.simulator.Simulator.run_push>`).

Because the simulator accepts any step stream, pulled or pushed,
experiments can be run live (engine → simulator) or in the classic
two-phase style (collect once, replay for every selection algorithm)
with bit-identical results — the property the paper's footnote 4
highlights ("all details of region selection have been abstracted out
of the framework").
"""

from repro.tracing.records import TraceHeader
from repro.tracing.encoder import TraceWriter
from repro.tracing.decoder import TraceReader
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
    "collect_trace",
    "replay_trace",
    "replay_trace_into",
    "trace_header",
    "write_jsonl_trace",
    "read_jsonl_trace",
]
