"""Next-Executing Tail (NET) trace selection — the baseline (Section 2.1).

NET profiles two kinds of branch targets: targets of taken *backward*
branches (likely loop headers) and targets of *exits from existing
traces*.  When a target's execution counter reaches the threshold
(50 by default), NET records the path executed *next*: the trace grows
along the interpreted path — through fall-throughs and taken forward
branches, across procedure calls and returns — and ends when

* a backward branch is taken (which is also why a NET trace can never
  span an interprocedural cycle: a backward call or return ends it),
* a taken branch targets the start of another trace, or
* the size limit is reached.

Recording is asynchronous with respect to profiling: the recorder
simply watches the interpreted step stream, so several recordings (for
different targets) can be in flight at once.  Executions of a target
that is currently being recorded are ignored — in the real system the
interpreter is busy copying that very path.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.cache.codecache import CodeCache
from repro.cache.region import TraceRegion
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.selection.base import RegionSelector
from repro.selection.counters import CounterTable
from repro.config import SystemConfig


class TraceRecorder:
    """Copies the next-executing path starting at ``head``.

    Fed one interpreted step at a time; reports completion through its
    return value.  ``final_target`` ends up holding the block the
    trace-ending taken branch targets (``None`` when the trace was cut
    by the size limit or the end of the stream), which is what decides
    whether the trace spans a cycle.
    """

    __slots__ = (
        "head", "blocks", "instructions", "final_target", "done", "truncated",
    )

    def __init__(self, head: BasicBlock) -> None:
        self.head = head
        self.blocks: List[BasicBlock] = []
        self.instructions = 0
        self.final_target: Optional[BasicBlock] = None
        self.done = False
        #: True when the recording was cut by a size limit rather than
        #: ended by a trace-ending branch (observability: the
        #: ``trace_truncated`` event).
        self.truncated = False

    def feed(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        cache: CodeCache,
        config: SystemConfig,
    ) -> bool:
        """Consume one interpreted step; return True when recording ends."""
        if not self.blocks and block is not self.head:
            # The stream diverged before the head executed (can only
            # happen if the triggering branch entered the cache after
            # all); abandon the recording.
            self.done = True
            return True
        self.blocks.append(block)
        self.instructions += block.instruction_count

        if target is None:
            # Program ended mid-trace; keep what we have.
            self.done = True
            return True
        if taken:
            backward_ends = target.address <= block.end_address and (
                config.net_stop_at_backward_calls
                or block.terminator.kind not in (BranchKind.CALL, BranchKind.RETURN)
                # Even with the rule relaxed, a branch back to the
                # trace's own head always ends it (the cycle is closed).
                or target is self.head
            )
            if backward_ends or cache.contains_entry(target):
                # Trace ends *with* this block; the branch target tells
                # us whether the trace closed its own cycle.
                self.final_target = target
                self.done = True
                return True
        if (
            len(self.blocks) >= config.max_trace_blocks
            or self.instructions >= config.max_trace_instructions
        ):
            self.final_target = target if taken else None
            self.done = True
            self.truncated = True
            return True
        return False


class NETSelector(RegionSelector):
    """The NET baseline selector."""

    name = "net"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        super().__init__(cache, config)
        self.counters: CounterTable[BasicBlock] = CounterTable()
        #: Targets allowed to begin a region (backward-branch targets
        #: and cache-exit targets seen so far).
        self._eligible: Set[BasicBlock] = set()
        self._recorders: List[TraceRecorder] = []
        self._recording_heads: Set[BasicBlock] = set()
        #: Diagnostics.
        self.traces_installed = 0
        self.recordings_abandoned = 0

    # -- profiling -------------------------------------------------------
    @property
    def threshold(self) -> int:
        return self.config.net_threshold

    def observe_interpreted(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        if not self._recorders:
            return
        still_active: List[TraceRecorder] = []
        for recorder in self._recorders:
            if recorder.feed(block, taken, target, self.cache, self.config):
                self._complete_recording(recorder)
            else:
                still_active.append(recorder)
        self._recorders = still_active

    def on_interpreted_taken(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ):
        if target is None or target in self._recording_heads:
            return None
        # The branch is taken, so the backward test is the address
        # compare alone.
        if target.address <= block.end_address:
            self._eligible.add(target)
        elif target not in self._eligible:
            return None
        self._bump(target)
        return None

    def on_cache_exit(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        region,
    ) -> None:
        if target is None or target in self._recording_heads:
            return
        self._eligible.add(target)
        self._bump(target)

    def _bump(self, target: BasicBlock) -> None:
        """Count one execution of an eligible target."""
        if self.counters.increment(target) >= self.threshold:
            self.counters.release(target)
            self._eligible.discard(target)
            self._start_recording(target)

    # -- trace recording --------------------------------------------------
    def _start_recording(self, head: BasicBlock) -> None:
        self._recording_heads.add(head)
        self._recorders.append(TraceRecorder(head))

    def _complete_recording(self, recorder: TraceRecorder) -> None:
        self._recording_heads.discard(recorder.head)
        obs = self.obs
        if recorder.truncated and obs.events_enabled:
            obs.emit(
                "trace_truncated",
                self.cache.now,
                entry=recorder.head.full_label,
                blocks=len(recorder.blocks),
                instructions=recorder.instructions,
            )
        if not recorder.blocks or self.cache.contains_entry(recorder.head):
            self.recordings_abandoned += 1
            self._reject(
                recorder.head,
                "stream_diverged" if not recorder.blocks
                else "entry_already_cached",
            )
            return
        self._install_trace(recorder)

    def _install_trace(self, recorder: TraceRecorder) -> None:
        """Turn a completed recording into a cached region.

        Separated so the combining subclass can store an observed trace
        instead of installing it.
        """
        with self.obs.span("region_build"):
            self.cache.insert(
                TraceRegion(recorder.blocks, recorder.final_target)
            )
        self.traces_installed += 1

    def finish(self) -> None:
        # In-flight recordings die with the stream; install nothing from
        # them (a real system would have kept running).
        self.recordings_abandoned += len(self._recorders)
        for recorder in self._recorders:
            self._reject(recorder.head, "stream_ended")
        self._recorders.clear()
        self._recording_heads.clear()

    # -- accounting --------------------------------------------------------
    @property
    def peak_counters(self) -> int:
        return self.counters.peak

    def diagnostics(self) -> dict:
        return {
            "traces_installed": self.traces_installed,
            "recordings_abandoned": self.recordings_abandoned,
            "counter_allocations": self.counters.allocations,
        }
