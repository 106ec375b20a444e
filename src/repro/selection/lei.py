"""Last-Executed Iteration (LEI) trace selection (Section 3, Figs. 5-6).

LEI keeps a history buffer of the most recently interpreted taken
branches.  When a branch target already sits in the buffer, a *cycle*
has just executed and the buffer holds its exact path.  If the cycle
closed with a backward branch — or started right after an exit from the
code cache — the target's counter is bumped, and at the threshold the
cycle's path (the *last executed iteration*) is reconstructed from the
buffer, installed as a trace, and jumped into immediately.

Unlike NET, the reconstruction (FORM-TRACE, Figure 6) walks branches
that may point in any direction, so an LEI trace can span
interprocedural cycles — crossing a call *and* its matching return —
and it stops as soon as the path reaches a block that already starts a
region, even on a fall-through path, which is how LEI avoids
duplicating the first iteration of an inner cycle.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

from repro.cache.codecache import CodeCache
from repro.cache.region import Region, TraceRegion
from repro.program.cfg import BasicBlock
from repro.selection.base import RegionSelector
from repro.selection.counters import CounterTable
from repro.selection.history import BranchHistoryBuffer, HistoryEntry
from repro.config import SystemConfig


class FormedPath(NamedTuple):
    """Result of FORM-TRACE: the block path plus its ending transfer."""

    blocks: Tuple[BasicBlock, ...]
    #: Block the path's final branch targets; equal to ``blocks[0]``
    #: when the path closed its own cycle, some other in-path block for
    #: an inner-cycle closure, an existing region's entry when the walk
    #: stopped there, or ``None`` when cut by a size limit.
    final_target: Optional[BasicBlock]


def form_trace(
    buffer: BranchHistoryBuffer,
    start: BasicBlock,
    old_seq: int,
    cache: CodeCache,
    config: SystemConfig,
) -> Optional[FormedPath]:
    """FORM-TRACE (Figure 6): reconstruct the just-executed cycle.

    Walks the taken branches recorded after ``old_seq``; between
    consecutive branches the executed path is the static fall-through
    chain from the previous branch's target to the next branch's source.
    Returns ``None`` when the buffer does not describe a consistent path
    (possible only after truncation races; counted by the caller).
    """
    blocks: List[BasicBlock] = []
    block_set: Set[BasicBlock] = set()
    instructions = 0
    prev = start
    max_blocks = config.max_trace_blocks
    max_instructions = config.max_trace_instructions

    for branch in buffer.entries_after(old_seq):
        # Copy the fall-through path from `prev` up to the branch source.
        block: Optional[BasicBlock] = prev
        while True:
            if block is None:
                return None  # inconsistent chain; abandon
            if block is not branch.src and not block.terminator.kind.may_fall_through:
                # The chain claims execution fell through a block that
                # always branches: the buffer has a gap (e.g. it was
                # truncated or entries were evicted mid-cycle).
                return None
            if block in block_set:
                # Reached a block already in the path without a branch:
                # close there (set semantics of Figure 6's newTrace).
                return FormedPath(tuple(blocks), block)
            if blocks and cache.contains_entry(block):
                # Figure 6 line 7: stop if the next instruction begins a
                # trace — the path ends just before the existing region.
                return FormedPath(tuple(blocks), block)
            blocks.append(block)
            block_set.add(block)
            instructions += block.instruction_count
            if len(blocks) >= max_blocks or instructions >= max_instructions:
                return FormedPath(tuple(blocks), None)
            if block is branch.src:
                break
            block = block.fallthrough
        # Figure 6 line 12: stop when the branch completes a cycle.
        if branch.target in block_set:
            return FormedPath(tuple(blocks), branch.target)
        prev = branch.target

    # The walk should always end at a cycle-closing branch (the newest
    # entry targets `start`); falling out means the buffer was truncated
    # under us.
    return None


class LEISelector(RegionSelector):
    """The LEI selector (Figure 5's INTERPRETED-BRANCH-TAKEN)."""

    name = "lei"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        super().__init__(cache, config)
        self.buffer = BranchHistoryBuffer(config.history_buffer_size)
        self.counters: CounterTable[BasicBlock] = CounterTable()
        # Hot-path caches: SystemConfig is frozen and both properties
        # derive from it alone, so snapshotting them here is safe (and
        # `trigger_count` dispatches virtually, picking up the combined
        # selector's override).
        self._allow_exit_cycles = config.lei_allow_exit_cycles
        self._trigger_count = self.trigger_count
        # Diagnostics.
        self.traces_installed = 0
        self.formations_abandoned = 0

    @property
    def threshold(self) -> int:
        return self.config.lei_threshold

    @property
    def trigger_count(self) -> int:
        """Counter value at which :meth:`_select_at_threshold` fires.

        Plain LEI selects exactly at the threshold (Figure 5 line 11's
        ``c = T_cyc``).  Combined LEI overrides this to fire on every
        count *above* ``T_start`` (Figure 13 line 7's ``c > T_start``).
        """
        return self.threshold

    # ------------------------------------------------------------------
    def on_interpreted_taken(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        follows_exit: bool = False,
    ) -> Optional[Region]:
        if target is None:
            return None
        # Figure 5 lines 5-8/16: hash lookup, buffer insert, hash
        # update — fused into one call on the per-branch hot path.
        old, _entry = self.buffer.record(block, target, follows_exit)
        if old is None:
            return None
        # Figure 5 line 9: can this cycle begin a trace?  The backward
        # test is the address compare for a taken branch with a target
        # (on-exit transfers may be fall-throughs, hence the explicit
        # ``taken`` check).
        if not (
            (taken and target.address <= block.end_address)
            or (old.follows_exit and self._allow_exit_cycles)
        ):
            return None
        if self.counters.increment(target) < self._trigger_count:  # lines 10-11
            return None
        return self._select_at_threshold(target, old)

    def on_cache_enter(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        # Record the cache-entering branch as a plain history entry (no
        # cycle detection, no counters — Figure 5 would have jumped at
        # line 3).  This keeps the buffer gap-free: a later FORM-TRACE
        # walk that reaches the entered region's head stops there via
        # the existing-region check (Figure 6 line 7) instead of
        # reconstructing a path across the cache stint.
        if target is None:
            return
        self.buffer.record(block, target, follows_exit=False)

    def on_cache_exit(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        region: Region,
    ) -> None:
        # The exiting branch enters the history buffer flagged as
        # following a code-cache exit; a later cycle whose previous
        # occurrence is this entry may then start a trace even if it
        # closes with a forward branch ("grow from an existing trace").
        # Called on the class: a subclass hook for interpreted branches
        # must not see a cache exit.
        LEISelector.on_interpreted_taken(self, block, taken, target, True)

    # ------------------------------------------------------------------
    def _select_at_threshold(
        self, target: BasicBlock, old: HistoryEntry
    ) -> Optional[Region]:
        """Threshold reached: form, install and jump (Figure 5 lines 12-15).

        Overridden by combined LEI, which observes traces instead of
        installing the first one.
        """
        formed = form_trace(self.buffer, target, old.seq, self.cache, self.config)
        self.buffer.truncate_after(old.seq)  # line 13
        self.counters.release(target)  # line 14
        obs = self.obs
        if obs.events_enabled:
            obs.emit(
                "history_cleared",
                self.cache.now,
                target=target.full_label,
                kept_seq=old.seq,
            )
        if formed is None or self.cache.contains_entry(target):
            self.formations_abandoned += 1
            self._reject(
                target,
                "inconsistent_history" if formed is None
                else "entry_already_cached",
            )
            return None
        if formed.final_target is None and obs.events_enabled:
            # FORM-TRACE only returns a targetless path when a size
            # limit cut the walk short.
            obs.emit(
                "trace_truncated",
                self.cache.now,
                entry=target.full_label,
                blocks=len(formed.blocks),
                instructions=sum(b.instruction_count for b in formed.blocks),
            )
        with obs.span("region_build"):
            region = TraceRegion(formed.blocks, formed.final_target)
            self.cache.insert(region)
        self.traces_installed += 1
        return region  # line 15: jump newT

    # ------------------------------------------------------------------
    @property
    def peak_counters(self) -> int:
        return self.counters.peak

    def diagnostics(self) -> dict:
        return {
            "traces_installed": self.traces_installed,
            "formations_abandoned": self.formations_abandoned,
            "counter_allocations": self.counters.allocations,
        }
