"""Related-work trace selectors (Section 5): Mojo, BOA, Wiggins/Redstone.

The paper surveys three other trace-selection algorithms and argues the
problems of separation and duplication "apply as much to these
trace-selection algorithms as to NET".  Implementing them makes that
claim testable here:

* :class:`MojoSelector` — NET with a *lower* threshold for trace-exit
  targets than for backward-branch targets, reducing the delay before a
  related trace is selected (less separation in time, but the traces
  are still optimized apart).
* :class:`BOASelector` — IBM's Binary-translated Optimization
  Architecture: count executions of potential entry points; after 15,
  grow a trace *statically* by following, at each conditional branch,
  the direction taken most often so far.
* :class:`WigginsRedstoneSelector` — Compaq's sampling-based selector:
  periodically sample the interpreted "program counter"; for a sampled
  block, instrument branch directions for a window, then grow the
  most-frequent path from the sample point.

All three profile *more* than NET (per-branch direction counts or
sampling machinery) to pick the trace body; none can span an
interprocedural cycle or merge multiple paths, which is exactly the
paper's point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cache.codecache import CodeCache
from repro.cache.region import Region, TraceRegion
from repro.config import SystemConfig
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.selection.base import RegionSelector
from repro.selection.counters import CounterTable
from repro.selection.net import NETSelector


class MojoSelector(NETSelector):
    """NET with Mojo's split thresholds (Section 5).

    "One main difference is that it uses one threshold for
    backward-branch targets and a lower threshold for trace exits.  The
    authors claim that this lower threshold reduces the impact of the
    rare case where the next-executing trace is a cold path" — and, in
    the paper's analysis, it also reduces the *time* separation between
    related hot traces, though they still cannot be optimized together.
    """

    name = "mojo"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        super().__init__(cache, config)
        #: Targets that became eligible via a cache exit (these use the
        #: lower threshold).
        self._exit_targets: Set[BasicBlock] = set()

    def on_cache_exit(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        region: Region,
    ) -> None:
        if target is not None:
            self._exit_targets.add(target)
        super().on_cache_exit(block, taken, target, region)

    def _bump(self, target: BasicBlock) -> None:
        threshold = (
            self.config.mojo_exit_threshold
            if target in self._exit_targets
            else self.config.net_threshold
        )
        if self.counters.increment(target) >= threshold:
            self.counters.release(target)
            self._eligible.discard(target)
            self._exit_targets.discard(target)
            self._start_recording(target)


class _DirectionProfile:
    """Per-conditional taken/fall-through counts (BOA / W-R substrate)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[BasicBlock, List[int]] = {}

    def observe(self, block: BasicBlock, taken: bool) -> None:
        if block.terminator.kind is BranchKind.COND:
            counts = self._counts.get(block)
            if counts is None:
                counts = self._counts[block] = [0, 0]
            counts[0 if taken else 1] += 1

    def likely_next(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The statically-likelier successor, or None to end the trace."""
        term = block.terminator
        kind = term.kind
        if kind is BranchKind.COND:
            counts = self._counts.get(block, (0, 0))
            if counts[0] >= counts[1]:
                return term.taken_target
            return block.fallthrough
        if kind in (BranchKind.JUMP, BranchKind.CALL):
            return term.taken_target
        if kind is BranchKind.FALLTHROUGH:
            return block.fallthrough
        return None  # returns and indirect jumps end the trace

    @property
    def profiled_branches(self) -> int:
        return len(self._counts)


def grow_biased_trace(
    start: BasicBlock,
    profile: _DirectionProfile,
    cache: CodeCache,
    config: SystemConfig,
) -> TraceRegion:
    """Grow a trace from ``start`` following the profiled directions.

    Stops at a block already in the path (cycle), an existing region
    entry, an un-followable transfer, or the size limit — the common
    construction both BOA and Wiggins/Redstone use once their profiling
    has chosen directions.
    """
    path = [start]
    in_path = {start}
    instructions = start.instruction_count
    block = start
    final_target: Optional[BasicBlock] = None
    while True:
        nxt = profile.likely_next(block)
        if nxt is None:
            break
        if nxt in in_path:
            final_target = nxt
            break
        if cache.contains_entry(nxt):
            final_target = nxt
            break
        if (len(path) >= config.max_trace_blocks
                or instructions + nxt.instruction_count
                > config.max_trace_instructions):
            break
        path.append(nxt)
        in_path.add(nxt)
        instructions += nxt.instruction_count
        block = nxt
    return TraceRegion(path, final_target)


class BOASelector(RegionSelector):
    """BOA's counted, biased-direction trace selection (Section 5).

    "BOA maintains counts for each conditional branch that indicate how
    many times each target is taken.  After the entry point to an
    instruction sequence is emulated 15 times, a trace is selected by
    following the target of each conditional branch with the highest
    count."
    """

    name = "boa"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        super().__init__(cache, config)
        self.counters: CounterTable[BasicBlock] = CounterTable()
        self.profile = _DirectionProfile()
        self.traces_installed = 0

    def observe_interpreted(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        self.profile.observe(block, taken)

    def on_interpreted_taken(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> Optional[Region]:
        if target is None:
            return None
        if self.counters.increment(target) < self.config.boa_threshold:
            return None
        self.counters.release(target)
        if self.cache.contains_entry(target):
            return None
        self.cache.insert(
            grow_biased_trace(target, self.profile, self.cache, self.config)
        )
        self.traces_installed += 1
        return None

    @property
    def peak_counters(self) -> int:
        # BOA pays counters for entry points *and* two counts per
        # conditional branch — the heavier profiling Section 5 notes.
        return self.counters.peak + 2 * self.profile.profiled_branches

    def diagnostics(self) -> dict:
        return {
            "traces_installed": self.traces_installed,
            "profiled_branches": self.profile.profiled_branches,
        }


class WigginsRedstoneSelector(RegionSelector):
    """Wiggins/Redstone's sample-then-instrument selection (Section 5).

    "To identify the beginning of a trace, the program counter is
    periodically sampled.  From a starting instruction, a trace is
    selected by adding instrumentation code that determines the most
    frequent target of each selected branch."

    Model: every ``sampling_period`` interpreted steps the current block
    is sampled as a candidate; branch directions are then instrumented
    for ``sampling_window`` further interpreted steps, after which the
    most-frequent path from the candidate is selected.  One candidate is
    in flight at a time (the sampler is a single hardware facility).
    """

    name = "wiggins"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        super().__init__(cache, config)
        self.profile = _DirectionProfile()
        self._interpreted_steps = 0
        self._candidate: Optional[BasicBlock] = None
        self._window_remaining = 0
        self.traces_installed = 0
        self.samples_taken = 0
        self.samples_discarded = 0
        #: High-water mark of instrumentation state, reported as this
        #: selector's "counter" cost.
        self._peak_profiled = 0

    def observe_interpreted(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        self._interpreted_steps += 1
        if self._candidate is not None:
            self.profile.observe(block, taken)
            self._peak_profiled = max(
                self._peak_profiled, 2 * self.profile.profiled_branches
            )
            self._window_remaining -= 1
            if self._window_remaining <= 0:
                self._finish_window()
        elif self._interpreted_steps % self.config.sampling_period == 0:
            # Sample the "program counter": the block executing now.
            self.samples_taken += 1
            if self.cache.contains_entry(block):
                self.samples_discarded += 1
            else:
                self._candidate = block
                self._window_remaining = self.config.sampling_window

    def _finish_window(self) -> None:
        candidate = self._candidate
        self._candidate = None
        assert candidate is not None
        if self.cache.contains_entry(candidate):
            self.samples_discarded += 1
            return
        self.cache.insert(
            grow_biased_trace(candidate, self.profile, self.cache, self.config)
        )
        self.traces_installed += 1

    def on_interpreted_taken(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> Optional[Region]:
        return None  # all work happens in observe_interpreted

    def finish(self) -> None:
        self._candidate = None

    @property
    def peak_counters(self) -> int:
        return self._peak_profiled

    def diagnostics(self) -> dict:
        return {
            "traces_installed": self.traces_installed,
            "samples_taken": self.samples_taken,
            "samples_discarded": self.samples_discarded,
        }
