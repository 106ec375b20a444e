"""Compile-on-install dispatch tables for the fused fast path.

Installing a region into the code cache is rare; *walking* installed
regions is the hottest loop in the whole system (~3/4 of wall time on
cache-friendly workloads).  This module moves every piece of per-step
work that does not depend on the run's dynamic state out of the walk
loop and into a one-time compilation pass at install time — mirroring
how a Dynamo-style system copies, links and patches cache-resident
code *once* and then executes it without consulting its own tables:

* Dense block ids — finalizing a program numbers its blocks in layout
  order (``BasicBlock.block_id``), so all hot lookups index flat lists
  instead of hashing dict keys (residency, deciders, walk tables).
* :class:`WalkTable` — one immutable, position-indexed walk table per
  installed region of either kind (a trace's path positions, a CFG
  region's blocks in address order): per position the pre-bound
  branch-decision closure (shared with the interpreter, so per-site
  state never forks), instruction count, icache offset and size, the
  position a taken or fall-through transfer stays on (the region's own
  stay rule, evaluated once), a target map for returns and indirect
  jumps, *static runs* — chains of constant decisions the walker
  executes in one bound — and the *counted latch* of a cycle back to
  the entry, whose laps the walker runs in one bound.
* Direct region→region **link patching** — whenever a region exit's
  statically-known target is another resident region's entry, the walk
  table slot holds a direct reference to that region's table, so the
  fast path chains region to region without bouncing through
  ``CodeCache.lookup`` or selector dispatch, and without leaving its
  walk loop.  Links are patched on install
  (:meth:`DispatchTable.install`) and invalidated on eviction/flush
  (:meth:`DispatchTable.retire`), which keeps bounded-cache runs
  correct: a slot is non-``None`` exactly when the region at its target
  address is resident *right now*.

The tables are semantics-free: every decision they encode replicates
the reference state machine bit for bit (``tests/test_fast_path.py``
holds the fused loop equal to it), and the link metrics of
:mod:`repro.metrics.linking` agree between the patched fast path and
the reference (``tests/test_fast_path.py::TestLinkingIdentity``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.region import Region
from repro.errors import CacheError
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.program.program import Program

#: ``next_taken`` of a position whose target is dynamic (a return or an
#: indirect jump): where it stays is looked up in ``targets``.
DYNAMIC = -2

_DIRECT_TAKEN_KINDS = (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL)


class _LinkSite:
    """One patchable link slot: ``container[key]`` holds the walk table
    of the resident region at the slot's exit target (or ``None``)."""

    __slots__ = ("container", "key")

    def __init__(self, container: list, key: int) -> None:
        self.container = container
        self.key = key


class WalkTable:
    """Flat position-indexed walk table for one installed region.

    A trace's positions are its path positions, entered at 0; a CFG
    region's are its blocks in address order, entered at ``entry_pos``.
    Parallel sequences indexed by position, so the walker touches no
    region or block attributes per step:

    * ``next_taken[i]`` / ``next_fall[i]`` — the position a taken or a
      fall-through transfer out of ``i`` stays on, ``-1`` when it
      leaves (``TraceRegion.position_after`` and
      ``CFGRegion.stays_internal``, evaluated at compile time on the
      block's static targets).  A return or indirect jump has
      ``next_taken[i] == DYNAMIC`` and a map in ``targets[i]``: target
      block -> ``[position, walked count]``, holding only the targets
      that stay (a trace's next path block and top, a CFG region's
      observed edges);
    * ``run_len[i]`` — the length of the *static run* from ``i``: the
      chain of positions whose decision is a constant ``(taken,
      target)`` tuple that stays, never moving onto the entry (cycles
      that avoid the entry are cut at compile time).  The walker
      consumes the whole chain in one loop iteration (``run_insts[i]``
      instructions, landing on ``run_end[i]``) and tallies it in
      ``run_hits``;
    * ``link_taken[i]`` / ``link_fall[i]`` — the patchable link slots of
      the two static exits.  The walker takes a patched one without
      leaving its loop: it binds the linked table's ``walk_locals`` in
      one tuple unpack;
    * ``latch`` — the *counted latch*, or ``-1``: a position whose
      decider exposes ``laps(limit)``, whose taken transfer stays on the
      entry, and which the entry's static run lands on (or which is the
      entry).  One lap of its cycle is the entry's run plus the latch:
      ``cycle_len`` steps, ``cycle_insts`` instructions.  Between two
      latch decisions only the entry's static run executes, and it
      decides nothing, so the latch's next decisions are its own:
      ``laps(limit)`` takes up to ``limit`` further taken decisions at
      once and returns how many it took, and :meth:`run_laps` walks
      that many laps in one bound.  A live ``LoopTrip`` latch takes
      them off its remaining count
      (:meth:`ExecutionEngine._decider_for
      <repro.execution.engine.ExecutionEngine._decider_for>`), a
      replay's conditional latch off the run of 1-bits at the trace's
      bit cursor (:class:`~repro.tracing.decoder.TraceSource`).

    ``taken_hits`` / ``fall_hits`` (and the ``targets`` slots) count
    the edges walked out of each position by direction, whether the
    transfer stayed or left through a link slot; :meth:`fold_edges`
    folds them into the run's shared edge profile once at the end of
    the run (a static transfer's edge is fully determined by its
    position and direction, and dict equality does not see insertion
    order).
    """

    __slots__ = (
        "region", "blocks", "entry_pos", "deciders", "counts", "offsets",
        "sizes", "next_taken", "next_fall", "targets", "run_len", "run_end",
        "run_insts", "run_hits", "taken_hits", "fall_hits", "link_taken",
        "link_fall", "sites", "latch", "latch_laps", "cycle_len",
        "cycle_insts", "walk_locals",
    )

    def __init__(
        self,
        region: Region,
        decider_for: Callable[[BasicBlock], object],
    ) -> None:
        self.region = region
        if region.is_trace:
            blocks = region.path
            self.entry_pos = 0
            offsets = region.position_offsets

            def stays_on(pos, taken, target):
                nxt = region.position_after(pos, taken, target)
                return -1 if nxt is None else nxt
        else:
            blocks = tuple(region.block_list)
            position = {block: pos for pos, block in enumerate(blocks)}
            self.entry_pos = position[region.entry]
            offsets = tuple(region.block_offsets[b] for b in blocks)
            observed: Dict[BasicBlock, List[BasicBlock]] = {}
            for src, dst in region.edges:
                observed.setdefault(src, []).append(dst)

            def stays_on(pos, taken, target):
                if region.stays_internal(blocks[pos], taken, target):
                    return position[target]
                return -1
        n = len(blocks)
        self.blocks: Tuple[BasicBlock, ...] = blocks
        self.deciders = [decider_for(block) for block in blocks]
        self.counts = tuple(b.bundle.count for b in blocks)
        self.offsets = offsets
        self.sizes = tuple(b.byte_size for b in blocks)
        next_taken = [-1] * n
        next_fall = [-1] * n
        targets: List[Optional[Dict[BasicBlock, list]]] = [None] * n
        for pos, block in enumerate(blocks):
            kind = block.terminator.kind
            if kind.target_is_dynamic:
                # Every target that can stay: a trace's next path block
                # and top, a CFG region's observed edges.
                if region.is_trace:
                    candidates = blocks[pos + 1:pos + 2] + blocks[:1]
                else:
                    candidates = observed.get(block, ())
                next_taken[pos] = DYNAMIC
                slots = {}
                for target in candidates:
                    stay = stays_on(pos, True, target)
                    if stay >= 0:
                        slots[target] = [stay, 0]
                targets[pos] = slots
                continue
            if kind in _DIRECT_TAKEN_KINDS:
                next_taken[pos] = stays_on(
                    pos, True, block.terminator.taken_target)
            if kind.may_fall_through:
                next_fall[pos] = stays_on(pos, False, block.fallthrough)
        self.next_taken = tuple(next_taken)
        self.next_fall = tuple(next_fall)
        self.targets = tuple(targets)
        self._compile_runs()
        self._mark_counted_latch()
        self.taken_hits = [0] * n
        self.fall_hits = [0] * n
        self.link_taken: List[Optional[WalkTable]] = [None] * n
        self.link_fall: List[Optional[WalkTable]] = [None] * n
        #: ``(target block id, site)`` for every link slot this table
        #: registered — unregistered again when the table is retired.
        self.sites: List[Tuple[int, _LinkSite]] = []
        #: What the walker binds to locals when it starts walking this
        #: table.  The hit lists are zeroed in place, never replaced.
        self.walk_locals = (
            region, self.entry_pos, self.deciders, self.counts,
            self.next_taken, self.next_fall, self.taken_hits,
            self.fall_hits, self.run_len, self.run_end, self.run_insts,
            self.run_hits,
        )

    def _mark_counted_latch(self) -> None:
        """Find the counted latch, the one position the entry's static
        run lands on (the entry itself when that run is empty)."""
        entry_pos = self.entry_pos
        latch = self.run_end[entry_pos]
        laps = getattr(self.deciders[latch], "laps", None)
        if laps is None or self.next_taken[latch] != entry_pos:
            self.latch = -1
            self.latch_laps = None
            self.cycle_len = self.cycle_insts = 0
            return
        self.latch = latch
        self.latch_laps = laps
        self.cycle_len = self.run_len[entry_pos] + 1
        self.cycle_insts = self.run_insts[entry_pos] + self.counts[latch]

    def _compile_runs(self) -> None:
        """Chain the constant decisions into static runs, cutting any
        cycle where the chain would revisit one of its positions."""
        n = len(self.blocks)
        entry_pos = self.entry_pos
        step = [-1] * n  # where a constant decision stays, never the entry
        for pos, decide in enumerate(self.deciders):
            if decide.__class__ is tuple:
                stay = (self.next_taken if decide[0] else self.next_fall)[pos]
                if stay >= 0 and stay != entry_pos:
                    step[pos] = stay
        counts = self.counts
        run_len = [0] * n
        run_end = list(range(n))
        run_insts = [0] * n
        done = [False] * n
        for start in range(n):
            chain = []
            pos = start
            while pos >= 0 and not done[pos]:
                done[pos] = True
                chain.append(pos)
                pos = step[pos]
            if pos >= 0 and pos in chain:
                # A cycle: its last position steps back onto it and the
                # run stops there.
                last = chain.pop()
                run_len[last] = 1
                run_end[last] = pos
                run_insts[last] = counts[last]
            for pos in reversed(chain):
                stay = step[pos]
                if stay >= 0:
                    run_len[pos] = 1 + run_len[stay]
                    run_end[pos] = run_end[stay] if run_len[stay] else stay
                    run_insts[pos] = counts[pos] + run_insts[stay]
        self.run_len = tuple(run_len)
        self.run_end = tuple(run_end)
        self.run_insts = tuple(run_insts)
        self.run_hits = [0] * n

    def advance(self, pos: int, span: int, hits: int = 1) -> Tuple[int, int]:
        """Walk ``span`` steps of the static run from ``pos``, counting
        ``hits`` walks of each edge; returns the landing position and
        the steps' instruction count."""
        deciders = self.deciders
        counts = self.counts
        insts = 0
        for _ in range(span):
            insts += counts[pos]
            if deciders[pos][0]:
                self.taken_hits[pos] += hits
                pos = self.next_taken[pos]
            else:
                self.fall_hits[pos] += hits
                pos = self.next_fall[pos]
        return pos, insts

    def run_laps(self, budget: int) -> Tuple[int, int]:
        """Walk every further lap of the counted cycle that the latch
        takes within a budget of ``budget`` steps, right after the walk
        moved onto the entry from the latch; returns the steps and
        instructions walked.  The latch keeps the decision that ends
        the laps for itself."""
        laps = self.latch_laps(budget // self.cycle_len)
        if not laps:
            return 0, 0
        self.taken_hits[self.latch] += laps
        # An empty entry run (the latch is the entry) unfolds to nothing.
        self.run_hits[self.entry_pos] += laps
        self.region.cycle_backs += laps
        return laps * self.cycle_len, laps * self.cycle_insts

    def fold_edges(self, edge_profile: Dict) -> None:
        """Fold the batched walked-edge counts into ``edge_profile``."""
        run_len = self.run_len
        run_hits = self.run_hits
        for pos, hits in enumerate(run_hits):
            if hits:
                self.advance(pos, run_len[pos], hits)
                run_hits[pos] = 0
        get = edge_profile.get
        taken_hits = self.taken_hits
        fall_hits = self.fall_hits
        for pos, block in enumerate(self.blocks):
            # A static transfer goes to its static target, whether it
            # stayed or left through a link slot.
            count = taken_hits[pos]
            if count:
                edge = (block, block.terminator.taken_target)
                edge_profile[edge] = get(edge, 0) + count
                taken_hits[pos] = 0
            count = fall_hits[pos]
            if count:
                edge = (block, block.fallthrough)
                edge_profile[edge] = get(edge, 0) + count
                fall_hits[pos] = 0
            slots = self.targets[pos]
            if slots:
                for target, slot in slots.items():
                    if slot[1]:
                        edge = (block, target)
                        edge_profile[edge] = get(edge, 0) + slot[1]
                        slot[1] = 0


class DispatchTable:
    """The compile-on-install layer between region install and the walk.

    One instance serves one run of the fused fast path: the simulator
    binds it to the code cache before the loop starts, the cache calls
    :meth:`install` / :meth:`retire` as regions come and go, and the
    walker reads ``tables_by_entry`` (a flat list indexed by dense
    block id — the HASH-LOOKUP of Figures 5/13 reduced to one list
    index) plus the per-table link slots.

    ``decider_for`` supplies the pre-bound branch-decision closure for
    a block; it must be shared with the interpreter's dispatch so that
    per-site decision state (loop trip cells, periodic cursors) never
    forks between contexts.
    """

    def __init__(
        self,
        program: Program,
        decider_for: Callable[[BasicBlock], object],
    ) -> None:
        self.decider_for = decider_for
        #: Flat residency: entry block id -> walk table of the resident
        #: region entered there, ``None`` when nothing is resident.
        self.tables_by_entry: List[Optional[WalkTable]] = (
            [None] * len(program.blocks)
        )
        #: Every walk table compiled this run, for edge folding (tables
        #: of evicted regions keep their walked-edge counts).
        self.tables: List[WalkTable] = []
        self._link_sites: Dict[int, List[_LinkSite]] = {}

    # -- compilation -----------------------------------------------------
    def _register(
        self,
        table: WalkTable,
        target: Optional[BasicBlock],
        container: list,
        key: int,
    ) -> None:
        """Wire one link slot: seed it from current residency and keep
        it patched as regions install/retire at ``target``."""
        if target is None:
            return
        tid = target.block_id
        container[key] = self.tables_by_entry[tid]
        site = _LinkSite(container, key)
        self._link_sites.setdefault(tid, []).append(site)
        table.sites.append((tid, site))

    def compile(self, region: Region) -> WalkTable:
        """Compile a region into its walk table (no residency change)."""
        table = WalkTable(region, self.decider_for)
        # Link slots for the static exits: transfers that leave.
        next_taken = table.next_taken
        next_fall = table.next_fall
        for pos, block in enumerate(table.blocks):
            kind = block.terminator.kind
            if kind in _DIRECT_TAKEN_KINDS and next_taken[pos] == -1:
                self._register(table, block.terminator.taken_target,
                               table.link_taken, pos)
            if kind.may_fall_through and next_fall[pos] == -1:
                self._register(table, block.fallthrough, table.link_fall, pos)
        self.tables.append(table)
        return table

    # -- residency and link patching -------------------------------------
    def install(self, region: Region) -> WalkTable:
        """Compile ``region`` and patch every link slot aimed at it."""
        table = self.compile(region)
        entry_id = region.entry.block_id
        self.tables_by_entry[entry_id] = table
        for site in self._link_sites.get(entry_id, ()):
            site.container[site.key] = table
        return table

    def retire(self, region: Region) -> None:
        """Invalidate ``region``'s table: null every link slot aimed at
        its entry and unregister the table's own outgoing slots."""
        entry_id = region.entry.block_id
        table = self.tables_by_entry[entry_id]
        if table is None or table.region is not region:
            return
        self.tables_by_entry[entry_id] = None
        for site in self._link_sites.get(entry_id, ()):
            site.container[site.key] = None
        link_sites = self._link_sites
        for tid, site in table.sites:
            sites = link_sites.get(tid)
            if sites is not None:
                sites.remove(site)
                if not sites:
                    del link_sites[tid]
        table.sites = []

    def table_for(self, region: Region) -> WalkTable:
        """The region's resident table, or a fresh (non-resident)
        compilation — selectors may hand back regions they chose not to
        install, and the walker still needs a table to walk them."""
        table = self.tables_by_entry[region.entry.block_id]
        if table is not None and table.region is region:
            return table
        return self.compile(region)

    # -- verification (tests and debugging) ------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`CacheError` if any link slot dangles.

        Invariant: every registered link slot holds exactly
        ``tables_by_entry[target id]`` — a patched link exists iff the
        region at its target address is resident right now.
        """
        for entry_id, table in enumerate(self.tables_by_entry):
            if table is None:
                continue
            if table.region.entry.block_id != entry_id:
                raise CacheError(
                    f"walk table at entry id {entry_id} belongs to a "
                    f"region entered at block id "
                    f"{table.region.entry.block_id}"
                )
        for tid, sites in self._link_sites.items():
            expected = self.tables_by_entry[tid]
            for site in sites:
                if site.container[site.key] is not expected:
                    raise CacheError(
                        f"dangling link slot for block id {tid}: slot "
                        f"holds {site.container[site.key]!r}, residency "
                        f"says {expected!r}"
                    )
