"""Compile-on-install dispatch tables for the fused fast path.

Installing a region into the code cache is rare; *walking* installed
regions is the hottest loop in the whole system (~3/4 of wall time on
cache-friendly workloads).  This module moves every piece of per-step
work that does not depend on the run's dynamic state out of the walk
loop and into a one-time compilation pass at install time — mirroring
how a Dynamo-style system copies, links and patches cache-resident
code *once* and then executes it without consulting its own tables:

* :class:`BlockInterner` — every basic block is interned to its dense
  ``block_id`` at program load, so all hot lookups index flat lists
  instead of hashing dict keys (residency, deciders, walk tables).
* :class:`TraceWalkTable` / :class:`CFGWalkTable` — an immutable flat
  walk table per installed region: per-position block, instruction
  count, pre-bound branch-decision closure (shared with the
  interpreter, so per-site state never forks), icache offsets, and
  *static-run* metadata — maximal spans of positions whose transfer is
  statically known to advance, which the walker executes in one bound.
* Direct trace→trace **link patching** — whenever a region exit's
  statically-known target is another resident region's entry, the walk
  table slot holds a direct reference to that region's table, so the
  fast path chains region to region without bouncing through
  ``CodeCache.lookup`` or selector dispatch.  Links are patched on
  install (:meth:`DispatchTable.install`) and invalidated on
  eviction/flush (:meth:`DispatchTable.retire`), which keeps
  bounded-cache runs correct: a slot is non-``None`` exactly when the
  region at its target address is resident *right now*.

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

#: Field indices of one CFG walk-table record (a small mutable list so
#: the link slots can be patched in place; see :class:`CFGWalkTable`).
REC_DECIDE = 0
REC_COUNT = 1
REC_STAY = 2
REC_OFFSET = 3
REC_SIZE = 4
REC_LINK_TAKEN = 5
REC_LINK_FALL = 6
REC_DYNAMIC = 7

_DIRECT_TAKEN_KINDS = (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL)


class BlockInterner:
    """Dense integer ids for every block of one finalized program.

    Finalization already stamps each block with a dense ``block_id``
    (layout order); the interner validates that density once and then
    serves as the authority for flat, id-indexed tables.  ``id_of`` /
    ``block_of`` round-trip exactly — the property suite in
    ``tests/test_dispatch.py`` holds the bijection.
    """

    __slots__ = ("program", "blocks", "size")

    def __init__(self, program: Program) -> None:
        blocks = tuple(program.blocks)
        for index, block in enumerate(blocks):
            if block.block_id != index:
                raise CacheError(
                    f"block {block.full_label} carries id {block.block_id} "
                    f"but sits at index {index}; ids must be dense layout "
                    f"order (finalize the program first)"
                )
        self.program = program
        self.blocks = blocks
        self.size = len(blocks)

    def id_of(self, block: BasicBlock) -> int:
        """The block's dense id, verifying it belongs to this program."""
        bid = block.block_id
        if bid is None or bid >= self.size or self.blocks[bid] is not block:
            raise CacheError(
                f"block {block.full_label} is not interned in program "
                f"{self.program.name!r}"
            )
        return bid

    def block_of(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]


class _LinkSite:
    """One patchable link slot: ``container[key]`` holds the walk table
    of the resident region at the slot's exit target (or ``None``)."""

    __slots__ = ("container", "key")

    def __init__(self, container: list, key: int) -> None:
        self.container = container
        self.key = key


class TraceWalkTable:
    """Flat per-position walk table for one installed trace region.

    Parallel tuples indexed by path position; the walker touches no
    region/block attributes per step.  ``run_len[i]`` is the length of
    the maximal *static run* starting at ``i``: consecutive positions
    whose pre-bound decision is a constant ``(taken, target)`` tuple
    that advances to the next path position — the walker consumes the
    whole span in one loop iteration (``run_insts[i]`` instructions)
    and tallies the walked edges via ``run_hits``.

    ``adv``/``cyc``/``run_hits`` accumulate walked-edge counts by
    position; :meth:`fold_edges` folds them into the run's shared edge
    profile once at end of run (the walked edge is fully determined by
    the position, and dict equality does not see insertion order).
    """

    is_trace = True

    __slots__ = (
        "region", "path", "path_len", "path0", "deciders", "counts",
        "offsets", "sizes", "run_len", "run_insts", "dyn_exit",
        "link_taken", "link_fall", "adv", "cyc", "run_hits", "sites",
    )

    def __init__(self, region: Region) -> None:
        self.region = region
        self.path: Tuple[BasicBlock, ...] = tuple(region.path)
        n = len(self.path)
        self.path_len = n
        self.path0 = self.path[0]
        self.counts = tuple(b.bundle.count for b in self.path)
        self.offsets = tuple(region.position_offsets)
        self.sizes = tuple(b.byte_size for b in self.path)
        self.dyn_exit = tuple(
            b.terminator.kind.target_is_dynamic for b in self.path
        )
        self.deciders: List[object] = []
        self.run_len: Tuple[int, ...] = ()
        self.run_insts: Tuple[int, ...] = ()
        self.link_taken: List[Optional[object]] = [None] * n
        self.link_fall: List[Optional[object]] = [None] * n
        self.adv = [0] * n
        self.cyc = [0] * n
        self.run_hits = [0] * n
        #: ``(target block id, site)`` for every link slot this table
        #: registered — unregistered again when the table is retired.
        self.sites: List[Tuple[int, _LinkSite]] = []

    def fold_edges(self, edge_profile: Dict) -> None:
        """Fold the batched walked-edge counts into ``edge_profile``."""
        adv = self.adv
        run_len = self.run_len
        for i, hits in enumerate(self.run_hits):
            if hits:
                for j in range(i, i + run_len[i]):
                    adv[j] += hits
        self.run_hits = [0] * self.path_len
        path = self.path
        get = edge_profile.get
        for i, count in enumerate(adv):
            if count:
                edge = (path[i], path[i + 1])
                edge_profile[edge] = get(edge, 0) + count
        self.adv = [0] * self.path_len
        top = path[0]
        for i, count in enumerate(self.cyc):
            if count:
                edge = (path[i], top)
                edge_profile[edge] = get(edge, 0) + count
        self.cyc = [0] * self.path_len


class CFGWalkTable:
    """Per-block walk records for one installed multi-path region.

    ``records[block]`` is a small list (indexed by the ``REC_*``
    constants): pre-bound decision closure, instruction count, the set
    of targets a *taken* transfer may stay internal on (observed edges
    for dynamic blocks, the whole block set otherwise), icache layout
    offsets, the two patchable link slots, and the dynamic-target flag.
    """

    is_trace = False

    __slots__ = ("region", "entry", "blocks", "records", "entry_record",
                 "sites")

    def __init__(self, region: Region) -> None:
        self.region = region
        self.entry = region.entry
        self.blocks = region.block_set
        self.records: Dict[BasicBlock, list] = {}
        self.entry_record: Optional[list] = None
        self.sites: List[Tuple[int, _LinkSite]] = []


class DispatchTable:
    """The compile-on-install layer between region install and the walk.

    One instance serves one run of the fused fast path: the simulator
    binds it to the code cache before the loop starts, the cache calls
    :meth:`install` / :meth:`retire` as regions come and go, and the
    walker reads ``tables_by_entry`` (a flat list indexed by interned
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
        self.interner = BlockInterner(program)
        self.decider_for = decider_for
        #: Flat residency: entry block id -> walk table of the resident
        #: region entered there, ``None`` when nothing is resident.
        self.tables_by_entry: List[Optional[object]] = (
            [None] * self.interner.size
        )
        #: Every trace table ever compiled this run, for edge folding
        #: (tables of evicted regions keep their walked-edge counts).
        self.trace_tables: List[TraceWalkTable] = []
        self._link_sites: Dict[int, List[_LinkSite]] = {}

    # -- compilation -----------------------------------------------------
    def _register(
        self,
        table,
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

    def compile(self, region: Region):
        """Compile a region into its walk table (no residency change)."""
        if region.is_trace:
            return self._compile_trace(region)
        return self._compile_cfg(region)

    def _compile_trace(self, region: Region) -> TraceWalkTable:
        table = TraceWalkTable(region)
        path = table.path
        n = table.path_len
        decider_for = self.decider_for
        deciders = [decider_for(block) for block in path]
        table.deciders = deciders
        # Static runs: position i advances unconditionally when its
        # decision is a constant tuple whose target is the next path
        # block.  (The last position never advances, so runs never
        # reach past n-1; a span landing there is handled stepwise.)
        counts = table.counts
        run_len = [0] * n
        run_insts = [0] * n
        for i in range(n - 2, -1, -1):
            decide = deciders[i]
            if decide.__class__ is tuple and decide[1] is path[i + 1]:
                run_len[i] = 1 + run_len[i + 1]
                run_insts[i] = counts[i] + run_insts[i + 1]
        table.run_len = tuple(run_len)
        table.run_insts = tuple(run_insts)
        for i, block in enumerate(path):
            term = block.terminator
            kind = term.kind
            if kind.target_is_dynamic:
                continue
            if kind in _DIRECT_TAKEN_KINDS:
                self._register(table, term.taken_target, table.link_taken, i)
            if kind.may_fall_through:
                self._register(table, block.fallthrough, table.link_fall, i)
        self.trace_tables.append(table)
        return table

    def _compile_cfg(self, region: Region) -> CFGWalkTable:
        table = CFGWalkTable(region)
        blocks = region.block_set
        edges = region.edges
        dynamic = region.dynamic_blocks
        offsets = region.block_offsets
        decider_for = self.decider_for
        records = table.records
        for block in region.block_list:
            term = block.terminator
            kind = term.kind
            if block in dynamic:
                # Dynamic transfers stay internal only along observed
                # edges — the inlined target-compare chain.
                stay_taken = frozenset(
                    dst for src, dst in edges if src is block
                )
            else:
                stay_taken = blocks
            record = [
                decider_for(block),
                block.bundle.count,
                stay_taken,
                offsets[block],
                block.byte_size,
                None,
                None,
                kind.target_is_dynamic,
            ]
            records[block] = record
            if not kind.target_is_dynamic:
                if kind in _DIRECT_TAKEN_KINDS:
                    self._register(
                        table, term.taken_target, record, REC_LINK_TAKEN
                    )
                if kind.may_fall_through:
                    self._register(
                        table, block.fallthrough, record, REC_LINK_FALL
                    )
        table.entry_record = records[region.entry]
        return table

    # -- residency and link patching -------------------------------------
    def install(self, region: Region):
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

    def table_for(self, region: Region):
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
