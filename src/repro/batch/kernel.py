"""The fleet kernel: lockstep SoA execution of many simulation lanes.

One :class:`FleetKernel` advances every lane of a fleet (one lane per
grid cell) to completion.  The hot per-lane scalars live in
structure-of-arrays columns indexed by lane slot:

========== ======== =====================================================
column     dtype    meaning
========== ======== =====================================================
l_steps    int64    the lane's step counter (the fused loop's ``steps``)
l_max      int64    the lane's step budget (``max_steps``)
l_walk     int64    instructions walked in the current region stint
l_gpos     int64    global walk-table program counter (arena position)
l_mode     int8     M_SCALAR / M_VEC / M_DONE (see lane lifecycle)
l_cinst    int64    cache instructions banked by vectorized transitions
l_trans    int64    region transitions banked by vectorized transitions
rng_states uint64   the lane's SplitMix64 state word
========== ======== =====================================================

Every lane's installed trace tables are concatenated into a global
*arena*: one row per walk-table position, holding the position's
instruction count, static-run metadata, decision kind and parameters,
and walked-edge counters.  A lane walking a trace is just an index
``l_gpos`` into the arena; a vector round (:meth:`_vector_round`)
advances **all** trace-walking lanes at once — static-run hops, then
one decision each, grouped by decision kind and evaluated with numpy
array ops.  *Linked* region exits — the overwhelming majority on
trace-friendly workloads (10-100x the true cache exits) — also stay
vectorized: the arena mirrors every table's trace-to-trace link slots
as arena-base columns (``a_ltk``/``a_lfl``, kept in sync through
:attr:`~repro.cache.dispatch.DispatchTable.on_link_patch`), so a
linked transition is a fancy-indexed ``l_gpos`` assignment plus
pending-counter updates, folded into the ``Region`` objects before
anything can observe them.  Only genuinely divergent work drops to
per-lane Python — scalar decisions (call/return stack effects,
dynamic targets, unknown branch models) and unlinked exits (selector
callbacks may install/evict regions) — then rejoins the next round.

The kernel is numpy-only.  :func:`repro.batch.fleet.run_fleet` builds
one only when a vector round can run — on the numpy backend, with at
least ``SCALAR_CUTOVER`` live lanes — and runs every other fleet on
the serial fused core instead.  Every decision replicates the fused
reference loop bit for bit — ``tests/test_batch.py`` holds a fleet
lane equal to a serial ``simulate`` run for the same cell.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.batch.backend import (
    K_BERN,
    K_CALL,
    K_CONST,
    K_LOOP,
    K_LOOPJ,
    K_PERIODIC,
    K_RET,
    K_SCALAR,
    M_DONE,
    M_SCALAR,
    M_VEC,
    O_ADV,
    O_CYC,
    O_EXIT,
    numpy_module,
    vector_next_u64,
    vector_random,
)
from repro.batch.lane import Lane
from repro.behavior.models import NeverTaken
from repro.behavior.rng import _MASK64
from repro.cache.dispatch import REC_LINK_FALL, REC_LINK_TAKEN
from repro.errors import ReproError
from repro.isa.opcodes import BranchKind

#: Outcome sentinel for scalar-kind decisions (handled per lane, never
#: matched by the vectorized O_ADV/O_CYC/O_EXIT apply passes).
_O_DEFER = 3

#: Outcome sentinel for a RETURN that leaves the region: the popped
#: target is dynamic, so the exit goes per-lane with the popped id.
_O_RETX = 4

#: Outcome code stamped on every CFG arena position: the transfer's
#: destination is not positional (advance/cycle) but a per-direction
#: precomputed successor (``a_tnext``/``a_fnext``, -1 = leaves the
#: region) — applied by the vector round's CFG pass.
_O_CFG = 5

#: CFG constant-run chain cap — bounds registration cost and keeps one
#: hop's step count small relative to any step budget.
_CFG_RUN_CAP = 256

#: Default interp/CFG steps granted per lane per kernel round.  Large
#: enough to amortize the per-round bookkeeping across the fleet,
#: small enough that interpreting lanes rejoin the vector rounds
#: promptly after a region install.
DEFAULT_QUOTA = 512

#: Below this many trace-walking lanes, a vector round's fixed numpy
#: overhead exceeds per-lane Python stepping — the run loop falls back
#: to :meth:`Lane.run_trace_scalar` so a fleet's last stragglers do
#: not pay array-dispatch cost per simulated step.  48 is empirical:
#: sweeps over chain, SPEC and mixed fleets put the crossover between
#: ~24 (homogeneous, run-dominated tables) and ~96 (divergent mixed
#: fleets); 48 is within noise of the best setting for each shape.
#: :func:`repro.batch.fleet.vector_rounds_possible` reads it too: a
#: fleet narrower than this could never sweep a vector round, so it
#: runs on the fused core and no kernel is built.
SCALAR_CUTOVER = 48

#: Vector iterations per round.  Active lanes advance up to this many
#: hop-and-decide cycles before the round's Python complement runs;
#: lanes whose next action needs Python (budget exhaustion, scalar-kind
#: decisions, unlinked exits) drop out of the active set and wait.
#: Iterating inside the round amortizes the fixed cost of a numpy
#: sweep — a few dozen small array kernels — over several decisions
#: per lane instead of exactly one.
VEC_ITERS = 8

#: Lane-compaction cadence (in kernel rounds).  Every this-many rounds
#: the kernel checks whether the vector-mode lanes have fragmented —
#: interleaved with scalar/done lanes — and, if so, stably re-sorts
#: the lane slots by int-coded mode so the vector sweeps gather from a
#: dense, cache-friendly index range instead of a scattered one.
COMPACT_EVERY = 16


class FleetKernel:
    """Advance a fleet of lanes to completion over shared SoA state.

    The kernel is a *streaming scheduler*: it holds at most
    ``max_lanes`` live lanes (SoA columns are sized to that), feeds
    them from a cell queue, and re-seeds a slot in place the moment its
    lane settles (:meth:`lane_done` → :meth:`_admit`) so the active set
    stays above ``SCALAR_CUTOVER`` until the queue drains instead of
    decaying into the scalar tail.  Settling is incremental — the
    ``on_settle`` callback receives each finished lane's report, the
    lane object is dropped, and its shared-state footprint (arena
    spans, table indices, link-mirror entries, branch-model site slots,
    its program when no other live lane shares it) is recycled — so
    memory is bounded by ``max_lanes``, not by the total cell count.
    Lanes never interact, so admission order, ``max_lanes`` and refill
    timing are pure scheduling: per-cell results are bit-identical for
    every queue schedule (the hypothesis property suite proves it).
    """

    def __init__(
        self,
        cells,
        program_for: Callable[[str, float], object],
        config,
        max_steps: Optional[int] = None,
        quota: int = DEFAULT_QUOTA,
        compaction: bool = True,
        max_lanes: Optional[int] = None,
        on_error: str = "raise",
        on_settle: Optional[Callable] = None,
        on_admit: Optional[Callable] = None,
    ) -> None:
        self.quota = quota
        #: Lane compaction is a pure scheduling knob (lanes are
        #: independent, so slot order cannot change results) — but it
        #: is toggleable so the property suite can prove exactly that.
        self.compaction = compaction
        self.compactions = 0
        self.rounds = 0
        self.config = config
        self._max_steps = max_steps
        #: Program factory + refcounted cache: lanes of one
        #: (benchmark, scale) key share one immutable ``Program``;
        #: streaming runs release it once no live lane walks it.
        self._program_for = program_for
        self._programs: Dict[Tuple[str, float], list] = {}
        #: Per-program interp constant-decision span tables, keyed by
        #: the stable (benchmark, scale) coordinate — never by
        #: ``id(program)``, which the allocator may recycle once a
        #: streaming run releases a program (see :meth:`interp_spans`).
        self._interp_spans: Dict[Tuple[str, float], tuple] = {}
        #: Lane whose Python-side code is (or was last) executing; the
        #: vector sweeps themselves cannot raise ``ReproError``, so an
        #: escaping error is always attributable to this lane.
        self._err_lane: Optional[Lane] = None
        #: ``on_error="continue"`` contains a lane's ``ReproError``:
        #: the cell settles as failed (the error reaches ``on_settle``)
        #: and its slot refills; the default re-raises, aborting the
        #: fleet like a serial run would abort its cell.
        self.contain_errors = on_error == "continue"
        self.on_settle = on_settle
        self.on_admit = on_admit
        self.settled = 0
        self.active = 0

        cells = tuple(cells)
        total = len(cells)
        self.total = total
        n = total if max_lanes is None else max(1, min(int(max_lanes), total))
        self.max_lanes = n
        #: Streaming = more cells than slots: slots are re-seeded from
        #: the queue as lanes settle, and idle shared state is
        #: recycled aggressively.
        self.streaming = n < total
        self.queue = deque(cells[n:])

        np = numpy_module()
        self._np = np
        self.l_steps = np.zeros(n, dtype=np.int64)
        self.l_max = np.zeros(n, dtype=np.int64)
        self.l_walk = np.zeros(n, dtype=np.int64)
        self.l_gpos = np.zeros(n, dtype=np.int64)
        self.l_mode = np.full(n, M_SCALAR, dtype=np.int8)
        self.l_cinst = np.zeros(n, dtype=np.int64)
        self.l_trans = np.zeros(n, dtype=np.int64)
        self.l_depth = np.zeros(n, dtype=np.int64)
        self.l_dlim = np.zeros(n, dtype=np.int64)
        #: SoA call stack — ``stk[lane, depth]`` holds a pushed return
        #: site's block id; allocated on the first call/return decider
        #: (:meth:`ensure_stack`).
        self.stk = None
        self.rng_states = np.zeros(n, dtype=np.uint64)
        # Branch-model site slots (loop countdowns, periodic cursors)
        # and the flattened periodic patterns, shared between the
        # vector rounds and the lanes' closures.
        self.site = np.zeros(64, dtype=np.int64)
        self.pat_arena = np.zeros(64, dtype=bool)
        self._init_arena(np)
        self._site_len = 0
        #: Site slots of settled lanes, reusable by admitted ones
        #: (zeroed at release — 0 is every model's idle encoding).
        self._site_free: List[int] = []
        #: Periodic patterns interned by value: the arena cells are
        #: write-once and read-only afterwards, so lanes of any cell
        #: mix can share one copy per distinct pattern.
        self._pat_cache: Dict[Tuple[bool, ...], int] = {}

        self.lanes: List[Optional[Lane]] = [None] * n
        self.remaining = total
        for i in range(n):
            self._admit(i, cells[i], initial=True)

    # -- slot lifecycle (admission / settling) -----------------------------
    def _admit(self, idx: int, cell, initial: bool = False) -> None:
        """Seed (or re-seed) slot ``idx`` with a fresh lane for ``cell``.

        Resets every per-lane column the previous occupant may have
        left behind — step counters, walk position, call depth, the
        RNG state word — then builds the lane exactly as construction
        does.  Stale SoA stack entries need no scrub: reads are gated
        on ``l_depth``, which restarts at zero.  Runs inside the round
        loop (from :meth:`lane_done`): the freed slot cannot appear in
        any pending queue (a settling lane was that slot's only
        claimant this round), and mode-index snapshots taken later in
        the round pick the fresh lane up for its first scalar pass.
        """
        program = self._acquire_program(cell)
        self.l_steps[idx] = 0
        self.l_walk[idx] = 0
        self.l_gpos[idx] = 0
        self.l_mode[idx] = M_SCALAR
        self.rng_states[idx] = cell.seed & _MASK64
        self.l_cinst[idx] = 0
        self.l_trans[idx] = 0
        self.l_depth[idx] = 0
        lane = Lane(self, idx, cell, program, self.config, self._max_steps)
        self.l_max[idx] = lane.max_steps
        self.l_dlim[idx] = lane.engine.max_call_depth
        self.lanes[idx] = lane
        self.active += 1
        if self.on_admit is not None:
            self.on_admit(cell, idx, initial)

    def _acquire_program(self, cell):
        key = (cell.benchmark, cell.scale)
        entry = self._programs.get(key)
        if entry is None:
            entry = self._programs[key] = [
                self._program_for(cell.benchmark, cell.scale), 0]
        entry[1] += 1
        return entry[0]

    def _release_program(self, cell) -> None:
        key = (cell.benchmark, cell.scale)
        entry = self._programs.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0 and self.streaming:
            # No live lane walks this program and more cells are
            # queued: drop it so memory tracks the active set.  The
            # interp-span memo goes with it — a later rebuild is a
            # *different* instance, and spans hold block objects of
            # the instance they were built from.
            del self._programs[key]
            self._interp_spans.pop(key, None)

    # -- arena management --------------------------------------------------
    #: ``a_tnext``/``a_fnext`` are CFG-only: the absolute arena
    #: position an internal taken/fall transfer lands on (-1 = the
    #: transfer leaves the region); ``a_tcyc``/``a_fcyc`` flag the
    #: internal transfer that cycles back to the region entry.
    _ARENA_I64 = ("a_cnt", "a_run_len", "a_run_insts", "a_rdst", "a_base",
                  "a_tbl", "a_pi", "a_slot", "a_pat", "a_adv", "a_cyc",
                  "a_run", "a_ltk", "a_lfl", "a_xtk", "a_xfl", "a_tnext",
                  "a_fnext")
    #: ``a_cfg`` flags CFG rows (1) vs trace rows (0) so the round can
    #: split its pending queues by table shape at queue time — the
    #: complement then dispatches each group once instead of
    #: re-deriving the shape per lane.
    _ARENA_I8 = ("a_kind", "a_tcode", "a_fcode", "a_tcyc", "a_fcyc", "a_cfg")
    #: Per-table pending counters (indexed by ``arena_tidx``): vector
    #: rounds bank region-counter updates here instead of touching
    #: ``Region`` objects per transition; :meth:`fold_table_pending`
    #: folds them before anything else can observe the region.
    _TBL_I64 = ("a_tblcyc", "t_ec", "t_xc", "t_insts")

    def _init_arena(self, np, cap: int = 256) -> None:
        for name in self._ARENA_I64:
            setattr(self, name, np.zeros(cap, dtype=np.int64))
        for name in self._ARENA_I8:
            setattr(self, name, np.zeros(cap, dtype=np.int8))
        self.a_pf = np.zeros(cap, dtype=np.float64)
        for name in self._TBL_I64:
            setattr(self, name, np.zeros(64, dtype=np.int64))
        self._arena_len = 0
        self._arena_cap = cap
        self._table_count = 0
        #: ``arena_tidx -> {row_offset: ((row, taken), ...)}`` — a CFG
        #: table's constant-decision runs, for expanding the banked
        #: ``a_run`` hit counts into walked edges at transfer time.
        self._cfg_run_edges: Dict[int, dict] = {}
        #: Walk tables (trace and CFG) by ``arena_tidx`` — lets the
        #: Python complement derive a lane's current table from
        #: ``a_tbl[l_gpos]`` after vectorized linked transitions moved
        #: it.
        self.tables: List[object] = []
        #: ``id(site container) -> (mode, base)`` — resolves an
        #: ``on_link_patch`` callback's site to its mirror cell in
        #: ``a_ltk``/``a_lfl``.  Mode 0/1: a trace table's
        #: ``link_taken``/``link_fall`` list, ``base`` its arena base
        #: (the site key is the path position).  Mode 2: a CFG record,
        #: ``base`` the record's absolute arena position (the site key
        #: picks the column).  A container is kept alive by its table
        #: while the owning lane lives; when a streamed lane settles,
        #: its entries are dropped (via ``_tbl_link_ids``) *before* the
        #: tables become garbage, so a recycled container id can never
        #: alias a dead mirror cell.
        self._link_cols: Dict[int, Tuple[int, int]] = {}
        #: ``arena_tidx -> [container ids]`` — the ``_link_cols`` keys
        #: each table registered, for exact removal at release.
        self._tbl_link_ids: Dict[int, List[int]] = {}
        #: Recycled arena spans by exact length, and recycled table
        #: indices — settled lanes' tables return their storage here,
        #: pre-zeroed, so a streaming run's arena footprint tracks the
        #: *live* lane set instead of growing with every admission.
        self._span_free: Dict[int, List[int]] = {}
        self._tidx_free: List[int] = []

    @staticmethod
    def _grown(np, array, cap: int):
        fresh = np.zeros(cap, dtype=array.dtype)
        fresh[: array.shape[0]] = array
        return fresh

    def _arena_reserve(self, n: int) -> int:
        # Exact-fit reuse first: spans freed by settled lanes were
        # zeroed at release, so a recycled span is indistinguishable
        # from fresh storage.
        spans = self._span_free.get(n)
        if spans:
            return spans.pop()
        np = self._np
        need = self._arena_len + n
        if need > self._arena_cap:
            cap = self._arena_cap
            while cap < need:
                cap *= 2
            for name in self._ARENA_I64 + self._ARENA_I8 + ("a_pf",):
                setattr(self, name, self._grown(np, getattr(self, name), cap))
            self._arena_cap = cap
        base = self._arena_len
        self._arena_len = need
        return base

    def _alloc_tidx(self, table) -> int:
        """Bind ``table`` to a table index (recycled when available)."""
        free = self._tidx_free
        if free:
            tidx = free.pop()
            self.tables[tidx] = table
            return tidx
        tidx = self._table_count
        self._table_count += 1
        if tidx >= self.a_tblcyc.shape[0]:
            for name in self._TBL_I64:
                setattr(self, name, self._grown(
                    self._np, getattr(self, name),
                    getattr(self, name).shape[0] * 2))
        self.tables.append(table)
        return tidx

    def ensure_stack(self, max_depth: int) -> None:
        """Allocate (or deepen) the SoA call stack for every lane."""
        np = self._np
        n = self.l_steps.shape[0]
        if self.stk is None:
            self.stk = np.zeros((n, max_depth), dtype=np.int32)
        elif self.stk.shape[1] < max_depth:
            fresh = np.zeros((n, max_depth), dtype=np.int32)
            fresh[:, : self.stk.shape[1]] = self.stk
            self.stk = fresh

    def alloc_site(self) -> int:
        """Reserve one zero-initialized branch-model state slot.

        Settled lanes return their slots through ``_site_free`` (zeroed
        at release), so a streaming run's site table is bounded by the
        live lanes' demand, not the total cell count.
        """
        free = self._site_free
        if free:
            return free.pop()
        slot = self._site_len
        self._site_len += 1
        if slot >= self.site.shape[0]:
            self.site = self._grown(self._np, self.site,
                                    self.site.shape[0] * 2)
        return slot

    def alloc_pattern(self, pattern: Tuple[bool, ...]) -> int:
        """Intern a periodic pattern into the flat pattern arena.

        Interned by value: the cells are written once and only ever
        read afterwards, so every lane using the same pattern shares
        one copy — the arena cannot grow with admissions.
        """
        cached = self._pat_cache.get(pattern)
        if cached is not None:
            return cached
        np = self._np
        n = len(pattern)
        base = getattr(self, "_pat_len", 0)
        need = base + n
        cap = self.pat_arena.shape[0]
        if need > cap:
            while cap < need:
                cap *= 2
            self.pat_arena = self._grown(np, self.pat_arena, cap)
        self.pat_arena[base:need] = pattern
        self._pat_len = need
        self._pat_cache[pattern] = base
        return base

    def register_table(self, lane: Lane, table) -> None:
        """Append a freshly compiled trace table to the global arena.

        Called from :class:`~repro.batch.lane.LaneDispatch` on every
        trace compile (install or ``table_for``).  Per position the
        decision kind is classified from the lane's descriptors
        (:meth:`Lane._make_decider`), and the two outcome codes are
        precomputed from the table topology with the reference walker's
        exact check order — advance to the next path position first,
        then taken-cycle-back to the top, else exit.
        """
        n = table.path_len
        base = self._arena_reserve(n)
        tidx = self._alloc_tidx(table)
        table.arena_base = base
        table.arena_tidx = tidx
        table.arena_entry = base
        # Mirror the table's patchable link slots as arena columns so
        # the vector rounds can chase region-to-region links without
        # Python: seed from current residency (compile just wired the
        # slots), then stay in sync through ``on_link_patch``.  Both
        # trace and CFG targets mirror (every compiled table has an
        # arena entry position), so linked transitions never force a
        # lane off the vector path.
        self._link_cols[id(table.link_taken)] = (0, base)
        self._link_cols[id(table.link_fall)] = (1, base)
        self._tbl_link_ids[tidx] = [id(table.link_taken),
                                    id(table.link_fall)]
        a_ltk = self.a_ltk
        a_lfl = self.a_lfl
        for i in range(n):
            lt = table.link_taken[i]
            a_ltk[base + i] = lt.arena_entry if lt is not None else -1
            lf = table.link_fall[i]
            a_lfl[base + i] = lf.arena_entry if lf is not None else -1

        path = table.path
        path0 = table.path0
        deciders = table.deciders
        counts = table.counts
        run_len = table.run_len
        run_insts = table.run_insts
        vec_desc = lane.vec_desc
        a_cnt = self.a_cnt
        a_run_len = self.a_run_len
        a_run_insts = self.a_run_insts
        a_rdst = self.a_rdst
        a_base = self.a_base
        a_tbl = self.a_tbl
        a_kind = self.a_kind
        a_tcode = self.a_tcode
        a_fcode = self.a_fcode
        a_pf = self.a_pf
        a_pi = self.a_pi
        a_slot = self.a_slot
        a_pat = self.a_pat
        for i in range(n):
            j = base + i
            a_cnt[j] = counts[i]
            a_run_len[j] = run_len[i]
            a_run_insts[j] = run_insts[i]
            a_rdst[j] = j + run_len[i]
            a_base[j] = base
            a_tbl[j] = tidx
            nxt = path[i + 1] if i + 1 < n else None
            decide = deciders[i]
            if decide.__class__ is tuple:
                taken, target = decide
                a_kind[j] = K_CONST
                a_pi[j] = 1 if taken else 0
                if nxt is not None and target is nxt:
                    a_tcode[j] = O_ADV
                elif taken and target is path0:
                    a_tcode[j] = O_CYC
                else:
                    a_tcode[j] = O_EXIT
                continue
            desc = vec_desc[path[i].block_id]
            if desc is None:
                a_kind[j] = K_SCALAR
                continue
            kind, pf, pi, slot, pat_base = desc
            a_kind[j] = kind
            a_pf[j] = pf
            a_pi[j] = pi
            a_slot[j] = slot
            a_pat[j] = pat_base
            if kind == K_RET:
                # A RETURN's outcome is decided by comparing the popped
                # block id against per-position topology, not by the
                # tcode/fcode columns: a_pi holds the next path
                # position's id (-1 past the end), a_slot the top's.
                a_pi[j] = nxt.block_id if nxt is not None else -1
                a_slot[j] = path0.block_id
                continue
            term = path[i].terminator
            taken_target = term.taken_target
            fall_target = path[i].fallthrough
            if nxt is not None and taken_target is nxt:
                a_tcode[j] = O_ADV
            elif taken_target is path0:
                a_tcode[j] = O_CYC
            else:
                a_tcode[j] = O_EXIT
            if nxt is not None and fall_target is nxt:
                a_fcode[j] = O_ADV
            else:
                a_fcode[j] = O_EXIT

    def register_cfg_table(self, lane: Lane, table) -> None:
        """Append a freshly compiled CFG table to the global arena.

        One arena row per block, in ``block_list`` order.  CFG rows
        reuse the trace rows' decision kinds (the decision itself does
        not care about region shape) but stamp ``_O_CFG`` as both
        outcome codes: the destination of a CFG transfer is not
        positional but a per-direction precomputed successor —
        ``a_tnext``/``a_fnext`` hold the absolute arena position of an
        *internal* taken/fall target (-1 when the transfer leaves the
        region), replicating the reference walker's stays-internal
        check, and ``a_tcyc``/``a_fcyc`` flag the internal transfer
        that lands on the region entry (a cycle-back).  Dynamic-target
        blocks and RETURNs classify scalar: their successor depends on
        run state (an observed-edge set membership, a popped stack
        frame), so they defer to the lane's own closure.
        """
        block_list = table.block_list
        n = len(block_list)
        base = self._arena_reserve(n)
        tidx = self._alloc_tidx(table)
        table.arena_base = base
        table.arena_tidx = tidx
        table.arena_entry = base + table.entry_pos
        link_ids = self._tbl_link_ids[tidx] = []

        index_of = table.index_of
        blocks = table.blocks
        entry = table.entry
        records = table.records
        vec_desc = lane.vec_desc
        a_cnt = self.a_cnt
        a_base = self.a_base
        a_tbl = self.a_tbl
        a_kind = self.a_kind
        a_tcode = self.a_tcode
        a_fcode = self.a_fcode
        a_pf = self.a_pf
        a_pi = self.a_pi
        a_slot = self.a_slot
        a_pat = self.a_pat
        a_tnext = self.a_tnext
        a_fnext = self.a_fnext
        a_tcyc = self.a_tcyc
        a_fcyc = self.a_fcyc
        a_ltk = self.a_ltk
        a_lfl = self.a_lfl
        a_cfg = self.a_cfg
        for i, block in enumerate(block_list):
            j = base + i
            rec = records[block]
            a_cnt[j] = rec[1]
            a_base[j] = base
            a_tbl[j] = tidx
            a_tnext[j] = -1
            a_fnext[j] = -1
            a_cfg[j] = 1
            lt = rec[REC_LINK_TAKEN]
            a_ltk[j] = lt.arena_entry if lt is not None else -1
            lf = rec[REC_LINK_FALL]
            a_lfl[j] = lf.arena_entry if lf is not None else -1
            if rec[7]:  # REC_DYNAMIC: successor needs the dynamic target
                a_kind[j] = K_SCALAR
                continue
            self._link_cols[id(rec)] = (2, j)
            link_ids.append(id(rec))
            term = block.terminator
            tt = term.taken_target
            if tt is not None and tt in blocks:
                a_tnext[j] = base + index_of[tt]
                if tt is entry:
                    a_tcyc[j] = 1
            fall = block.fallthrough
            if fall is not None and fall in blocks:
                a_fnext[j] = base + index_of[fall]
                if fall is entry:
                    a_fcyc[j] = 1
            decide = rec[0]  # REC_DECIDE
            if decide.__class__ is tuple:
                a_kind[j] = K_CONST
                a_pi[j] = 1 if decide[0] else 0
                a_tcode[j] = _O_CFG
                a_fcode[j] = _O_CFG
                continue
            desc = vec_desc[block.block_id]
            if desc is None or desc[0] == K_RET:
                # K_RET pops a dynamic return site — for a trace the
                # outcome reduces to two id compares against fixed
                # positions, but a CFG's stays-internal check is a set
                # membership over the popped block, so it goes scalar.
                a_kind[j] = K_SCALAR
                continue
            kind, pf, pi, slot, pat_base = desc
            a_kind[j] = kind
            a_pf[j] = pf
            a_pi[j] = pi
            a_slot[j] = slot
            a_pat[j] = pat_base
            a_tcode[j] = _O_CFG
            a_fcode[j] = _O_CFG

        # Second pass: constant-decision chains become static runs, the
        # CFG analogue of a trace's ``run_len`` — a maximal sequence of
        # K_CONST rows whose fixed direction stays internal without
        # cycling back to the entry.  A vector hop consumes the whole
        # chain in one iteration (``a_rdst`` holds the landing row);
        # the walked edges bank as one ``a_run`` hit per chain head and
        # expand at transfer time (``_cfg_run_edges``).  Cycle-back and
        # external edges end a chain *before* the row that takes them,
        # so hops never touch region counters.
        a_run_len = self.a_run_len
        a_run_insts = self.a_run_insts
        a_rdst = self.a_rdst
        run_edges: Dict[int, tuple] = {}
        for i in range(n):
            j = base + i
            if a_kind[j] != K_CONST or a_tcode[j] != _O_CFG:
                continue
            steps = 0
            insts = 0
            edges = []
            row = j
            seen = set()
            while (a_kind[row] == K_CONST and a_tcode[row] == _O_CFG
                   and row not in seen and steps < _CFG_RUN_CAP):
                taken = a_pi[row] != 0
                nxt = a_tnext[row] if taken else a_fnext[row]
                cyc = a_tcyc[row] if taken else a_fcyc[row]
                if nxt < 0 or cyc:
                    break
                seen.add(row)
                steps += 1
                insts += int(a_cnt[row])
                edges.append((int(row - base), bool(taken)))
                row = int(nxt)
            if steps:
                a_run_len[j] = steps
                a_run_insts[j] = insts
                a_rdst[j] = row
                run_edges[i] = tuple(edges)
        if run_edges:
            self._cfg_run_edges[tidx] = run_edges

    def link_patched(self, site, table) -> None:
        """``on_link_patch`` hook: mirror a link-slot patch in the arena.

        Called by a lane's dispatch after every install/retire patch.
        A slot mirrors the linked table's arena *entry* position (trace
        or CFG — both are vector-walkable), -1 when unlinked; the site
        resolves through ``_link_cols``' mode scheme — trace tables
        mirror per path position (the site key), CFG records per
        direction column (the site key picks taken vs fall).
        """
        info = self._link_cols.get(id(site.container))
        if info is None:
            return
        mode, base = info
        mirrored = table.arena_entry if table is not None else -1
        if mode == 2:
            column = self.a_ltk if site.key == REC_LINK_TAKEN else self.a_lfl
            column[base] = mirrored
        else:
            column = self.a_ltk if mode == 0 else self.a_lfl
            column[base + site.key] = mirrored

    def fold_table_pending(self, table) -> None:
        """Fold the table's pending vector counts into its region.

        Vector rounds bank cycle-backs, entries, exits and executed
        instructions in per-table counters instead of touching
        ``Region`` objects; this folds the pending counts into the
        region — called before any selector callback or metric read
        can observe it.
        """
        tidx = table.arena_tidx
        if tidx < 0:
            return
        region = table.region
        pending = int(self.a_tblcyc[tidx])
        if pending:
            region.cycle_backs += pending
            self.a_tblcyc[tidx] = 0
        pending = int(self.t_ec[tidx])
        if pending:
            region.entry_count += pending
            self.t_ec[tidx] = 0
        pending = int(self.t_xc[tidx])
        if pending:
            region.exit_count += pending
            self.t_xc[tidx] = 0
        pending = int(self.t_insts[tidx])
        if pending:
            region.executed_instructions += pending
            self.t_insts[tidx] = 0

    def transfer_arena(self, table, edge_profile: Dict) -> None:
        """Move the table's arena walked-edge counters into its lists.

        The vector rounds count advances, cycle-backs, static-run hits
        and linked-exit departures in arena columns; at lane finish
        those merge into the table's own ``adv``/``cyc``/``run_hits``
        lists (which the scalar paths increment directly) so
        ``fold_edges`` sees the exact total the fused loop would have
        recorded, and the exit edges fold straight into the lane's
        shared ``edge_profile`` (the exit edge is fully determined by
        the position and direction; dict equality does not see
        insertion order).
        """
        base = table.arena_base
        if base < 0:
            return
        np = self._np
        if table.is_trace:
            blocks_seq = table.path
            end = base + table.path_len
            for column, target in (
                (self.a_adv[base:end], table.adv),
                (self.a_cyc[base:end], table.cyc),
                (self.a_run[base:end], table.run_hits),
            ):
                if column.any():
                    for i in np.nonzero(column)[0]:
                        target[int(i)] += int(column[i])
                    column[:] = 0
        else:
            # CFG rows bank every walked edge — internal moves and
            # linked departures alike — in the two direction columns
            # (the walked edge is the same (block, direction-target)
            # pair either way); there are no positional advance/cycle
            # counters to merge.  Constant-run hops bank one ``a_run``
            # hit per chain head instead, expanded here through the
            # chain's recorded edge list.
            blocks_seq = table.block_list
            end = base + len(blocks_seq)
            run_edges = self._cfg_run_edges.get(table.arena_tidx)
            if run_edges:
                column = self.a_run[base:end]
                if column.any():
                    for i in np.nonzero(column)[0]:
                        hits = int(column[i])
                        for row, tk in run_edges[int(i)]:
                            block = blocks_seq[row]
                            edge = (block, block.terminator.taken_target
                                    if tk else block.fallthrough)
                            edge_profile[edge] = (
                                edge_profile.get(edge, 0) + hits)
                    column[:] = 0
        get = edge_profile.get
        column = self.a_xtk[base:end]
        if column.any():
            for i in np.nonzero(column)[0]:
                block = blocks_seq[int(i)]
                edge = (block, block.terminator.taken_target)
                edge_profile[edge] = get(edge, 0) + int(column[i])
            column[:] = 0
        column = self.a_xfl[base:end]
        if column.any():
            for i in np.nonzero(column)[0]:
                block = blocks_seq[int(i)]
                edge = (block, block.fallthrough)
                edge_profile[edge] = get(edge, 0) + int(column[i])
            column[:] = 0

    def lane_done(self, lane: Lane) -> None:
        """Settle a finished lane and refill its slot from the queue.

        Called at the very end of :meth:`Lane._finish` — the lane's
        report and result are built, every banked counter is folded,
        and nothing touches its columns afterwards, so the slot can be
        re-seeded immediately.  Mode-index snapshots taken later in
        the same round pick the fresh lane up for its first scalar
        pass, keeping the vector population wide.
        """
        self.remaining -= 1
        self.settled += 1
        self.active -= 1
        if self.on_settle is not None:
            self.on_settle(lane, None)
        self._release_lane(lane)
        idx = lane.idx
        self.lanes[idx] = None
        if self.queue:
            self._admit(idx, self.queue.popleft())

    def _fail_lane(self, lane: Lane, exc: ReproError) -> None:
        """Contain a lane error (``on_error="continue"``).

        The cell settles as failed — the enriched error reaches
        ``on_settle`` in place of a report — its shared state is
        released (banked counts are discarded, matching the serial
        pipeline, which aborts the cell before reporting), and the
        slot refills so the rest of the fleet streams on.
        """
        exc.with_context(
            benchmark=lane.program.name,
            selector=lane.cell.selector,
            step=lane.cache.now,
        )
        lane.mode = M_DONE
        self.l_mode[lane.idx] = M_DONE
        self.remaining -= 1
        self.settled += 1
        self.active -= 1
        if self.on_settle is not None:
            self.on_settle(lane, exc)
        self._release_lane(lane)
        idx = lane.idx
        self.lanes[idx] = None
        if self.queue:
            self._admit(idx, self.queue.popleft())

    def _release_lane(self, lane: Lane) -> None:
        """Recycle a settled lane's shared-state footprint.

        Branch-model site slots rejoin the free pool (zeroed — 0 is
        every model's idle encoding), the lane's program reference
        drops (streaming runs release idle programs entirely), and
        every table the lane compiled — resident or long evicted —
        returns its arena span and table index to the free lists.  Spans are zeroed here rather than at reuse so a
        recycled span is indistinguishable from fresh storage, and the
        link-mirror entries keyed by container id are removed while
        the containers are still alive — after this the ids may be
        recycled by the allocator without aliasing a mirror cell.
        """
        self._release_program(lane.cell)
        sites = lane.sites
        if sites:
            site = self.site
            for slot in sites:
                site[slot] = 0
            self._site_free.extend(sites)
        for table in lane.dispatch.trace_tables:
            self._release_table(table, table.path_len)
        for table in lane.dispatch.cfg_tables:
            self._release_table(table, len(table.block_list))

    def _release_table(self, table, n: int) -> None:
        base = table.arena_base
        if base < 0:
            return
        tidx = table.arena_tidx
        end = base + n
        for name in self._ARENA_I64 + self._ARENA_I8:
            getattr(self, name)[base:end] = 0
        self.a_pf[base:end] = 0.0
        for name in self._TBL_I64:
            getattr(self, name)[tidx] = 0
        for lid in self._tbl_link_ids.pop(tidx, ()):
            self._link_cols.pop(lid, None)
        self._cfg_run_edges.pop(tidx, None)
        self.tables[tidx] = None
        self._tidx_free.append(tidx)
        self._span_free.setdefault(n, []).append(base)
        table.arena_base = -1
        table.arena_tidx = -1
        table.arena_entry = -1

    # -- the run loop ------------------------------------------------------
    def run(self) -> int:
        """Advance every lane to completion; returns the round count.

        An escaping :class:`ReproError` is enriched with the failing
        lane's ``(benchmark, selector, step)`` — the same context the
        serial pipeline attaches in ``Simulator.run`` — so a fleet
        abort is diagnosable like a serial one.  ``step`` is the lane's
        cache clock at failure; both pipelines advance the clock lazily
        (only observers read it), so it can trail the serial context by
        the distance to the last advancement point.
        """
        try:
            return self._run_rounds()
        except ReproError as exc:
            lane = self._err_lane
            if lane is not None:
                exc.with_context(
                    benchmark=lane.program.name,
                    selector=lane.cell.selector,
                    step=lane.cache.now,
                )
            raise

    def _run_rounds(self) -> int:
        quota = self.quota
        lanes = self.lanes
        contain = self.contain_errors
        rounds = 0
        np = self._np
        while self.remaining:
            rounds += 1
            vec_idx = np.nonzero(self.l_mode == M_VEC)[0]
            # The emptiness check matters when the cutover is 0
            # (forced-vector runs): an all-interp round has no vector
            # lanes to sweep or compact.
            if vec_idx.size and vec_idx.size >= SCALAR_CUTOVER:
                if (self.compaction and rounds % COMPACT_EVERY == 0
                        and int(vec_idx[-1]) - int(vec_idx[0]) + 1
                        > 2 * vec_idx.size):
                    self._compact()
                self._vector_round()
            else:
                # Lanes only ever change their own mode, so a snapshot
                # of the slot indices stays valid across the sweep (a
                # settled slot's successor starts in scalar mode and is
                # picked up below).
                for li in vec_idx.tolist():
                    lane = lanes[li]
                    self._err_lane = lane
                    try:
                        lane.run_trace_scalar(quota)
                    except ReproError as exc:
                        if not contain:
                            raise
                        self._fail_lane(lane, exc)
            # This snapshot runs *after* the vector round, so lanes
            # admitted while it settled finishers take their first
            # interp pass in the same round — the refill keeps the
            # active set wide with no idle round in between.
            for li in np.nonzero(self.l_mode == M_SCALAR)[0].tolist():
                lane = lanes[li]
                self._err_lane = lane
                try:
                    lane.run_scalar(quota)
                except ReproError as exc:
                    if not contain:
                        raise
                    self._fail_lane(lane, exc)
        self.rounds = rounds
        return rounds

    def _compact(self) -> None:
        """Stably re-sort lane slots by mode for dense vector sweeps.

        Long-running divergent fleets fragment: vector-mode lanes end
        up interleaved with interpreting and retired ones, so every
        sweep gathers from a scattered index range.  Re-sorting the
        slots by int-coded mode (scalar, vector, done) restores a dense
        active set.  Lanes are mutually independent and this runs only
        at a round boundary (no pending vector work), so slot order is
        pure scheduling — results are bit-identical either way, which
        the property suite proves by toggling ``compaction``.  Every
        per-lane column moves; the arrays are permuted in place so the
        ``LaneRng`` adapters' ``states`` reference stays valid, and
        each lane's ``idx``/``rng.index`` is re-pointed (the decision
        closures read them dynamically).
        """
        np = self._np
        order = np.argsort(self.l_mode, kind="stable")
        if bool((order == np.arange(order.size)).all()):
            return
        for name in ("l_steps", "l_max", "l_walk", "l_gpos", "l_mode",
                     "l_cinst", "l_trans", "l_depth", "l_dlim",
                     "rng_states"):
            array = getattr(self, name)
            array[:] = array[order]
        if self.stk is not None:
            self.stk[:] = self.stk[order]
        lanes = self.lanes
        # In-place permutation: the run loop holds a reference to this
        # list across rounds.  Settled slots with a drained queue hold
        # None — their mode is M_DONE, so they sort behind every live
        # lane and nothing re-points them.
        lanes[:] = [lanes[int(j)] for j in order]
        for i, lane in enumerate(lanes):
            if lane is None:
                continue
            lane.idx = i
            lane.rng.index = i
        self.compactions += 1

    def interp_spans(self, key: Tuple[str, float], program) -> list:
        """The program's interp span table, memoized across its lanes.

        Keyed by the cell's stable ``(benchmark, scale)`` coordinate —
        streaming runs release programs once no live lane shares them,
        so an ``id(program)`` key could be recycled by the allocator
        and silently serve a dead program's span table.  The memo
        stores the instance it was built from: spans hold that
        instance's block objects, so a rebuilt program (same key, new
        instance) must rebuild its spans too.
        """
        entry = self._interp_spans.get(key)
        if entry is None or entry[0] is not program:
            entry = (program, _build_interp_spans(program))
            self._interp_spans[key] = entry
        return entry[1]

    def _vector_round(self) -> None:
        """Up to ``VEC_ITERS`` lockstep sweeps over trace-walking lanes.

        Each iteration mirrors exactly one pass of the fused loop's
        trace section per active lane: consume the static run at the
        lane's position (or pend its budget-clipped prefix), re-check
        the step budget, evaluate one decision, then apply advances,
        cycle-backs and linked region-to-region transitions in place.
        Lanes whose next action needs Python — budget exhaustion,
        scalar-kind or stack-limit decisions, unlinked exits — leave
        the active set and queue their pending work; the queued
        complement runs once, after the loop, when every vectorized
        write has landed.  A selector callback inside the complement
        may install a region and reallocate the arena, which is why the
        complement must come last: the iteration loop's hoisted arena
        references are valid precisely because nothing reallocates
        before it finishes.
        """
        np = self._np
        l_steps = self.l_steps
        l_max = self.l_max
        l_walk = self.l_walk
        l_gpos = self.l_gpos
        l_depth = self.l_depth
        l_dlim = self.l_dlim
        l_cinst = self.l_cinst
        l_trans = self.l_trans
        rng_states = self.rng_states
        site = self.site
        pat_arena = self.pat_arena
        stk = self.stk
        a_run_len = self.a_run_len
        a_run_insts = self.a_run_insts
        a_rdst = self.a_rdst
        a_run = self.a_run
        a_cnt = self.a_cnt
        a_kind = self.a_kind
        a_tcode = self.a_tcode
        a_fcode = self.a_fcode
        a_pf = self.a_pf
        a_pi = self.a_pi
        a_slot = self.a_slot
        a_pat = self.a_pat
        a_adv = self.a_adv
        a_cyc = self.a_cyc
        a_base = self.a_base
        a_tbl = self.a_tbl
        a_tblcyc = self.a_tblcyc
        a_ltk = self.a_ltk
        a_lfl = self.a_lfl
        a_xtk = self.a_xtk
        a_xfl = self.a_xfl
        a_tnext = self.a_tnext
        a_fnext = self.a_fnext
        a_tcyc = self.a_tcyc
        a_fcyc = self.a_fcyc
        a_cfg = self.a_cfg
        t_ec = self.t_ec
        t_xc = self.t_xc
        t_insts = self.t_insts

        act = np.nonzero(self.l_mode == M_VEC)[0]
        # Pending queues, pre-grouped by the complement handler they
        # need: deferred decisions and unlinked exits split trace vs
        # CFG *at queue time* (one ``a_cfg`` gather per batch), so the
        # complement below runs one homogeneous loop per kind with the
        # per-lane shape dispatch already hoisted out.
        pend_clip: List[int] = []  # lane -> _partial_span
        pend_fin: List[int] = []  # lane -> _finish
        pend_defer_t: List[tuple] = []  # (lane, gpos, steps), trace rows
        pend_defer_c: List[tuple] = []  # (lane, gpos, steps), CFG rows
        pend_exit_t: List[tuple] = []  # (lane, gpos, taken, steps), trace
        pend_exit_c: List[tuple] = []  # (lane, gpos, taken, steps), CFG
        pend_ret: List[tuple] = []  # (lane, gpos, target_id, steps)

        n0 = act.size
        for _ in range(VEC_ITERS):
            # Stop early once most lanes have diverged: a sweep's fixed
            # cost is per iteration, so iterating over a shrunken
            # active set buys little — run the queued complement and
            # let everyone rejoin next round.
            if act.size < SCALAR_CUTOVER or 4 * act.size < n0:
                break
            gp = l_gpos[act]
            span = a_run_len[gp]
            clip = span > (l_max[act] - l_steps[act])
            if clip.any():
                pend_clip.extend(act[clip].tolist())
                keep = ~clip
                act = act[keep]
                gp = gp[keep]
                span = span[keep]
            hop = span > 0
            if hop.any():
                hop_lanes = act[hop]
                hop_pos = gp[hop]
                hop_span = span[hop]
                l_steps[hop_lanes] += hop_span
                l_walk[hop_lanes] += a_run_insts[hop_pos]
                a_run[hop_pos] += 1
                # ``a_rdst`` unifies the two run shapes: trace rows
                # land positionally (j + run_len), CFG rows on their
                # constant chain's precomputed landing row.
                new_pos = a_rdst[hop_pos]
                l_gpos[hop_lanes] = new_pos
                gp[hop] = new_pos

            # Budget re-check between hop and decision (the fused
            # loop's ``while steps < max_steps`` head).
            done = l_steps[act] >= l_max[act]
            if done.any():
                pend_fin.extend(act[done].tolist())
                keep = ~done
                act = act[keep]
                gp = gp[keep]
            if not act.size:
                break

            l_steps[act] += 1
            l_walk[act] += a_cnt[gp]
            kind = a_kind[gp]
            outcome = np.full(act.size, _O_DEFER, dtype=np.int8)
            taken = np.zeros(act.size, dtype=bool)

            # One bincount replaces eight mask.any() reductions: only
            # kinds actually present pay for a mask build + gather.
            kcnt = np.bincount(kind, minlength=8)
            if kcnt[K_CONST]:
                mask = kind == K_CONST
                g = gp[mask]
                outcome[mask] = a_tcode[g]
                taken[mask] = a_pi[g] != 0
            if kcnt[K_BERN]:
                mask = kind == K_BERN
                g = gp[mask]
                draw = vector_random(rng_states, act[mask])
                t = draw < a_pf[g]
                outcome[mask] = np.where(t, a_tcode[g], a_fcode[g])
                taken[mask] = t
            if kcnt[K_LOOP]:
                mask = kind == K_LOOP
                g = gp[mask]
                slots = a_slot[g]
                left = site[slots]
                left = np.where(left == 0, a_pi[g], left) - 1
                t = left > 0
                site[slots] = np.where(t, left, 0)
                outcome[mask] = np.where(t, a_tcode[g], a_fcode[g])
                taken[mask] = t
            if kcnt[K_PERIODIC]:
                mask = kind == K_PERIODIC
                g = gp[mask]
                slots = a_slot[g]
                cursor = site[slots]
                site[slots] = (cursor + 1) % a_pi[g]
                t = pat_arena[a_pat[g] + cursor]
                outcome[mask] = np.where(t, a_tcode[g], a_fcode[g])
                taken[mask] = t
            if kcnt[K_LOOPJ]:
                mask = kind == K_LOOPJ
                mi = np.nonzero(mask)[0]
                g = gp[mi]
                slots = a_slot[g]
                left = site[slots]
                need = left == 0
                if need.any():
                    # Activation start: draw the trip count — one
                    # SplitMix64 word each, ``lo + word % span``.
                    draws = vector_next_u64(rng_states, act[mi[need]])
                    gn = g[need]
                    jspan = a_pat[gn].astype(np.uint64)
                    left[need] = a_pi[gn] + (
                        draws % jspan).astype(np.int64)
                left = left - 1
                t = left > 0
                site[slots] = np.where(t, left, 0)
                outcome[mi] = np.where(t, a_tcode[g], a_fcode[g])
                taken[mi] = t
            if kcnt[K_CALL]:
                mask = kind == K_CALL
                mi = np.nonzero(mask)[0]
                g = gp[mi]
                ln = act[mi]
                d = l_depth[ln]
                ok = d < l_dlim[ln]
                # Overflow lanes stay deferred; the lane's closure
                # raises the canonical error.
                oki = mi[ok]
                if oki.size:
                    lnk = ln[ok]
                    gk = g[ok]
                    stk[lnk, d[ok]] = a_pi[gk]
                    l_depth[lnk] = d[ok] + 1
                    outcome[oki] = a_tcode[gk]
                    taken[oki] = True
            if kcnt[K_RET]:
                mask = kind == K_RET
                mi = np.nonzero(mask)[0]
                g = gp[mi]
                ln = act[mi]
                d = l_depth[ln]
                has = d > 0
                # Empty-stack returns (from main) stay deferred; the
                # lane's closure sees depth 0 and ends the program.
                hi = mi[has]
                if hi.size:
                    gh = g[has]
                    lnh = ln[has]
                    dh = d[has] - 1
                    tgt = stk[lnh, dh].astype(np.int64)
                    l_depth[lnh] = dh
                    adv = tgt == a_pi[gh]
                    cyc = ~adv & (tgt == a_slot[gh])
                    outcome[hi] = np.where(
                        adv, O_ADV, np.where(cyc, O_CYC, _O_RETX))
                    taken[hi] = True
                    retx = ~adv & ~cyc
                    if retx.any():
                        rl = lnh[retx]
                        pend_ret.extend(zip(
                            rl.tolist(), gh[retx].tolist(),
                            tgt[retx].tolist(), l_steps[rl].tolist()))

            ocnt = np.bincount(outcome, minlength=6)
            if ocnt[O_ADV]:
                adv_m = outcome == O_ADV
                g = gp[adv_m]
                a_adv[g] += 1
                l_gpos[act[adv_m]] = g + 1
            if ocnt[O_CYC]:
                cyc_m = outcome == O_CYC
                g = gp[cyc_m]
                a_cyc[g] += 1
                a_tblcyc[a_tbl[g]] += 1
                l_gpos[act[cyc_m]] = a_base[g]
            # O_ADV(0) and O_CYC(1) continue; everything else drops out
            # unless a pass below re-admits it.
            cont = outcome <= O_CYC

            cfg_ext = False
            if ocnt[_O_CFG]:
                cfg_m = outcome == _O_CFG
                # CFG successor pass: internal transfers move to the
                # precomputed per-direction arena position, bank the
                # walked edge (and the entry cycle-back, when flagged);
                # external transfers demote to O_EXIT and fall through
                # to the shared exit pass below — a CFG departure chases
                # links and banks stint counters exactly like a trace's.
                ci = np.nonzero(cfg_m)[0]
                g = gp[cfg_m]
                tk = taken[cfg_m]
                nxt = np.where(tk, a_tnext[g], a_fnext[g])
                internal = nxt >= 0
                if internal.any():
                    gi = g[internal]
                    tki = tk[internal]
                    a_xtk[gi[tki]] += 1
                    a_xfl[gi[~tki]] += 1
                    cyc_flags = np.where(
                        tki, a_tcyc[gi], a_fcyc[gi]).astype(np.int64)
                    a_tblcyc[a_tbl[gi]] += cyc_flags
                    l_gpos[act[ci[internal]]] = nxt[internal]
                    cont[ci[internal]] = True
                external = ~internal
                if external.any():
                    outcome[ci[external]] = O_EXIT
                    cfg_ext = True

            if ocnt[_O_DEFER]:
                defer = outcome == _O_DEFER
                dl = act[defer]
                gd = gp[defer]
                is_cfg = a_cfg[gd] != 0
                if is_cfg.any():
                    cl = dl[is_cfg]
                    pend_defer_c.extend(zip(
                        cl.tolist(), gd[is_cfg].tolist(),
                        l_steps[cl].tolist()))
                    tr = ~is_cfg
                    tl = dl[tr]
                    if tl.size:
                        pend_defer_t.extend(zip(
                            tl.tolist(), gd[tr].tolist(),
                            l_steps[tl].tolist()))
                else:
                    pend_defer_t.extend(zip(
                        dl.tolist(), gd.tolist(), l_steps[dl].tolist()))

            # Fresh scan, not ``ocnt[O_EXIT]`` alone: the CFG pass just
            # rewrote external transfers to O_EXIT in place.
            exit_js = (np.nonzero(outcome == O_EXIT)[0]
                       if ocnt[O_EXIT] or cfg_ext
                       else np.empty(0, dtype=np.int64))
            if exit_js.size:
                # Linked exits — direct region-to-region jumps — stay
                # vectorized: bank the exited stint in the per-table
                # pending counters, count the departure edge, and move
                # the lane to the linked table's arena base.  (All
                # fancy indices here are unique: a lane decides once
                # per iteration and tables are never shared across
                # lanes.)
                ge = gp[exit_js]
                tkn = taken[exit_js]
                link = np.where(tkn, a_ltk[ge], a_lfl[ge])
                linked_m = link >= 0
                if linked_m.any():
                    lg = ge[linked_m]
                    lane_ids = act[exit_js[linked_m]]
                    lb = link[linked_m]
                    t_old = a_tbl[lg]
                    w = l_walk[lane_ids]
                    t_xc[t_old] += 1
                    t_insts[t_old] += w
                    l_cinst[lane_ids] += w
                    l_walk[lane_ids] = 0
                    tk = tkn[linked_m]
                    a_xtk[lg[tk]] += 1
                    a_xfl[lg[~tk]] += 1
                    t_ec[a_tbl[lb]] += 1
                    l_trans[lane_ids] += 1
                    l_gpos[lane_ids] = lb
                    cont[exit_js[linked_m]] = True
                    exit_js = exit_js[~linked_m]
                if exit_js.size:
                    el = act[exit_js]
                    ge2 = gp[exit_js]
                    tke = taken[exit_js]
                    stp = l_steps[el]
                    is_cfg = a_cfg[ge2] != 0
                    if is_cfg.any():
                        pend_exit_c.extend(zip(
                            el[is_cfg].tolist(), ge2[is_cfg].tolist(),
                            tke[is_cfg].tolist(), stp[is_cfg].tolist()))
                        tr = ~is_cfg
                        if tr.any():
                            pend_exit_t.extend(zip(
                                el[tr].tolist(), ge2[tr].tolist(),
                                tke[tr].tolist(), stp[tr].tolist()))
                    else:
                        pend_exit_t.extend(zip(
                            el.tolist(), ge2.tolist(), tke.tolist(),
                            stp.tolist()))
            act = act[cont]

        # Per-lane Python complement (divergent work), after every
        # vectorized write above has landed.  A lane appears at most
        # once across the queues: pending a lane removed it from the
        # active set, so nothing below observes stale column state —
        # and a settling lane's slot can be re-seeded immediately (the
        # fresh lane is in no queue).  Each queue is homogeneous, so
        # the handler dispatch is hoisted out of the per-lane loop; a
        # diverged lane costs one grouped pass per round, not a fully
        # general scalar step.  Order across queues is fixed but
        # inter-lane order is immaterial — lanes are independent.
        lanes = self.lanes
        contain = self.contain_errors
        for li in pend_clip:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._partial_span()
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li in pend_fin:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._finish()
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li, gpos, steps in pend_defer_t:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._trace_decide_scalar(gpos, steps)
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li, gpos, steps in pend_defer_c:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._cfg_decide_scalar(gpos, steps)
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li, gpos, tk, steps in pend_exit_t:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._trace_exit_vec(gpos, tk, steps)
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li, gpos, tk, steps in pend_exit_c:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._cfg_exit_vec(gpos, tk, steps)
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)
        for li, gpos, tid, steps in pend_ret:
            lane = lanes[li]
            self._err_lane = lane
            try:
                lane._trace_ret_exit(gpos, tid, steps)
            except ReproError as exc:
                if not contain:
                    raise
                self._fail_lane(lane, exc)


#: Interp-span chain cap: bounds construction cost and keeps a single
#: span application's step count small relative to any step budget.
_SPAN_CAP = 256


def _build_interp_spans(program) -> List[Optional[tuple]]:
    """Constant-decision interp spans, indexed by head block id.

    A span is a maximal chain of *never-taken constant* blocks — plain
    fallthroughs, or conditionals whose model is exactly
    :class:`~repro.behavior.models.NeverTaken` — with a live
    fallthrough target.  Interpreting such a block does fixed work with
    a statically known outcome: record the fallthrough edge, bump the
    interp counters, move on.  Crucially the branch is *not taken*, so
    the interpreter's cache-entry check and selector taken-callbacks
    never run; the only per-step observer is ``observe_interpreted``,
    which the lane gates on selector quiescence before applying a span
    (see ``Lane.run_scalar``).  Taken constants (jumps, always-taken
    conditionals) end a span: their targets are cache-entry candidates,
    which depend on run-time residency.

    Entries are ``(steps, insts, edges, final_block)`` — chain length,
    summed instruction count, the walked ``(block, fallthrough)``
    edges, and the first non-eligible block, where scalar stepping
    resumes.  Chains shorter than 2 stay ``None`` (the scalar step is
    already cheap).  All fields are lane-independent, so one table
    serves every lane of the program.
    """
    blocks = program.blocks
    spans: List[Optional[tuple]] = [None] * len(blocks)

    def eligible(block) -> bool:
        if block.fallthrough is None:
            return False
        term = block.terminator
        kind = term.kind
        if kind is BranchKind.FALLTHROUGH:
            return True
        return kind is BranchKind.COND and type(term.model) is NeverTaken

    for head in blocks:
        if not eligible(head):
            continue
        steps = 0
        insts = 0
        edges = []
        seen = set()
        block = head
        while (eligible(block) and block not in seen
               and steps < _SPAN_CAP):
            seen.add(block)
            nxt = block.fallthrough
            steps += 1
            insts += block.bundle.count
            edges.append((block, nxt))
            block = nxt
        if steps >= 2:
            spans[head.block_id] = (steps, insts, tuple(edges), block)
    return spans
