"""Regions: traces and multi-path CFG regions in the code cache.

A region holds *copies* of original program blocks (modelled by
referencing the original :class:`~repro.program.cfg.BasicBlock`
objects; block identity in the original program is what all metrics
are defined over).  Each region also accumulates its own execution
statistics, which the metrics package aggregates after a run:

* ``entry_count`` — entries from the interpreter or from other regions,
* ``cycle_backs`` — taken branches from inside the region to its own
  entry (the *executed cycle* events of Section 3.2.1),
* ``exit_count`` — executions that left the region,
* ``executed_instructions`` — instructions executed from this region's
  cached copy (drives hit rate and the 90% cover set).
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.cache.stubs import cfg_region_exit_stubs, trace_exit_stubs
from repro.errors import CacheError
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock


class Region(abc.ABC):
    """Base class for cached regions."""

    kind: str = "region"
    #: Class-level discriminator for the simulator's hot loops: reading
    #: an attribute is far cheaper than ``isinstance`` against an ABC
    #: (which routes through ``_abc_instancecheck`` on every region
    #: entry and transition).
    is_trace: bool = False
    #: Bytes of the block copies, summed by each region kind as it lays
    #: out its blocks' offsets.
    instruction_bytes: int

    def __init__(self, entry: BasicBlock) -> None:
        self.entry = entry
        #: Order in which the region was selected; set by the cache.
        self.selection_order: Optional[int] = None
        #: Simulation step at which the region was installed.
        self.selected_at_step: Optional[int] = None
        #: Byte address of the region inside the code cache's layout
        #: (assigned by the cache at insert time).
        self.cache_address: Optional[int] = None
        # Execution statistics, updated by the simulator.
        self.entry_count = 0
        self.cycle_backs = 0
        self.exit_count = 0
        self.executed_instructions = 0

    # -- static shape ---------------------------------------------------
    @property
    @abc.abstractmethod
    def block_list(self) -> Sequence[BasicBlock]:
        """All block copies in the region (duplicates possible in traces)."""

    @property
    @abc.abstractmethod
    def block_set(self) -> FrozenSet[BasicBlock]:
        """The distinct original blocks the region contains."""

    @property
    @abc.abstractmethod
    def exit_stub_count(self) -> int:
        """Number of exit stubs the cached region requires."""

    @abc.abstractmethod
    def internal_edges(self) -> Set[Tuple[BasicBlock, BasicBlock]]:
        """Edges (by original blocks) kept inside the region."""

    @property
    def instruction_count(self) -> int:
        """Instructions copied into the cache for this region.

        This is the paper's *code expansion* contribution of the region:
        every block copy counts, so a block duplicated across regions is
        counted once per region.
        """
        return sum(block.instruction_count for block in self.block_list)

    @property
    @abc.abstractmethod
    def spans_cycle(self) -> bool:
        """True when repeated execution of a cycle can stay in the region."""

    # -- execution-end accounting ---------------------------------------
    @property
    def execution_ends(self) -> int:
        """Number of completed passes through the region.

        Each pass ends either by branching back to the region top (an
        executed cycle) or by exiting; the *executed cycle ratio* of
        Section 3.2.1 is ``cycle_backs / execution_ends``.
        """
        return self.cycle_backs + self.exit_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} #{self.selection_order} "
            f"entry={self.entry.full_label} blocks={len(self.block_list)}>"
        )


class TraceRegion(Region):
    """An interprocedural superblock: single entry, straight-line path.

    ``path`` is the ordered block sequence.  ``final_target`` is the
    block the trace-ending branch targets (``None`` when the trace was
    cut by a size limit, the end of the program, or a fall-through into
    an existing region); when ``final_target is path[0]`` the trace
    *spans a cycle* — its last branch re-enters its own top.
    """

    kind = "trace"
    is_trace = True

    def __init__(
        self,
        path: Sequence[BasicBlock],
        final_target: Optional[BasicBlock] = None,
    ) -> None:
        if not path:
            raise CacheError("a trace must contain at least one block")
        super().__init__(path[0])
        self.path: Tuple[BasicBlock, ...] = tuple(path)
        self.final_target = final_target
        self._block_set = frozenset(self.path)
        self._stub_count = trace_exit_stubs(self.path, self.spans_cycle)
        offsets = []
        cursor = 0
        for block in self.path:
            offsets.append(cursor)
            cursor += block.byte_size
        #: Byte offset of each path position inside the region's layout.
        self.position_offsets: Tuple[int, ...] = tuple(offsets)
        self.instruction_bytes = cursor

    @property
    def block_list(self) -> Sequence[BasicBlock]:
        return self.path

    @property
    def block_set(self) -> FrozenSet[BasicBlock]:
        return self._block_set

    @property
    def spans_cycle(self) -> bool:
        return self.final_target is self.path[0]

    @property
    def exit_stub_count(self) -> int:
        return self._stub_count

    def internal_edges(self) -> Set[Tuple[BasicBlock, BasicBlock]]:
        edges = {
            (self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)
        }
        if self.spans_cycle:
            edges.add((self.path[-1], self.path[0]))
        return edges

    def position_after(
        self, position: int, taken: bool, target: Optional[BasicBlock]
    ) -> Optional[int]:
        """Next path position for a transfer, or ``None`` when it exits.

        The block at ``position`` just executed.  Control stays in the
        trace when the actual target is the next path block, or when a
        taken branch re-enters the trace top (position 0) — the linked
        self-loop of a cycle-spanning trace.
        """
        if target is None:
            return None
        next_position = position + 1
        if next_position < len(self.path) and target is self.path[next_position]:
            return next_position
        if taken and target is self.path[0]:
            return 0
        return None


class CFGRegion(Region):
    """A single-entry multi-path region produced by trace combination.

    ``blocks`` are the marked blocks that survived pruning; ``edges``
    are the observed control-flow edges between them (plus, per
    Section 4.2.3, any static exit that targets an in-region block,
    which the constructor folds in for direct transfers).
    """

    kind = "cfg"

    def __init__(
        self,
        entry: BasicBlock,
        blocks: Iterable[BasicBlock],
        edges: Iterable[Tuple[BasicBlock, BasicBlock]],
    ) -> None:
        super().__init__(entry)
        block_set = frozenset(blocks)
        if entry not in block_set:
            raise CacheError(
                f"CFG region entry {entry.full_label} is not among its blocks"
            )
        self._blocks = block_set
        edge_set = {
            (src, dst)
            for src, dst in edges
            if src in block_set and dst in block_set
        }
        # Section 4.2.3: replace region exits that target in-region
        # blocks with edges.  Only direct transfers can be rewritten
        # (their targets are known statically); indirect transfers and
        # returns keep using observed edges only.
        for block in block_set:
            term = block.terminator
            kind = term.kind
            if kind in (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL):
                target = term.taken_target
                if target is not None and target in block_set:
                    edge_set.add((block, target))
            if kind.may_fall_through:
                if block.fallthrough is not None and block.fallthrough in block_set:
                    edge_set.add((block, block.fallthrough))
        self._edges = frozenset(edge_set)
        #: Blocks whose transfer target is dynamic (returns, indirect
        #: jumps) — precomputed so :meth:`stays_internal`, which the
        #: reference state machine calls per step, applies the
        #: observed-edge rule without re-deriving it.  The fused walk
        #: reads :attr:`edges` instead, when it compiles its table.
        self.dynamic_blocks: FrozenSet[BasicBlock] = frozenset(
            block for block in block_set
            if block.terminator.kind.target_is_dynamic
        )
        # Deterministic iteration order for reporting: address order.
        self._ordered = tuple(
            sorted(block_set, key=lambda b: b.require_address())
        )
        self._stub_count = cfg_region_exit_stubs(block_set, self._edges)
        self._spans_cycle = any(dst is entry for _, dst in self._edges)
        offsets: Dict[BasicBlock, int] = {}
        cursor = 0
        for block in self._ordered:
            offsets[block] = cursor
            cursor += block.byte_size
        #: Byte offset of each block inside the region's layout.
        self.block_offsets: Dict[BasicBlock, int] = offsets
        self.instruction_bytes = cursor

    @property
    def block_list(self) -> Sequence[BasicBlock]:
        return self._ordered

    @property
    def block_set(self) -> FrozenSet[BasicBlock]:
        return self._blocks

    @property
    def edges(self) -> FrozenSet[Tuple[BasicBlock, BasicBlock]]:
        return self._edges

    @property
    def spans_cycle(self) -> bool:
        return self._spans_cycle

    @property
    def exit_stub_count(self) -> int:
        return self._stub_count

    def internal_edges(self) -> Set[Tuple[BasicBlock, BasicBlock]]:
        return set(self._edges)

    def stays_internal(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> bool:
        """True when a transfer out of ``block`` remains in the region.

        Direct transfers stay whenever the target block is in the
        region (the rewritten-exit rule); dynamic transfers (returns,
        indirect jumps) stay only along observed edges, modelling the
        inlined target-compare chain a real system emits.
        """
        if target is None or target not in self._blocks:
            return False
        if taken and block in self.dynamic_blocks:
            return (block, target) in self._edges
        return True
