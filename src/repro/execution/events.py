"""Events emitted by the execution engine.

A :class:`Step` records one executed basic block together with the
control transfer that ended it.  This is exactly the information Pin's
basic-block instrumentation gives the paper's framework: the block, and
for its terminating branch the source and target addresses and whether
it was taken.  Source/target addresses are derived from the blocks
rather than stored, keeping the event small.

:class:`Step` is the record of a *pulled* stream
(:meth:`ExecutionEngine.run
<repro.execution.engine.ExecutionEngine.run>`, trace replay, the JSONL
reader, :meth:`Simulator.run
<repro.system.simulator.Simulator.run>`).  It is a ``__slots__``
record rather than a ``NamedTuple`` because hundreds of thousands of
instances are created per pulled run.  Selectors never see one: their
callbacks take the ``(block, taken, target)`` fields directly, so the
fused fast path and the push feed build no ``Step`` at all.
"""

from __future__ import annotations

from typing import Optional

from repro.program.cfg import BasicBlock


class Step:
    """One executed basic block and its outgoing control transfer.

    Attributes
    ----------
    block:
        The basic block that just executed (all of its instructions ran).
    taken:
        True when the terminating control transfer was a taken branch.
        Fall-throughs and the final HALT are not taken.
    target:
        The block that executes next, or ``None`` when the program ends
        (HALT, or return from the outermost frame).
    """

    __slots__ = ("block", "taken", "target")

    def __init__(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        self.block = block
        self.taken = taken
        self.target = target

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Step):
            return NotImplemented
        return (
            self.block is other.block
            and self.taken == other.taken
            and self.target is other.target
        )

    def __hash__(self) -> int:
        return hash((self.block, self.taken, self.target))

    @property
    def src_address(self) -> int:
        """Address of the transferring instruction (block's last byte)."""
        assert self.block.end_address is not None
        return self.block.end_address

    @property
    def tgt_address(self) -> Optional[int]:
        if self.target is None:
            return None
        return self.target.address

    @property
    def is_backward(self) -> bool:
        """True for a taken branch to an address not above its source."""
        if not self.taken or self.target is None:
            return False
        assert self.target.address is not None and self.block.end_address is not None
        return self.target.address <= self.block.end_address

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arrow = "=>" if self.taken else "->"
        dst = self.target.full_label if self.target is not None else "END"
        return f"Step({self.block.full_label} {arrow} {dst})"
