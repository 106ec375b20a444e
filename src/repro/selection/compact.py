"""COMPACT-TRACE (Figure 14): two-bits-per-branch trace storage.

Trace combination must hold up to ``T_prof`` observed traces per
profiled target, possibly for many targets at once, so observed traces
are stored as branch-outcome bitstrings rather than block lists:

* ``10`` — conditional branch not taken (fall through),
* ``11`` — branch taken, target known from the instruction,
* ``01`` — branch taken, target *not* known from the instruction
  (indirect jump or return), followed by the 64-bit target address,
* ``00`` — end of trace, followed by the 64-bit address of the trace's
  last instruction.

Decoding walks the program image from the trace entrance: each record
selects the next block statically (fall-through successor or encoded
taken target), exactly as an optimizer that "must already decode each
instruction and identify all branch targets" would (Section 4.2.1).
The byte size of the bitstring is what the Figure 18 profiling-memory
measurement charges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import TraceFormatError
from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock
from repro.program.program import Program

_ADDRESS_BITS = 64


class _BitWriter:
    """Append-only bitstring builder (MSB-first within each byte).

    The bits accumulate in one integer, so a 64-bit address is one
    shift and one or, not 64 loop iterations.
    """

    __slots__ = ("_value", "_bit_length")

    def __init__(self) -> None:
        self._value = 0
        self._bit_length = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``, high bit first."""
        self._value = (self._value << width) | (value & ((1 << width) - 1))
        self._bit_length += width

    @property
    def bit_length(self) -> int:
        return self._bit_length

    def getvalue(self) -> bytes:
        """The bits, zero-padded to a whole number of bytes."""
        size = (self._bit_length + 7) >> 3
        padded = self._value << (8 * size - self._bit_length)
        return padded.to_bytes(size, "big")


class _BitReader:
    """Sequential bitstring reader matching :class:`_BitWriter`."""

    __slots__ = ("_value", "_size", "_cursor", "_bit_length")

    def __init__(self, data: bytes, bit_length: int) -> None:
        self._value = int.from_bytes(data, "big")
        self._size = 8 * len(data)
        self._cursor = 0
        self._bit_length = min(bit_length, self._size)

    def read_bits(self, width: int) -> int:
        cursor = self._cursor + width
        if cursor > self._bit_length:
            raise TraceFormatError("compact trace bitstring is truncated")
        self._cursor = cursor
        return (self._value >> (self._size - cursor)) & ((1 << width) - 1)


def _taken_with_next(block: BasicBlock, nxt: BasicBlock) -> bool:
    """Was the transfer from ``block`` to ``nxt`` a taken branch?"""
    kind = block.terminator.kind
    if kind.is_always_taken:
        return True
    if kind is BranchKind.COND:
        # Prefer the fall-through interpretation when ambiguous (a
        # conditional whose taken target equals its fall-through).
        return nxt is not block.fallthrough
    return False  # FALLTHROUGH (HALT cannot have a successor)


class CompactTrace:
    """An observed trace in Figure 14's compact representation."""

    __slots__ = ("entrance", "data", "bit_length")

    def __init__(self, entrance: BasicBlock, data: bytes, bit_length: int) -> None:
        self.entrance = entrance
        self.data = data
        self.bit_length = bit_length

    @property
    def byte_size(self) -> int:
        """Storage charged against profiling memory (Figure 18)."""
        return len(self.data)

    @classmethod
    def encode(cls, path: Sequence[BasicBlock]) -> "CompactTrace":
        """Encode a block path (as executed) into the compact form.

        The final block's own outgoing branch is not recorded — the
        trace ends *at* that block (the ``00`` record and end address);
        any edges its branch induces are recovered region-side by the
        Section 4.2.3 exit-replacement rule.
        """
        if not path:
            raise TraceFormatError("cannot encode an empty trace")
        writer = _BitWriter()
        for index in range(len(path) - 1):
            block = path[index]
            nxt = path[index + 1]
            taken = _taken_with_next(block, nxt)
            if not taken:
                writer.write_bits(0b10, 2)
            elif block.terminator.kind.target_is_dynamic:
                writer.write_bits(0b01, 2)
                writer.write_bits(nxt.require_address(), _ADDRESS_BITS)
            else:
                writer.write_bits(0b11, 2)
        writer.write_bits(0b00, 2)
        last = path[-1]
        assert last.end_address is not None
        writer.write_bits(last.end_address, _ADDRESS_BITS)
        return cls(path[0], writer.getvalue(), writer.bit_length)

    def decode(self, program: Program) -> List[BasicBlock]:
        """Reconstruct the block path by re-decoding the program image."""
        reader = _BitReader(self.data, self.bit_length)
        path: List[BasicBlock] = [self.entrance]
        block = self.entrance
        while True:
            record = reader.read_bits(2)
            if record == 0b00:
                end_address = reader.read_bits(_ADDRESS_BITS)
                end_block = program.block_at_address(end_address)
                if end_block is not block:
                    raise TraceFormatError(
                        "compact trace end address does not match the "
                        "decoded final block"
                    )
                return path
            nxt: Optional[BasicBlock]
            if record == 0b10:
                nxt = block.fallthrough
            elif record == 0b11:
                nxt = block.terminator.taken_target
            else:  # 0b01: explicit target address
                nxt = program.block_at_address(reader.read_bits(_ADDRESS_BITS))
            if nxt is None:
                raise TraceFormatError(
                    f"compact trace walks off block {block.full_label}"
                )
            path.append(nxt)
            block = nxt
