"""Streaming writer for the binary trace format."""

from __future__ import annotations

import sys
from array import array
from typing import BinaryIO

from repro.errors import TraceFormatError
from repro.isa.opcodes import BranchKind
from repro.tracing.records import COUNTS, TraceHeader

#: Direction bits are buffered one byte each and packed eight to a
#: byte whenever this many accumulate (a multiple of 8).
_PACK_CHUNK = 1 << 16

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")
_COND = BranchKind.COND
_INDIRECT = BranchKind.INDIRECT


def pack_bits(bits: bytearray) -> bytes:
    """Pack 0/1 bytes into bits, least significant bit first, padding
    the last byte with zero bits (the trace's direction-bit layout)."""
    if not bits:
        return b""
    # Bit i of the integer is bits[i]; little-endian bytes then put it
    # at bit i % 8 of byte i // 8.
    value = int(bits[::-1].translate(_ASCII_BITS), 2)
    return value.to_bytes((len(bits) + 7) // 8, "little")


class TraceWriter:
    """Writes a trace; use as a context manager.

    ``write`` keeps the direction of each conditional branch and the
    target of each indirect jump, and counts steps; the body is written
    when the writer closes.  A writer left by an exception writes no
    body, so the aborted trace reads as truncated instead of as a
    shorter run.

    >>> with open(path, "wb") as fh:                      # doctest: +SKIP
    ...     with TraceWriter(fh, header) as writer:
    ...         engine.run_into(writer.write)
    """

    def __init__(self, stream: BinaryIO, header: TraceHeader) -> None:
        self._stream = stream
        self._bits = bytearray()
        self._packed = bytearray()
        self._targets = array("I")
        self._closed = False
        self.steps_written = 0
        stream.write(header.encode())

    def write(self, block, taken, target) -> None:
        """Record one step given as raw ``(block, taken, target)`` fields.

        Its signature matches the consumer contract of
        :meth:`ExecutionEngine.run_into
        <repro.execution.engine.ExecutionEngine.run_into>`, so a bound
        ``writer.write`` collects a trace with no
        :class:`~repro.execution.events.Step` allocation at all.
        """
        if self._closed:
            raise TraceFormatError("writer already closed")
        kind = block.terminator.kind
        if kind is _COND:
            bits = self._bits
            bits.append(1 if taken else 0)
            if len(bits) >= _PACK_CHUNK:
                self._packed += pack_bits(bits)
                bits.clear()
        elif kind is _INDIRECT:
            self._targets.append(target.block_id)
        self.steps_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        conditionals = 8 * len(self._packed) + len(self._bits)
        self._packed += pack_bits(self._bits)
        targets = self._targets
        if sys.byteorder == "big":
            targets.byteswap()
        self._stream.write(
            COUNTS.pack(self.steps_written, conditionals, len(targets)))
        self._stream.write(self._packed)
        self._stream.write(targets.tobytes())

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
