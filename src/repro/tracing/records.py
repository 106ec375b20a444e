"""On-disk layout of the binary trace format.

A trace starts with a header (little-endian throughout): magic
``b"RTRC"``, version ``u16`` (always 2), name length ``u16``, UTF-8
program name, block count ``u32``, seed ``u64``.

The body stores only the outcomes the program cannot supply, in the
spirit of the paper's Figure 14:

* counts: steps ``u64``, conditional outcomes ``u64``, indirect
  targets ``u64``;
* one direction bit per executed conditional branch, in execution
  order, packed least significant bit first (bit ``i`` is bit
  ``i % 8`` of byte ``i // 8``; ``1`` = taken), padded with zero bits
  to a whole byte;
* the block id (``u32``) of each executed indirect jump's target, in
  execution order.

Every other transfer is implied: a jump, fall-through or halt by the
program, a call by the program plus the call stack it pushes, a return
by that stack.  So replay walks the program from its entry and reads
the next recorded outcome only at conditionals and indirect jumps; it
stops after the recorded step count, which also covers a collection
that stopped at its step budget.  The format needs no knowledge of
branch models: every executed conditional has a bit, whatever its
model.

Block ids are the dense ids assigned by program finalization, so a
trace file is only meaningful together with the program that produced
it; the header's name and block count are a cheap consistency check for
that pairing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import TraceFormatError

MAGIC = b"RTRC"
#: The one version written and read.
VERSION = 2

_HEADER_FIXED = struct.Struct("<4sHH")
_HEADER_TAIL = struct.Struct("<IQ")

#: The counts that open the body.
COUNTS = struct.Struct("<QQQ")
#: Bytes per recorded indirect target id.
TARGET_BYTES = 4


@dataclass(frozen=True)
class TraceHeader:
    """Identifies the program a trace belongs to."""

    program_name: str
    block_count: int
    seed: int

    def encode(self) -> bytes:
        name_bytes = self.program_name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TraceFormatError("program name too long for trace header")
        return (
            _HEADER_FIXED.pack(MAGIC, VERSION, len(name_bytes))
            + name_bytes
            + _HEADER_TAIL.pack(self.block_count, self.seed)
        )

    @classmethod
    def decode(cls, stream) -> "TraceHeader":
        fixed = stream.read(_HEADER_FIXED.size)
        if len(fixed) != _HEADER_FIXED.size:
            raise TraceFormatError("truncated trace header")
        magic, version, name_length = _HEADER_FIXED.unpack(fixed)
        if magic != MAGIC:
            raise TraceFormatError(f"bad trace magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        name_bytes = stream.read(name_length)
        if len(name_bytes) != name_length:
            raise TraceFormatError("truncated program name in trace header")
        tail = stream.read(_HEADER_TAIL.size)
        if len(tail) != _HEADER_TAIL.size:
            raise TraceFormatError("truncated trace header tail")
        block_count, seed = _HEADER_TAIL.unpack(tail)
        return cls(name_bytes.decode("utf-8"), block_count, seed)
