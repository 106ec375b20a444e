"""Tests for the Figure 14 compact trace representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.selection.compact import CompactTrace, _BitReader, _BitWriter


def B(program, label):
    return program.block_by_full_label(label)


class TestRoundTrip:
    def test_fallthrough_only_path(self, straight_line_program):
        p = straight_line_program
        path = [B(p, "main:A"), B(p, "main:B"), B(p, "main:C")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path

    def test_taken_conditional_path(self, diamond_program):
        p = diamond_program
        path = [B(p, "main:A"), B(p, "main:B"), B(p, "main:D"), B(p, "main:F")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path

    def test_not_taken_conditional_path(self, diamond_program):
        p = diamond_program
        path = [B(p, "main:A"), B(p, "main:C"), B(p, "main:D"), B(p, "main:E")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path

    def test_call_and_return_path(self, call_loop_program):
        p = call_loop_program
        # A -> B -(call)-> E -> F -(return: dynamic target)-> D
        path = [B(p, "main:A"), B(p, "main:B"), B(p, "helper:E"),
                B(p, "helper:F"), B(p, "main:D")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path

    def test_indirect_branch_records_explicit_address(self):
        from repro.behavior.models import LoopTrip
        from repro.program.builder import ProgramBuilder

        pb = ProgramBuilder("switchy")
        main = pb.procedure("main")
        main.block("top", insts=1).cond("dispatch", model=LoopTrip(10))
        main.block("exit", insts=1).halt()
        main.block("dispatch", insts=2).indirect({"case_a": 0.5, "case_b": 0.5})
        main.block("case_a", insts=3).jump("top")
        main.block("case_b", insts=4).jump("top")
        p = pb.build()
        path = [B(p, "main:dispatch"), B(p, "main:case_b"), B(p, "main:top")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path

    def test_single_block_trace(self, simple_loop_program):
        p = simple_loop_program
        path = [B(p, "main:head")]
        compact = CompactTrace.encode(path)
        assert compact.decode(p) == path


class TestSizing:
    def test_two_bits_per_direct_branch(self, straight_line_program):
        p = straight_line_program
        # 2 branch records (2 bits each) + end marker (2) + 64-bit address.
        compact = CompactTrace.encode(
            [B(p, "main:A"), B(p, "main:B"), B(p, "main:C")]
        )
        assert compact.bit_length == 2 * 2 + 2 + 64
        assert compact.byte_size == (compact.bit_length + 7) // 8

    def test_dynamic_branch_costs_address(self, call_loop_program):
        p = call_loop_program
        with_return = CompactTrace.encode(
            [B(p, "helper:F"), B(p, "main:D")]  # return: "01" + 64 bits
        )
        without = CompactTrace.encode(
            [B(p, "helper:E"), B(p, "helper:F")]  # fall-through: "10"
        )
        assert with_return.bit_length == without.bit_length + 64

    def test_compact_is_much_smaller_than_block_list(self, diamond_program):
        p = diamond_program
        path = [B(p, "main:A"), B(p, "main:B"), B(p, "main:D"), B(p, "main:F")]
        compact = CompactTrace.encode(path)
        # 3 direct branches -> 6 bits + 66 end bits = 9 bytes, versus
        # 8 bytes *per pointer* for the naive representation.
        assert compact.byte_size < len(path) * 8


class TestErrors:
    def test_empty_path_rejected(self):
        with pytest.raises(TraceFormatError):
            CompactTrace.encode([])

    def test_truncated_bitstring_rejected(self, straight_line_program):
        p = straight_line_program
        compact = CompactTrace.encode([B(p, "main:A"), B(p, "main:B")])
        broken = CompactTrace(compact.entrance, compact.data, 4)
        with pytest.raises(TraceFormatError, match="truncated"):
            broken.decode(p)
        # A bit length the bytes cannot hold is truncated too.
        short = CompactTrace(compact.entrance, compact.data[:2],
                             compact.bit_length)
        with pytest.raises(TraceFormatError, match="truncated"):
            short.decode(p)

    def test_decode_against_wrong_entrance_detected(self, straight_line_program):
        p = straight_line_program
        compact = CompactTrace.encode([B(p, "main:A"), B(p, "main:B")])
        lied = CompactTrace(B(p, "main:B"), compact.data, compact.bit_length)
        # Walking from B: one fall-through reaches C, whose end address
        # does not match the recorded end of B.
        with pytest.raises(TraceFormatError):
            lied.decode(p)


class _PerBitWriter:
    """The one-bit-per-iteration writer the integer writer replaced."""

    def __init__(self):
        self.data = bytearray()
        self.bit_length = 0

    def write_bits(self, value, width):
        for shift in range(width - 1, -1, -1):
            offset = self.bit_length & 7
            if offset == 0:
                self.data.append(0)
            if (value >> shift) & 1:
                self.data[-1] |= 0x80 >> offset
            self.bit_length += 1


_records = st.lists(
    st.sampled_from((2, 64)).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1),
                                st.just(width))),
    max_size=40,
)


class TestBitIO:
    @given(records=_records)
    @settings(max_examples=200, deadline=None)
    def test_integer_writer_matches_per_bit_writer(self, records):
        writer = _BitWriter()
        reference = _PerBitWriter()
        for value, width in records:
            writer.write_bits(value, width)
            reference.write_bits(value, width)
        assert writer.getvalue() == bytes(reference.data)
        assert writer.bit_length == reference.bit_length

    @given(records=_records, over=st.sampled_from((1, 2, 64)))
    @settings(max_examples=200, deadline=None)
    def test_reader_reads_the_sequence_back(self, records, over):
        writer = _BitWriter()
        for value, width in records:
            writer.write_bits(value, width)
        reader = _BitReader(writer.getvalue(), writer.bit_length)
        assert [reader.read_bits(width) for _, width in records] == [
            value for value, _ in records]
        with pytest.raises(TraceFormatError, match="truncated"):
            reader.read_bits(over)
