"""Tests for the program model: builder, layout, resolution, validation."""

import pytest

from repro.behavior.models import Bernoulli, LoopTrip, TableIndirect
from repro.errors import LayoutError, ProgramStructureError
from repro.isa.opcodes import BranchKind
from repro.program.builder import ProgramBuilder
from repro.program.dot import program_to_dot
from repro.program.layout import DEFAULT_BASE_ADDRESS, PROCEDURE_PADDING
from repro.program.validate import unreachable_blocks
from repro.workloads import build_benchmark


class TestBuilder:
    def test_builds_and_resolves_targets(self, simple_loop_program):
        head = simple_loop_program.block_by_full_label("main:head")
        assert head.terminator.taken_target is head

    def test_duplicate_block_label_rejected(self):
        pb = ProgramBuilder("dup")
        main = pb.procedure("main")
        main.block("A")
        with pytest.raises(ProgramStructureError):
            main.block("A")

    def test_duplicate_terminator_rejected(self):
        pb = ProgramBuilder("term")
        main = pb.procedure("main")
        handle = main.block("A").jump("A")
        with pytest.raises(ProgramStructureError):
            handle.halt()

    def test_unresolved_target_reported(self):
        pb = ProgramBuilder("bad")
        main = pb.procedure("main")
        main.block("A").jump("nowhere")
        main.block("B").halt()
        with pytest.raises(ProgramStructureError, match="nowhere"):
            pb.build()

    def test_bare_name_prefers_local_label_over_procedure(self):
        pb = ProgramBuilder("shadow")
        helper = pb.procedure("helper")
        helper.block("entry").ret()
        main = pb.procedure("main")
        # A local block named "helper" shadows the procedure name.
        main.block("start").jump("helper")
        main.block("helper").halt()
        program = pb.build()
        start = program.block_by_full_label("main:start")
        assert start.terminator.taken_target is program.block_by_full_label("main:helper")

    def test_explicit_proc_label_reference(self):
        pb = ProgramBuilder("explicit")
        helper = pb.procedure("helper")
        helper.block("entry")
        helper.block("inner").ret()
        main = pb.procedure("main")
        main.block("start").jump("helper:inner")
        main.block("end").halt()
        program = pb.build()
        start = program.block_by_full_label("main:start")
        assert start.terminator.taken_target.label == "inner"

    def test_proc_colon_means_entry(self):
        pb = ProgramBuilder("entryref")
        helper = pb.procedure("helper")
        helper.block("first").ret()
        main = pb.procedure("main")
        main.block("start").jump("helper:")
        main.block("end").halt()
        program = pb.build()
        start = program.block_by_full_label("main:start")
        assert start.terminator.taken_target.label == "first"

    def test_block_handle_as_target(self):
        pb = ProgramBuilder("handles")
        main = pb.procedure("main")
        a = main.block("A")
        main.block("B").jump(a)
        program = pb.build()
        b = program.block_by_full_label("main:B")
        assert b.terminator.taken_target is a.raw_block

    def test_linear_declares_fallthrough_chain(self):
        pb = ProgramBuilder("linear")
        main = pb.procedure("main")
        main.linear(["A", "B", "C"], insts=2)
        main.block("end").halt()
        program = pb.build()
        a = program.block_by_full_label("main:A")
        assert a.fallthrough is program.block_by_full_label("main:B")

    def test_indirect_with_weight_dict(self):
        pb = ProgramBuilder("ind")
        main = pb.procedure("main")
        main.block("sw", insts=2).indirect({"L1": 0.5, "L2": 0.5})
        main.block("L1").halt()
        main.block("L2").halt()
        program = pb.build()
        sw = program.block_by_full_label("main:sw")
        assert len(sw.terminator.indirect_targets) == 2
        assert isinstance(sw.terminator.indirect_model, TableIndirect)

    def test_indirect_sequence_requires_model(self):
        pb = ProgramBuilder("ind2")
        main = pb.procedure("main")
        with pytest.raises(ProgramStructureError):
            main.block("sw").indirect(["L1", "L2"])


class TestLayout:
    def test_addresses_increase_in_declaration_order(self, call_loop_program):
        blocks = call_loop_program.blocks
        addresses = [b.address for b in blocks]
        assert addresses == sorted(addresses)
        assert addresses[0] == DEFAULT_BASE_ADDRESS

    def test_block_ids_dense(self, call_loop_program):
        # Ids are layout order, so every flat id-indexed table (the fused
        # loop's residency and deciders) can be sized by the block count:
        # each id round-trips through block_by_id and names one address.
        for program in (call_loop_program,
                        build_benchmark("gzip", scale=0.05)):
            blocks = program.blocks
            for index, block in enumerate(blocks):
                assert block.block_id == index
                assert program.block_by_id(index) is block
            assert len({block.address for block in blocks}) == len(blocks)

    def test_procedure_padding_separates_procedures(self, call_loop_program):
        helper_last = call_loop_program.block_by_full_label("helper:F")
        main_first = call_loop_program.block_by_full_label("main:A")
        gap = main_first.address - (helper_last.address + helper_last.byte_size)
        assert gap == PROCEDURE_PADDING

    def test_backward_call_when_callee_declared_first(self, call_loop_program):
        # Figure 2: helper is at lower addresses, so the call is backward.
        call_block = call_loop_program.block_by_full_label("main:B")
        callee = call_loop_program.block_by_full_label("helper:E")
        assert call_block.is_backward_transfer_to(callee)

    def test_self_loop_is_backward(self, simple_loop_program):
        head = simple_loop_program.block_by_full_label("main:head")
        assert head.is_backward_transfer_to(head)

    def test_forward_branch_is_not_backward(self, straight_line_program):
        a = straight_line_program.block_by_full_label("main:A")
        c = straight_line_program.block_by_full_label("main:C")
        assert not a.is_backward_transfer_to(c)

    def test_direction_query_requires_layout(self):
        pb = ProgramBuilder("unlaid")
        main = pb.procedure("main")
        a = main.block("A").halt()
        with pytest.raises(LayoutError):
            a.raw_block.is_backward_transfer_to(a.raw_block)


class TestProgramAccessors:
    def test_entry_overridable_independent_of_layout(self, call_loop_program):
        # helper lays out first, but main is the declared entry.
        assert call_loop_program.entry.full_label == "main:A"
        assert call_loop_program.blocks[0].full_label == "helper:E"

    def test_entry_defaults_to_first_procedure(self, straight_line_program):
        assert straight_line_program.entry.full_label == "main:A"

    def test_missing_entry_procedure_rejected(self):
        pb = ProgramBuilder("noentry", entry="ghost")
        main = pb.procedure("main")
        main.block("A").halt()
        with pytest.raises(ProgramStructureError, match="ghost"):
            pb.build()

    def test_instruction_count_sums_blocks(self, straight_line_program):
        assert straight_line_program.instruction_count == 6

    def test_static_successors_cond(self, nested_loop_program):
        b = nested_loop_program.block_by_full_label("main:B")
        succs = nested_loop_program.static_successors(b)
        assert b in succs  # self loop
        assert nested_loop_program.block_by_full_label("main:C") in succs

    def test_static_successors_return_empty(self, call_loop_program):
        f = call_loop_program.block_by_full_label("helper:F")
        assert call_loop_program.static_successors(f) == []

    def test_double_finalize_rejected(self, straight_line_program):
        with pytest.raises(ProgramStructureError):
            straight_line_program.finalize()

    def test_unknown_procedure_lookup(self, straight_line_program):
        with pytest.raises(ProgramStructureError):
            straight_line_program.procedure("nope")

    def test_block_by_id_out_of_range(self, straight_line_program):
        with pytest.raises(ProgramStructureError):
            straight_line_program.block_by_id(999)


class TestValidation:
    def test_cond_as_last_block_rejected(self):
        pb = ProgramBuilder("badcond")
        main = pb.procedure("main")
        main.block("A").cond("A", model=Bernoulli(0.5))
        with pytest.raises(ProgramStructureError, match="fall-through"):
            pb.build()

    def test_fallthrough_as_last_block_rejected(self):
        pb = ProgramBuilder("badfall")
        main = pb.procedure("main")
        main.block("A")  # implicit fall-through, but nothing follows
        with pytest.raises(ProgramStructureError):
            pb.build()

    def test_call_must_target_procedure_entry(self):
        pb = ProgramBuilder("badcall")
        helper = pb.procedure("helper")
        helper.block("entry")
        helper.block("inner").ret()
        main = pb.procedure("main")
        main.block("A").call("helper:inner")
        main.block("B").halt()
        with pytest.raises(ProgramStructureError, match="not a procedure entry"):
            pb.build()

    def test_call_needs_return_site(self):
        pb = ProgramBuilder("badcall2")
        helper = pb.procedure("helper")
        helper.block("entry").ret()
        main = pb.procedure("main")
        main.block("A").call("helper")  # nothing to return to
        with pytest.raises(ProgramStructureError, match="return"):
            pb.build()

    def test_indirect_weight_count_checked(self):
        pb = ProgramBuilder("badind")
        main = pb.procedure("main")
        main.block("sw").indirect(["L1", "L2"], model=TableIndirect([1.0]))
        main.block("L1").halt()
        main.block("L2").halt()
        with pytest.raises(ProgramStructureError, match="weights"):
            pb.build()

    def test_empty_program_rejected(self):
        pb = ProgramBuilder("empty")
        with pytest.raises(ProgramStructureError):
            pb.build()

    def test_unreachable_blocks_detected(self):
        pb = ProgramBuilder("island")
        main = pb.procedure("main")
        main.block("A").halt()
        main.block("orphan").halt()
        program = pb.build()
        orphans = unreachable_blocks(program)
        assert {b.label for b in orphans} == {"orphan"}

    def test_return_sites_considered_reachable(self, call_loop_program):
        # main:D is only reached via helper's return; it must not be
        # reported unreachable.
        assert unreachable_blocks(call_loop_program) == set()


class TestDotExport:
    def test_dot_contains_all_blocks_and_is_wellformed(self, diamond_program):
        dot = program_to_dot(diamond_program, title="diamond")
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for block in diamond_program.blocks:
            assert block.label.replace(".", "_") in dot

    def test_highlight_marks_fill(self, simple_loop_program):
        head = simple_loop_program.block_by_full_label("main:head")
        dot = program_to_dot(simple_loop_program, highlight={head})
        assert "fillcolor" in dot
