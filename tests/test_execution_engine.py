"""Tests for the execution engine."""

import pytest

from repro.behavior.models import Bernoulli, LoopTrip
from repro.errors import ExecutionError
from repro.execution.engine import ExecutionEngine
from repro.execution.stack import CallStack
from repro.program.builder import ProgramBuilder


class TestCallStack:
    def test_push_pop(self, straight_line_program):
        block = straight_line_program.blocks[0]
        stack = CallStack()
        stack.push(block)
        assert stack.depth == 1
        assert stack.pop() is block
        assert stack.pop() is None

    def test_overflow_raises(self, straight_line_program):
        block = straight_line_program.blocks[0]
        stack = CallStack(max_depth=2)
        stack.push(block)
        stack.push(block)
        with pytest.raises(ExecutionError, match="overflow"):
            stack.push(block)

    def test_bad_depth_rejected(self):
        with pytest.raises(ExecutionError):
            CallStack(max_depth=0)


class TestStraightLine:
    def test_executes_blocks_in_order(self, straight_line_program):
        steps = ExecutionEngine(straight_line_program).run_to_list()
        assert [s.block.label for s in steps] == ["A", "B", "C"]

    def test_fallthrough_steps_not_taken(self, straight_line_program):
        steps = ExecutionEngine(straight_line_program).run_to_list()
        assert not steps[0].taken
        assert steps[0].target.label == "B"

    def test_halt_has_no_target(self, straight_line_program):
        steps = ExecutionEngine(straight_line_program).run_to_list()
        assert steps[-1].target is None

    def test_instruction_accounting(self, straight_line_program):
        engine = ExecutionEngine(straight_line_program)
        list(engine.run())
        assert engine.steps_executed == 3
        assert engine.instructions_executed == 6


class TestLoops:
    def test_loop_executes_expected_iterations(self, simple_loop_program):
        steps = ExecutionEngine(simple_loop_program).run_to_list()
        head_executions = sum(1 for s in steps if s.block.label == "head")
        assert head_executions == 100

    def test_back_edge_is_taken_and_backward(self, simple_loop_program):
        steps = ExecutionEngine(simple_loop_program).run_to_list()
        first = steps[0]
        assert first.taken
        assert first.block.is_backward_transfer_to(first.target)

    def test_loop_exit_falls_through(self, simple_loop_program):
        steps = ExecutionEngine(simple_loop_program).run_to_list()
        exit_step = steps[-2]
        assert exit_step.block.label == "head"
        assert not exit_step.taken
        assert exit_step.target.label == "done"

    def test_nested_loop_counts(self, nested_loop_program):
        steps = ExecutionEngine(nested_loop_program).run_to_list()
        counts = {}
        for step in steps:
            counts[step.block.label] = counts.get(step.block.label, 0) + 1
        assert counts["A"] == 50
        assert counts["C"] == 50
        assert counts["B"] == 50 * 10


class TestCallsAndReturns:
    def test_call_pushes_and_return_resumes(self, call_loop_program):
        steps = ExecutionEngine(call_loop_program).run_to_list()
        labels = [s.block.label for s in steps]
        # helper lays out first (lower addresses) but main is the entry;
        # one loop iteration is A B E F D.
        assert labels[:5] == ["A", "B", "E", "F", "D"]

    def test_return_from_entry_ends_program(self):
        pb = ProgramBuilder("retend")
        main = pb.procedure("main")
        main.block("A", insts=2).ret()
        program = pb.build()
        steps = ExecutionEngine(program).run_to_list()
        assert len(steps) == 1
        assert steps[0].taken
        assert steps[0].target is None

    def test_call_return_pairing(self, call_loop_program):
        steps = ExecutionEngine(call_loop_program).run_to_list()
        for index, step in enumerate(steps):
            if step.block.label == "B" and step.taken:
                # call lands at helper entry...
                assert step.target.label == "E"
                # ...and two steps later F returns to D.
                assert steps[index + 2].block.label == "F"
                assert steps[index + 2].target.label == "D"
                break
        else:
            pytest.fail("no call to helper observed")

    def test_runaway_recursion_raises(self):
        pb = ProgramBuilder("recurse")
        rec = pb.procedure("rec")
        rec.block("top", insts=1).call("rec")
        rec.block("after", insts=1).ret()
        program = pb.build()
        engine = ExecutionEngine(program, max_call_depth=64)
        with pytest.raises(ExecutionError, match="overflow"):
            list(engine.run())


class TestDeterminismAndLimits:
    def test_same_seed_reproduces_stream(self, diamond_program):
        first = ExecutionEngine(diamond_program, seed=42).run_to_list()
        second = ExecutionEngine(diamond_program, seed=42).run_to_list()
        assert [(s.block, s.taken) for s in first] == [
            (s.block, s.taken) for s in second
        ]

    def test_different_seed_changes_unbiased_choices(self, diamond_program):
        first = ExecutionEngine(diamond_program, seed=1).run_to_list()
        second = ExecutionEngine(diamond_program, seed=2).run_to_list()
        assert [(s.block, s.taken) for s in first] != [
            (s.block, s.taken) for s in second
        ]

    def test_max_steps_truncates(self, simple_loop_program):
        engine = ExecutionEngine(simple_loop_program, max_steps=10)
        steps = engine.run_to_list()
        assert len(steps) == 10

    def test_abandoned_generator_reports_consumed_steps(
        self, simple_loop_program
    ):
        engine = ExecutionEngine(simple_loop_program, seed=1)
        # A completed run first, so stale counters from it would be
        # visible if a later partial run failed to overwrite them.
        total = sum(1 for _ in engine.run())
        assert engine.steps_executed == total

        stream = engine.run()
        consumed = [next(stream) for _ in range(5)]
        stream.close()
        assert engine.steps_executed == 5
        assert engine.instructions_executed == sum(
            step.block.bundle.count for step in consumed
        )

    def test_run_into_counts_match_generator(self, simple_loop_program):
        reference = ExecutionEngine(simple_loop_program, seed=1)
        reference.run_to_list()
        pushed = ExecutionEngine(simple_loop_program, seed=1)
        count = pushed.run_into(lambda block, taken, target: None)
        assert count == reference.steps_executed
        assert pushed.steps_executed == reference.steps_executed
        assert pushed.instructions_executed == reference.instructions_executed

    def test_unfinalized_program_rejected(self):
        pb = ProgramBuilder("raw")
        main = pb.procedure("main")
        main.block("A").halt()
        # Bypass build() to get an unfinalized program.
        from repro.program.program import Program

        program = Program("never_finalized")
        with pytest.raises(ExecutionError):
            ExecutionEngine(program)

    def test_indirect_dispatch(self):
        pb = ProgramBuilder("switchy")
        main = pb.procedure("main")
        main.block("top", insts=1).cond("dispatch", model=LoopTrip(50))
        main.block("exit", insts=1).halt()
        main.block("dispatch", insts=2).indirect({"case_a": 0.5, "case_b": 0.5})
        main.block("case_a", insts=3).jump("top")
        main.block("case_b", insts=4).jump("top")
        program = pb.build()
        steps = ExecutionEngine(program, seed=9).run_to_list()
        labels = {s.block.label for s in steps}
        assert "case_a" in labels and "case_b" in labels
