"""White-box tests of the selection algorithm internals.

These drive FORM-TRACE, the NET recorder, and the combining machinery
directly (no simulator), pinning the paper's pseudocode behaviour
branch by branch.
"""

import pytest

from repro.behavior.models import Bernoulli, LoopTrip
from repro.cache.codecache import CodeCache
from repro.cache.region import TraceRegion
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.program.builder import ProgramBuilder
from repro.selection.history import BranchHistoryBuffer
from repro.selection.lei import form_trace
from repro.selection.net import TraceRecorder


@pytest.fixture
def program():
    """helper (low) + main loop, same shape as the Figure 2 fixture."""
    pb = ProgramBuilder("internals", entry="main")
    helper = pb.procedure("helper")
    helper.block("E", insts=4)
    helper.block("F", insts=2).ret()
    main = pb.procedure("main")
    main.block("A", insts=3)
    main.block("B", insts=2).call("helper")
    main.block("D", insts=2).cond("A", model=LoopTrip(50))
    main.block("done", insts=1).halt()
    return pb.build()


def blocks_of(program, *labels):
    return [program.block_by_full_label(label) for label in labels]


class TestFormTrace:
    def _buffer_with_cycle(self, program):
        """Build the buffer state after one full loop iteration plus the
        cycle-closing branch B->E ... D->A, B->E."""
        a, b, d, e, f = blocks_of(
            program, "main:A", "main:B", "main:D", "helper:E", "helper:F"
        )
        buf = BranchHistoryBuffer(16)
        old = buf.insert(b, e)          # first occurrence of E
        buf.hash_update(e, old.seq)
        buf.insert(f, d)
        buf.insert(d, a)
        buf.insert(b, e)                # cycle closes at E
        return buf, old, (a, b, d, e, f)

    def test_reconstructs_full_interprocedural_cycle(self, program):
        buf, old, (a, b, d, e, f) = self._buffer_with_cycle(program)
        formed = form_trace(buf, e, old.seq, CodeCache(), SystemConfig())
        assert formed is not None
        assert list(formed.blocks) == [e, f, d, a, b]
        assert formed.final_target is e  # spans the cycle

    def test_stops_at_existing_region_entry(self, program):
        buf, old, (a, b, d, e, f) = self._buffer_with_cycle(program)
        cache = CodeCache()
        cache.insert(TraceRegion([d]))  # D already owns a region
        formed = form_trace(buf, e, old.seq, cache, SystemConfig())
        assert formed is not None
        assert list(formed.blocks) == [e, f]
        assert formed.final_target is d  # ends just before the region

    def test_size_limit_cuts_without_cycle(self, program):
        buf, old, (a, b, d, e, f) = self._buffer_with_cycle(program)
        config = SystemConfig(max_trace_blocks=3)
        formed = form_trace(buf, e, old.seq, CodeCache(), config)
        assert formed is not None
        assert len(formed.blocks) == 3
        assert formed.final_target is None

    def test_gap_in_buffer_aborts(self, program):
        """A branch whose source is unreachable by fall-through from the
        previous target must abort, not fabricate a path."""
        a, b, d, e, f = blocks_of(
            program, "main:A", "main:B", "main:D", "helper:E", "helper:F"
        )
        buf = BranchHistoryBuffer(16)
        old = buf.insert(b, e)
        buf.hash_update(e, old.seq)
        # Missing the F->D return: next branch claims src D, but the
        # fall-through walk from E must cross F (a return, cannot fall
        # through) to reach it.
        buf.insert(d, a)
        buf.insert(b, e)
        formed = form_trace(buf, e, old.seq, CodeCache(), SystemConfig())
        assert formed is None

    def test_single_branch_self_cycle(self, program):
        a = program.block_by_full_label("main:A")
        pb2 = ProgramBuilder("selfloop")
        main = pb2.procedure("main")
        main.block("H", insts=2).cond("H", model=LoopTrip(5))
        main.block("end", insts=1).halt()
        p2 = pb2.build()
        h = p2.block_by_full_label("main:H")
        buf = BranchHistoryBuffer(8)
        old = buf.insert(h, h)
        buf.hash_update(h, old.seq)
        buf.insert(h, h)
        formed = form_trace(buf, h, old.seq, CodeCache(), SystemConfig())
        assert formed is not None
        assert list(formed.blocks) == [h]
        assert formed.final_target is h


class TestTraceRecorder:
    def test_diverged_start_abandons(self, program):
        a, b = blocks_of(program, "main:A", "main:B")
        recorder = TraceRecorder(head=b)
        # First fed step executes A, not the head B.
        done = recorder.feed(a, False, b, CodeCache(), SystemConfig())
        assert done
        assert recorder.blocks == []

    def test_stream_end_keeps_partial_trace(self, program):
        a, b = blocks_of(program, "main:A", "main:B")
        recorder = TraceRecorder(head=a)
        done = recorder.feed(a, False, None, CodeCache(), SystemConfig())
        assert done
        assert recorder.blocks == [a]
        assert recorder.final_target is None

    def test_stops_with_backward_branch_included(self, program):
        a, b, d, e, f = blocks_of(
            program, "main:A", "main:B", "main:D", "helper:E", "helper:F"
        )
        recorder = TraceRecorder(head=e)
        cache = CodeCache()
        config = SystemConfig()
        assert not recorder.feed(e, False, f, cache, config)
        # F returns forward to D: trace continues.
        assert not recorder.feed(f, True, d, cache, config)
        # D branches backward to A: trace ends *with* D.
        assert recorder.feed(d, True, a, cache, config)
        assert recorder.blocks == [e, f, d]
        assert recorder.final_target is a

    def test_instruction_limit(self, program):
        a, b = blocks_of(program, "main:A", "main:B")
        config = SystemConfig(max_trace_instructions=3)
        recorder = TraceRecorder(head=a)
        assert recorder.feed(a, False, b, CodeCache(), config)
        assert recorder.blocks == [a]


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj not in (ReproError, Exception):
                    assert issubclass(obj, ReproError), name

    def test_simulator_rejects_foreign_region(self, program):
        """A selector returning a region whose entry is not the branch
        target is a contract violation the simulator must catch."""
        from repro.errors import SelectionError
        from repro.selection.base import RegionSelector
        from repro.selection.registry import SELECTOR_FACTORIES
        from repro.system.simulator import simulate

        class BrokenSelector(RegionSelector):
            name = "broken"

            def on_interpreted_taken(self, block, taken, target):
                wrong_entry = block  # not the target!
                region = TraceRegion([wrong_entry])
                if not self.cache.contains_entry(wrong_entry):
                    self.cache.insert(region)
                return region

            @property
            def peak_counters(self):
                return 0

        SELECTOR_FACTORIES["broken"] = (
            lambda cache, config, program: BrokenSelector(cache, config)
        )
        try:
            with pytest.raises(SelectionError, match="returned a region"):
                simulate(program, "broken")
        finally:
            del SELECTOR_FACTORIES["broken"]
