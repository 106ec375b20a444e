"""Miscellaneous edge cases across the library surface."""

import pytest

from repro.behavior.models import Bernoulli, DecisionContext, PhaseShift
from repro.behavior.rng import SplitMix64
from repro.config import SystemConfig
from repro.errors import ConfigError, ProgramStructureError
from repro.isa.opcodes import BranchKind
from repro.program.builder import ProgramBuilder
from repro.program.cfg import Terminator


class TestBlockAtAddress:
    def test_every_block_byte_resolves(self, call_loop_program):
        for block in call_loop_program.blocks:
            assert call_loop_program.block_at_address(block.address) is block
            assert call_loop_program.block_at_address(block.end_address) is block
            middle = (block.address + block.end_address) // 2
            assert call_loop_program.block_at_address(middle) is block

    def test_padding_gap_rejected(self, call_loop_program):
        # The inter-procedure padding bytes belong to no block.
        helper_last = call_loop_program.block_by_full_label("helper:F")
        with pytest.raises(ProgramStructureError, match="outside"):
            call_loop_program.block_at_address(helper_last.end_address + 1)

    def test_before_image_rejected(self, call_loop_program):
        with pytest.raises(ProgramStructureError):
            call_loop_program.block_at_address(0)


class TestConfigSurface:
    def test_with_overrides_returns_new_config(self):
        base = SystemConfig()
        derived = base.with_overrides(net_threshold=10)
        assert derived.net_threshold == 10
        assert base.net_threshold == 50

    def test_config_is_hashable(self):
        assert hash(SystemConfig()) == hash(SystemConfig())
        assert SystemConfig() != SystemConfig(net_threshold=10)

    @pytest.mark.parametrize("field", [
        "net_threshold", "lei_threshold", "history_buffer_size",
        "max_trace_blocks", "max_trace_instructions", "combine_t_prof",
        "combined_net_t_start", "combined_lei_t_start", "stub_bytes",
        "mojo_exit_threshold", "boa_threshold", "sampling_period",
        "sampling_window",
    ])
    def test_every_threshold_validated(self, field):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**{field: 0})


class TestTerminatorSurface:
    def test_repr_of_direct_and_indirect(self):
        direct = Terminator(BranchKind.JUMP, "target")
        indirect = Terminator(BranchKind.INDIRECT, indirect_refs=("a", "b"))
        assert "jump" in repr(direct)
        assert "indirect" in repr(indirect)
        assert "a" in repr(indirect)

    def test_validator_catches_direct_target_on_return(self):
        pb = ProgramBuilder("badret")
        main = pb.procedure("main")
        handle = main.block("A", insts=1)
        # Bypass the builder: a RETURN must not carry a direct target.
        handle.raw_block.terminator = Terminator(BranchKind.RETURN, "A")
        main.block("B", insts=1).halt()
        with pytest.raises(ProgramStructureError, match="must not have"):
            pb.build()

    def test_validator_catches_indirect_without_model(self):
        pb = ProgramBuilder("badind")
        main = pb.procedure("main")
        handle = main.block("A", insts=1)
        handle.raw_block.terminator = Terminator(
            BranchKind.INDIRECT, indirect_refs=("B",)
        )
        main.block("B", insts=1).halt()
        with pytest.raises(ProgramStructureError, match="target-choice model"):
            pb.build()


class TestDecisionContextSharing:
    def test_models_do_not_leak_state_between_sites(self):
        model = PhaseShift([(10, 1.0), (10, 0.0)])
        ctx_a = DecisionContext(SplitMix64(1), {}, step=5)
        ctx_b = DecisionContext(SplitMix64(1), {}, step=15)
        assert model.next_taken(ctx_a)
        assert not model.next_taken(ctx_b)

    def test_bernoulli_boundary_probabilities(self):
        ctx = DecisionContext(SplitMix64(3), {}, 0)
        assert not any(Bernoulli(0.0).next_taken(ctx) for _ in range(100))
        assert all(Bernoulli(1.0).next_taken(ctx) for _ in range(100))


class TestDotEdgeKinds:
    def test_indirect_and_call_edges_styled(self):
        from repro.behavior.models import LoopTrip
        from repro.program.dot import program_to_dot

        pb = ProgramBuilder("dotty", entry="main")
        helper = pb.procedure("helper")
        helper.block("h", insts=1).ret()
        main = pb.procedure("main")
        main.block("top", insts=1).cond("disp", model=LoopTrip(3))
        main.block("out", insts=1).halt()
        main.block("disp", insts=1).indirect({"c1": 0.5, "c2": 0.5})
        main.block("c1", insts=1).call("helper")
        main.block("back1", insts=1).jump("top")
        main.block("c2", insts=1).jump("top")
        dot = program_to_dot(pb.build())
        assert "style=dashed" in dot    # call edge
        assert "style=dotted" in dot    # indirect edges
        assert 'label="T"' in dot       # conditional taken edge
