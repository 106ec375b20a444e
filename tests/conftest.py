"""Shared fixtures: small, fully-understood programs used across tests."""

from __future__ import annotations

import pytest

from repro.behavior.models import Bernoulli, LoopTrip, NeverTaken, Periodic
from repro.program.builder import ProgramBuilder


@pytest.fixture
def fleet_kernel(monkeypatch):
    """Force ``run_fleet`` onto the fleet kernel at the shipped cutover.

    ``run_fleet`` sends a fleet too narrow to fill a vector round to
    the fused core, which is every test-sized fleet; tests of kernel
    scheduling (slots, refills, the straggler loop) patch the width
    rule so numpy fleets build the kernel regardless.  The kernel is
    numpy-only, so python-backend fleets keep the fused core and
    kernel tests pass ``backend="numpy"`` explicitly.
    """
    pytest.importorskip("numpy")
    from repro.batch import fleet as fleet_mod

    monkeypatch.setattr(fleet_mod, "vector_rounds_possible",
                        lambda backend, live_lanes: backend == "numpy")


@pytest.fixture
def straight_line_program():
    """main: A -> B -> C -> halt (pure fall-throughs)."""
    pb = ProgramBuilder("straight")
    main = pb.procedure("main")
    main.block("A", insts=2)
    main.block("B", insts=3)
    main.block("C", insts=1).halt()
    return pb.build()


@pytest.fixture
def simple_loop_program():
    """A single-block self loop executed 100 times, then exit.

    head(4 insts) --taken--> head ... 100 trips, then falls through to
    done, which halts.
    """
    pb = ProgramBuilder("loop")
    main = pb.procedure("main")
    main.block("head", insts=4).cond("head", model=LoopTrip(100))
    main.block("done", insts=1).halt()
    return pb.build()


@pytest.fixture
def nested_loop_program():
    """The paper's Figure 3 shape: outer loop A,(B inner),C.

    * A: outer-loop header (falls through into B).
    * B: inner loop, self back edge taken 9 times per activation.
    * C: outer-loop tail, back edge to A taken per outer trip count.
    """
    pb = ProgramBuilder("nested")
    main = pb.procedure("main")
    main.block("A", insts=3)
    main.block("B", insts=5).cond("B", model=LoopTrip(10))
    main.block("C", insts=2).cond("A", model=LoopTrip(50))
    main.block("done", insts=1).halt()
    return pb.build()


@pytest.fixture
def call_loop_program():
    """Figure 2's shape: a loop whose dominant path calls a function at a
    *lower* address, making the call a backward branch.

    Layout order: helper first (lower addresses), then main.
    main loop: A -> B(call helper) -> back to A.
    helper: E -> F -> return.
    """
    pb = ProgramBuilder("call_loop", entry="main")
    helper = pb.procedure("helper")
    helper.block("E", insts=4)
    helper.block("F", insts=2).ret()
    main = pb.procedure("main")
    main.block("A", insts=3)
    main.block("B", insts=2).call("helper")
    main.block("D", insts=2).cond("A", model=LoopTrip(200))
    main.block("done", insts=1).halt()
    return pb.build()


@pytest.fixture
def diamond_program():
    """Figure 4's shape: unbiased branch then biased branch.

    A: unbiased split (50/50) to B (taken) or C (fall-through);
    both rejoin at D; D: biased split to F (90% taken) or E;
    E and F jump back to A, loop driven by a trip-counted branch in F.
    """
    pb = ProgramBuilder("diamond")
    main = pb.procedure("main")
    main.block("A", insts=2).cond("B", model=Periodic([True, False]))
    main.block("C", insts=3).jump("D")
    main.block("B", insts=3).jump("D")
    main.block("D", insts=2).cond("F", model=Bernoulli(0.9))
    main.block("E", insts=4).jump("A2")
    main.block("F", insts=4)
    main.block("A2", insts=1).cond("A", model=LoopTrip(400))
    main.block("done", insts=1).halt()
    return pb.build()
