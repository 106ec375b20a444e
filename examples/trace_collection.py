#!/usr/bin/env python3
"""Two-phase methodology: collect a trace once, replay it for every
selector — exactly how the paper uses Pin (Section 2.3, footnote 4).

The binary trace file decouples program execution from region
selection: every algorithm sees the identical basic-block stream, so
metric differences are attributable to selection alone.  The file
keeps only what the program cannot supply: one bit per executed
conditional branch and the target of each executed indirect jump.

Run:  python examples/trace_collection.py
"""

import os
import tempfile

from repro import ExecutionEngine, Simulator, SystemConfig, replay_trace
from repro.tracing import collect_trace, replay_trace_into, trace_header
from repro.workloads import build_benchmark


def main() -> None:
    program = build_benchmark("mcf", scale=0.3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mcf.rtrc")

        # Phase 1: collect (the Pin role).
        engine = ExecutionEngine(program, seed=42)
        steps = collect_trace(engine, path)
        header = trace_header(path)
        print(f"collected {steps} steps of {header.program_name!r} "
              f"(seed {header.seed}) into {os.path.getsize(path)} bytes\n")

        # Phase 2: replay the identical stream through each selector
        # (pushed, so it runs on the simulator's fused core).
        config = SystemConfig()
        print(f"{'selector':14s} {'hit%':>7s} {'regions':>8s} {'transitions':>12s}")
        for selector in ("net", "lei", "combined-net", "combined-lei"):
            simulator = Simulator(program, selector, config)
            result = simulator.run_push(
                lambda consume: replay_trace_into(path, program, consume))
            print(f"{selector:14s} {100 * result.hit_rate:7.2f} "
                  f"{result.region_count:8d} {result.region_transitions:12d}")

        # Determinism check: a live run gives bit-identical metrics to
        # the reference replay (pulled into the reference state machine).
        live = Simulator(program, "lei", config).run(
            ExecutionEngine(program, seed=42).run()
        )
        replayed = Simulator(program, "lei", config).run(
            replay_trace(path, program)
        )
        assert live.region_transitions == replayed.region_transitions
        assert live.hit_rate == replayed.hit_rate
        print("\nlive and replayed LEI runs are identical — selection is a")
        print("pure function of the basic-block stream.")


if __name__ == "__main__":
    main()
