#!/usr/bin/env python3
"""Extending the framework with a custom region-selection algorithm.

The paper's framework "abstracted all details of region selection"
(footnote 4) so algorithms can be swapped freely; this library keeps
that property: implementing :class:`repro.RegionSelector` is all it
takes.  Section 5's comparators (Mojo, BOA, Wiggins/Redstone) already
ship in :mod:`repro.selection.related`; here we add the *other* classic
design from the paper's introduction — a **whole-method** selector in
the style of method-based JITs (Jikes RVM): once a procedure's entry
has executed often enough, cache the entire procedure as one
single-entry multi-path region.

Method regions never duplicate code, but they cache cold blocks and
split interprocedural hot paths at every call — which is exactly why
trace-based systems exist.

Run:  python examples/custom_selector.py
"""

from typing import Optional

from repro import CFGRegion, SystemConfig, simulate
from repro.cache.codecache import CodeCache
from repro.program.cfg import BasicBlock
from repro.program.program import Program
from repro.selection.base import RegionSelector
from repro.selection.counters import CounterTable
from repro.selection.registry import SELECTOR_FACTORIES
from repro.workloads import build_benchmark


class WholeMethodSelector(RegionSelector):
    """JIT-style region selection: the unit of caching is a procedure."""

    name = "method"
    threshold = 50

    def __init__(self, cache: CodeCache, config: SystemConfig,
                 program: Program) -> None:
        super().__init__(cache, config)
        self.program = program
        self.counters: CounterTable[BasicBlock] = CounterTable()

    def _install_procedure(self, entry: BasicBlock) -> None:
        procedure = entry.procedure
        assert procedure is not None
        blocks = list(procedure.blocks)
        edges = [
            (block, successor)
            for block in blocks
            for successor in self.program.static_successors(block)
            if successor.procedure is procedure
        ]
        self.cache.insert(CFGRegion(entry, blocks, edges))

    def on_interpreted_taken(self, block: BasicBlock, taken: bool,
                             target: Optional[BasicBlock]):
        if target is None or target.procedure is None:
            return None
        entry = target.procedure.entry
        if self.cache.contains_entry(entry):
            return None
        if self.counters.increment(entry) >= self.threshold:
            self.counters.release(entry)
            self._install_procedure(entry)
        return None

    @property
    def peak_counters(self) -> int:
        return self.counters.peak


def main() -> None:
    SELECTOR_FACTORIES["method"] = WholeMethodSelector

    program = build_benchmark("eon", scale=0.5)
    config = SystemConfig()
    print(f"{'selector':10s} {'hit%':>7s} {'regions':>8s} {'expansion':>10s} "
          f"{'stubs':>6s} {'transitions':>12s}")
    for selector in ("method", "net", "lei", "combined-lei"):
        result = simulate(program, selector, config, seed=3)
        print(f"{selector:10s} {100 * result.hit_rate:7.2f} "
              f"{result.region_count:8d} {result.code_expansion:10d} "
              f"{result.exit_stubs:6d} {result.region_transitions:12d}")

    print("\nWhole-method regions avoid duplication entirely but cache cold")
    print("blocks and must jump between regions at every call and return —")
    print("the interprocedural locality that trace selection (and LEI in")
    print("particular) is designed to recover.")


if __name__ == "__main__":
    main()
