"""Property tests for the batched fleet (hypothesis).

The fleet contract says results depend only on each cell's coordinate,
never on which lanes share a batch: *any* partition of a grid into
fleets — any grouping, any order within a group — must produce
per-cell reports identical to the serial oracle.  Hypothesis explores
the partition space; the oracle is computed once per session.  Fleets
this small would run on the fused core, so the properties force the
numpy kernel (``fleet_kernel``) to keep its scheduling under test.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import BatchCell, available_backends, run_fleet
from repro.batch import kernel as kernel_mod
from repro.metrics.summary import MetricReport
from repro.system.simulator import simulate
from repro.batch.fleet import build_fleet_program

BACKENDS = available_backends()

#: A small, heterogeneous grid: three motifs with different region
#: shapes (loop nest, self loop, trace chain) across two selectors.
CELLS = tuple(
    BatchCell(f"micro:{motif}", selector, scale=0.2, seed=seed)
    for motif in ("figure3", "self_loop", "linked_chain")
    for selector in ("net", "lei")
    for seed in (1,)
)


@pytest.fixture(scope="module")
def oracle():
    reports = {}
    for cell in CELLS:
        program = build_fleet_program(cell.benchmark, cell.scale)
        reports[cell] = MetricReport.from_result(
            simulate(program, cell.selector, seed=cell.seed)
        )
    return reports


#: The forced kernel patch is constant across examples, so one
#: function-scoped ``fleet_kernel`` per test is safe under hypothesis.
KERNEL_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(max_examples=12, **KERNEL_SETTINGS)
@given(
    groups=st.lists(st.integers(min_value=0, max_value=2),
                    min_size=len(CELLS), max_size=len(CELLS)),
    order=st.permutations(range(len(CELLS))),
    max_lanes=st.one_of(st.none(),
                        st.integers(min_value=1, max_value=len(CELLS))),
)
def test_any_partition_matches_serial(fleet_kernel, oracle, groups, order,
                                      max_lanes):
    """Shuffle the grid, split it into up to three fleets, run each.

    ``max_lanes`` additionally varies the admission schedule: a fleet
    may run full-width (``None``) or stream its cells through as few as
    one live slot — the reports must not move either way.
    """
    batches = {}
    for position, cell_index in enumerate(order):
        batches.setdefault(groups[position], []).append(CELLS[cell_index])
    merged = {}
    for batch in batches.values():
        fleet = run_fleet(batch, backend="numpy", max_lanes=max_lanes)
        merged.update(fleet.reports)
    assert merged == oracle


#: Mixed-mode pool: trace-resident chains (`net` installs traces), CFG
#: region cells (the combined selectors install multi-path regions),
#: and interp-heavy cells (tiny scales finish before regions dominate).
#: Any subset in any lane order must land every execution mode the
#: kernel distinguishes next to every other one.
MIXED_POOL = tuple(
    BatchCell(f"micro:{motif}", selector, scale=scale, seed=seed)
    for motif, selector, scale, seed in (
        ("linked_chain", "net", 0.2, 1),
        ("linked_chain", "net", 0.2, 2),
        ("figure3", "combined-net", 0.2, 1),
        ("figure4", "combined-lei", 0.2, 1),
        ("self_loop", "combined-net", 0.2, 1),
        ("alternating", "lei", 0.05, 1),
        ("recursion", "net", 0.1, 1),
        ("figure2", "net", 0.05, 1),
    )
)


@pytest.fixture(scope="module")
def mixed_oracle():
    reports = {}
    for cell in MIXED_POOL:
        program = build_fleet_program(cell.benchmark, cell.scale)
        reports[cell] = MetricReport.from_result(
            simulate(program, cell.selector, seed=cell.seed)
        )
    return reports


@settings(max_examples=10, **KERNEL_SETTINGS)
@given(
    order=st.permutations(range(len(MIXED_POOL))),
    size=st.integers(min_value=2, max_value=len(MIXED_POOL)),
    compaction=st.booleans(),
    backend=st.sampled_from(BACKENDS),
    cutover=st.sampled_from((0, kernel_mod.SCALAR_CUTOVER)),
    max_lanes=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_mixed_mode_interleavings_match_serial(fleet_kernel, mixed_oracle,
                                               order, size, compaction,
                                               backend, cutover, max_lanes):
    """Any interleaving of CFG, interp and trace lanes, with compaction
    on or off, the vector path forced or cut over, and any streaming
    admission schedule, is bit-identical to the serial oracle on every
    available backend.  The kernel is forced, so a numpy draw at the
    shipped cutover exercises the kernel's straggler loop; python draws
    run on the fused core."""
    cells = [MIXED_POOL[i] for i in order[:size]]
    old = kernel_mod.SCALAR_CUTOVER
    kernel_mod.SCALAR_CUTOVER = cutover
    try:
        fleet = run_fleet(cells, backend=backend, compaction=compaction,
                          max_lanes=max_lanes)
    finally:
        kernel_mod.SCALAR_CUTOVER = old
    for cell in cells:
        assert fleet.reports[cell] == mixed_oracle[cell]


@settings(max_examples=8, deadline=None)
@given(max_steps=st.integers(min_value=1, max_value=400))
def test_step_budget_is_partition_independent(oracle, max_steps):
    """Truncated fleets agree with truncated serial runs, per cell."""
    fleet = run_fleet(CELLS, max_steps=max_steps)
    for cell in CELLS:
        program = build_fleet_program(cell.benchmark, cell.scale)
        expected = MetricReport.from_result(
            simulate(program, cell.selector, seed=cell.seed,
                     max_steps=max_steps)
        )
        assert fleet.reports[cell] == expected
