"""Property-based tests for the bounded code cache."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.codecache import BoundedCodeCache
from repro.cache.region import TraceRegion
from repro.cache.sizing import STUB_BYTES
from repro.program.builder import ProgramBuilder


@pytest.fixture(scope="module")
def block_pool():
    pb = ProgramBuilder("pool")
    main = pb.procedure("main")
    for i in range(24):
        main.block(f"b{i}", insts=1 + i % 5)
    main.block("end", insts=1).halt()
    program = pb.build()
    return [program.block_by_full_label(f"main:b{i}") for i in range(24)]


COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestBoundedCacheProperties:
    @COMMON
    @given(
        capacity=st.integers(20, 400),
        policy=st.sampled_from(["flush", "fifo"]),
        inserts=st.lists(st.integers(0, 23), min_size=1, max_size=60),
    )
    def test_invariants_hold_under_any_insert_sequence(
        self, block_pool, capacity, policy, inserts
    ):
        cache = BoundedCodeCache(capacity, policy)
        inserted = 0
        for index in inserts:
            block = block_pool[index]
            if cache.contains_entry(block):
                continue  # single-entry invariant: skip duplicates
            region = TraceRegion([block])
            size = region.instruction_bytes + STUB_BYTES * region.exit_stub_count
            cache.insert(region)
            inserted += 1

            # Capacity respected unless a single region exceeds it.
            if size <= capacity:
                assert cache.resident_bytes <= capacity
            # The newest region is always resident.
            assert cache.contains_entry(block)
            # Residency is a subset of everything selected.
            assert cache.resident_count <= cache.region_count
            # Work is never forgotten.
            assert cache.region_count == inserted
            # Selection order is strictly increasing and dense.
            orders = [r.selection_order for r in cache.regions]
            assert orders == list(range(inserted))
            # Eviction bookkeeping is self-consistent.
            assert cache.evictions == inserted - cache.resident_count
            # Layout addresses never overlap (monotonic allocation).
            addresses = [r.cache_address for r in cache.regions]
            assert addresses == sorted(addresses)
            assert len(set(addresses)) == len(addresses)
            # The running byte count is a recount of the residents, and
            # they come in selection order.
            resident = cache.resident_regions
            assert cache.resident_bytes == sum(
                r.instruction_bytes + STUB_BYTES * r.exit_stub_count
                for r in resident)
            resident_orders = [r.selection_order for r in resident]
            assert resident_orders == sorted(resident_orders)
            if policy == "fifo":
                # The residents are the newest selections, and the
                # newest evicted one would not fit beside them.
                count = len(resident)
                assert resident == cache.regions[-count:]
                if count < inserted:
                    last_evicted = cache.regions[-count - 1]
                    assert (cache.resident_bytes
                            + cache.region_bytes(last_evicted) > capacity)

    @COMMON
    @given(
        capacity=st.integers(30, 200),
        rounds=st.integers(2, 6),
    )
    def test_regenerations_count_reselections_exactly(
        self, block_pool, capacity, rounds
    ):
        cache = BoundedCodeCache(capacity, "fifo")
        reinserts = 0
        for _ in range(rounds):
            for block in block_pool[:8]:
                if cache.contains_entry(block):
                    continue
                was_evicted = block in cache._ever_evicted
                cache.insert(TraceRegion([block]))
                if was_evicted:
                    reinserts += 1
        assert cache.regenerations == reinserts
