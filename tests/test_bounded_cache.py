"""Tests for the bounded code cache extension.

The paper argues (Section 2.3) that its algorithms "should help improve
the performance of dynamic optimization systems with bounded code
caches, because our algorithms reduce code duplication and produce
fewer cached regions.  This improves memory performance, reduces the
overhead of cache management, and regenerates fewer evicted regions."
These tests make that argument executable.
"""

import pytest

from repro.cache.codecache import BoundedCodeCache, CodeCache, make_cache
from repro.cache.region import TraceRegion
from repro.cache.sizing import STUB_BYTES
from repro.config import SystemConfig
from repro.errors import CacheError, ConfigError
from repro.system.simulator import simulate
from repro.workloads import build_benchmark

from .identity import fingerprint


def B(program, label):
    return program.block_by_full_label(label)


@pytest.fixture
def regions(diamond_program):
    """Five small distinct regions to fill caches with."""
    labels = ["A", "B", "C", "D", "E"]
    return [TraceRegion([B(diamond_program, f"main:{label}")]) for label in labels]


class TestMakeCache:
    def test_none_capacity_gives_unbounded(self):
        assert type(make_cache(None)) is CodeCache

    def test_capacity_gives_bounded(self):
        cache = make_cache(1024, "fifo")
        assert isinstance(cache, BoundedCodeCache)
        assert cache.policy == "fifo"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CacheError):
            BoundedCodeCache(0)
        with pytest.raises(CacheError):
            BoundedCodeCache(100, policy="lru")
        with pytest.raises(ConfigError):
            SystemConfig(cache_eviction_policy="lru")
        with pytest.raises(ConfigError):
            SystemConfig(cache_capacity_bytes=0)


class TestFifoEviction:
    def test_oldest_evicted_first(self, regions):
        size = regions[0].instruction_bytes + STUB_BYTES * regions[0].exit_stub_count
        cache = BoundedCodeCache(capacity_bytes=3 * size + 1, policy="fifo")
        for region in regions[:4]:
            cache.insert(region)
        assert not cache.contains_entry(regions[0].entry)  # evicted
        assert cache.contains_entry(regions[3].entry)
        assert cache.evictions >= 1

    def test_regions_list_keeps_evicted_work(self, regions):
        cache = BoundedCodeCache(capacity_bytes=40, policy="fifo")
        for region in regions:
            cache.insert(region)
        assert cache.region_count == 5  # all selections are optimizer work
        assert cache.resident_count < 5

    def test_regeneration_detected(self, regions, diamond_program):
        size = regions[0].instruction_bytes + STUB_BYTES * regions[0].exit_stub_count
        cache = BoundedCodeCache(capacity_bytes=2 * size + 1, policy="fifo")
        cache.insert(regions[0])
        cache.insert(regions[1])
        cache.insert(regions[2])  # evicts regions[0]
        again = TraceRegion([B(diamond_program, "main:A")])
        cache.insert(again)  # same entry as regions[0]
        assert cache.regenerations == 1


class TestFlushEviction:
    def test_flush_empties_everything(self, regions):
        size = regions[0].instruction_bytes + STUB_BYTES * regions[0].exit_stub_count
        cache = BoundedCodeCache(capacity_bytes=2 * size + 1, policy="flush")
        cache.insert(regions[0])
        cache.insert(regions[1])
        cache.insert(regions[2])  # triggers flush, then inserts
        assert cache.flushes == 1
        assert cache.evictions == 2
        assert cache.resident_count == 1
        assert cache.contains_entry(regions[2].entry)

    def test_oversized_region_still_inserts_alone(self, regions):
        cache = BoundedCodeCache(capacity_bytes=1, policy="flush")
        cache.insert(regions[0])
        assert cache.resident_count == 1


class TestBoundedSimulation:
    @pytest.fixture(scope="class")
    def capacity(self):
        # Just below the ~1.2 KiB the NET run needs on this workload:
        # the near-fit regime the paper's Section 2.3 argument is about
        # (under extreme thrash both algorithms regenerate constantly
        # and the ordering is noise).
        return 1000

    def _run(self, selector, capacity, policy="fifo"):
        program = build_benchmark("eon", scale=0.3)
        config = SystemConfig(
            cache_capacity_bytes=capacity, cache_eviction_policy=policy
        )
        return simulate(program, selector, config, seed=1)

    def test_bounded_run_evicts_and_regenerates(self, capacity):
        result = self._run("net", capacity)
        assert result.cache_evictions > 0
        assert result.regenerated_regions > 0
        assert result.total_instructions_executed > 0

    def test_unbounded_run_never_evicts(self):
        program = build_benchmark("eon", scale=0.3)
        result = simulate(program, "net", SystemConfig(), seed=1)
        assert result.cache_evictions == 0
        assert result.cache_flushes == 0
        assert result.regenerated_regions == 0

    def test_lei_regenerates_no_more_than_net(self, capacity):
        """The paper's Section 2.3 prediction: less duplication and fewer
        regions mean fewer regenerated regions under pressure."""
        net = self._run("net", capacity)
        lei = self._run("lei", capacity)
        assert lei.regenerated_regions <= net.regenerated_regions
        # Fewer regenerations shows up as more execution from the cache.
        assert lei.hit_rate >= net.hit_rate

    def test_flush_policy_runs(self, capacity):
        result = self._run("net", capacity, policy="flush")
        assert result.cache_flushes > 0

    def test_tighter_capacity_more_evictions(self):
        loose = self._run("net", 1200)
        tight = self._run("net", 250)
        assert tight.cache_evictions >= loose.cache_evictions

    @pytest.mark.parametrize("policy", ["fifo", "flush"])
    def test_the_configured_stub_size_is_charged(self, policy, monkeypatch):
        """With 40 bytes per stub, the residents' footprint at 40 bytes
        per stub never exceeds the capacity, and it is what the cache
        counts, lays out and estimates."""
        program = build_benchmark("gzip", scale=0.05)
        config = SystemConfig(cache_capacity_bytes=600,
                              cache_eviction_policy=policy, stub_bytes=40)
        footprints = []
        insert = BoundedCodeCache.insert

        def checked(cache, region):
            installed = insert(cache, region)
            footprint = sum(r.instruction_bytes + 40 * r.exit_stub_count
                            for r in cache.resident_regions)
            assert footprint == cache.resident_bytes
            footprints.append(footprint)
            return installed

        monkeypatch.setattr(BoundedCodeCache, "insert", checked)
        result = simulate(program, "net", config, seed=1)
        assert result.cache_evictions > 0
        assert footprints and max(footprints) <= 600
        regions = result.regions
        for region, after in zip(regions, regions[1:]):
            assert after.cache_address == (
                region.cache_address + region.instruction_bytes
                + 40 * region.exit_stub_count)
        assert result.cache_size_estimate == sum(
            result.cache.region_bytes(region) for region in regions)
        assert fingerprint(result) == fingerprint(
            simulate(program, "net", config, seed=1, fast=False))

    def test_hit_rate_degrades_gracefully_under_pressure(self, capacity):
        bounded = self._run("net", capacity)
        program = build_benchmark("eon", scale=0.3)
        unbounded = simulate(program, "net", SystemConfig(), seed=1)
        assert bounded.hit_rate <= unbounded.hit_rate + 1e-9
        assert bounded.hit_rate > 0.3  # still mostly cached
