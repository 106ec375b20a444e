"""The code cache: region storage, entry lookup, insertion order.

Two variants:

* :class:`CodeCache` — unbounded, per Section 2.3: the paper
  deliberately factors cache management out of the region-selection
  study.
* :class:`BoundedCodeCache` — the extension the paper motivates
  ("our region-selection algorithms should help improve the
  performance of dynamic optimization systems with bounded code
  caches, because our algorithms reduce code duplication and produce
  fewer cached regions"): a byte-capacity cache with either Dynamo's
  preemptive *flush* policy or *FIFO* eviction, tracking evictions and
  regenerated regions.

Regions are addressed by their entry block — regions are single-entry,
so "is this branch target cached?" is exactly "does a *resident*
region's entry sit at this address?".  The ``regions`` list records
every region ever selected (eviction does not erase the optimizer work
already spent), which is what the code-expansion and cover-set metrics
are defined over.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, TYPE_CHECKING

from repro.cache.region import Region
from repro.cache.sizing import STUB_BYTES
from repro.errors import CacheError
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.program.cfg import BasicBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.dispatch import DispatchTable


class CodeCache:
    """Unbounded cache of selected regions, addressable by entry block.

    A region's footprint is its instruction bytes plus ``stub_bytes``
    per exit stub (the config's ``stub_bytes``, which Figure 18's size
    estimate charges too).
    """

    def __init__(self, stub_bytes: int = STUB_BYTES) -> None:
        #: Observability handle (rebound by the simulator); the cache
        #: emits ``region_installed`` / ``cache_evicted`` /
        #: ``cache_flushed`` events and the install-side metrics, so
        #: every selector is covered from one place.
        self.observer: Observer = NULL_OBSERVER
        #: Every region ever selected, in selection order.
        self.regions: List[Region] = []
        #: Residency.  Insertion order is selection order: a region is
        #: added when it is selected and removed when it is retired.
        self._by_entry: Dict[BasicBlock, Region] = {}
        self.stub_bytes = stub_bytes
        #: Footprint of the resident regions, kept as a running count.
        self.resident_bytes = 0
        #: The active run's dispatch-compilation layer
        #: (:class:`~repro.cache.dispatch.DispatchTable`), bound by the
        #: fused fast path for the duration of one run so installs and
        #: evictions keep walk tables and trace links patched.
        self.dispatch: Optional["DispatchTable"] = None
        self._next_order = 0
        #: Simulation clock (step index), advanced by the simulator so
        #: insertions can be timestamped for timeline analysis.
        self.now = 0
        #: Next free byte in the cache's layout; regions are allocated
        #: contiguously in selection order (fragmentation from eviction
        #: is not modelled — evicted space is simply not reused).
        self._alloc_cursor = 0
        # Management statistics (always zero for the unbounded cache).
        self.evictions = 0
        self.flushes = 0
        self.regenerations = 0

    def bind_dispatch(self, dispatch: "DispatchTable") -> None:
        """Attach one run's dispatch layer; compiles resident regions.

        While bound, every install/evict/flush keeps the dispatch's
        walk tables and link patches in sync with residency.  The fast
        path unbinds it when the run ends (tables hold per-run decision
        closures and must not leak into the next run).
        """
        self.dispatch = dispatch
        for region in self.resident_regions:
            dispatch.install(region)

    def unbind_dispatch(self) -> None:
        self.dispatch = None

    def lookup(self, block: Optional[BasicBlock]) -> Optional[Region]:
        """Return the *resident* region whose entry is ``block``, if any.

        This is the HASH-LOOKUP(code cache, tgt) of Figures 5 and 13;
        it is on the hot path for every taken branch and every region
        exit.
        """
        if block is None:
            return None
        return self._by_entry.get(block)

    def contains_entry(self, block: BasicBlock) -> bool:
        return block in self._by_entry

    def insert(self, region: Region) -> Region:
        """Install a region; its entry must not be resident already."""
        existing = self._by_entry.get(region.entry)
        if existing is not None:
            raise CacheError(
                f"entry {region.entry.full_label} already owned by region "
                f"#{existing.selection_order}"
            )
        self._make_room(region)
        size = self.region_bytes(region)
        region.selection_order = self._next_order
        region.selected_at_step = self.now
        region.cache_address = self._alloc_cursor
        self._alloc_cursor += size
        self.resident_bytes += size
        self._next_order += 1
        self.regions.append(region)
        self._by_entry[region.entry] = region
        dispatch = self.dispatch
        if dispatch is not None:
            dispatch.install(region)
        observer = self.observer
        if observer.metrics is not None:
            observer.count("regions_installed_total", kind=region.kind)
            observer.metrics.histogram(
                "region_instructions",
                "Instructions copied into the cache per installed region.",
            ).observe(region.instruction_count)
        if observer.events_enabled:
            observer.emit(
                "region_installed",
                self.now,
                entry=region.entry.full_label,
                region_kind=region.kind,
                order=region.selection_order,
                blocks=len(region.block_list),
                instructions=region.instruction_count,
                stubs=region.exit_stub_count,
                spans_cycle=region.spans_cycle,
            )
        return region

    def _make_room(self, region: Region) -> None:
        """Hook for bounded caches; the unbounded cache never evicts."""

    # -- residency -------------------------------------------------------
    @property
    def resident_regions(self) -> List[Region]:
        """Regions currently addressable, in selection order."""
        return list(self._by_entry.values())

    @property
    def resident_count(self) -> int:
        return len(self._by_entry)

    def region_bytes(self, region: Region) -> int:
        """Cache footprint of one region (instruction bytes + stubs)."""
        return (region.instruction_bytes
                + self.stub_bytes * region.exit_stub_count)

    # -- aggregate static properties (over everything ever selected) ----
    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def total_instructions(self) -> int:
        """Total instructions copied into the cache (code expansion).

        Counts every selection, including regenerated regions: it
        measures optimizer work done, per Section 2.3.
        """
        return sum(region.instruction_count for region in self.regions)

    @property
    def total_exit_stubs(self) -> int:
        return sum(region.exit_stub_count for region in self.regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} selected={len(self.regions)} "
            f"resident={self.resident_count} insts={self.total_instructions}>"
        )


class BoundedCodeCache(CodeCache):
    """A byte-capacity code cache with flush or FIFO eviction.

    ``policy="flush"`` models Dynamo's preemptive flush: when a new
    region does not fit, the entire cache is emptied (cheap, exploits
    phase changes).  ``policy="fifo"`` evicts the oldest resident
    regions until the new one fits (Hazelwood [14] studies richer
    policies; FIFO is the classic baseline).
    """

    def __init__(self, capacity_bytes: int, policy: str = "flush",
                 stub_bytes: int = STUB_BYTES) -> None:
        super().__init__(stub_bytes)
        if capacity_bytes < 1:
            raise CacheError(f"capacity must be positive, got {capacity_bytes}")
        if policy not in ("flush", "fifo"):
            raise CacheError(f"unknown eviction policy {policy!r}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._ever_evicted: Set[BasicBlock] = set()

    def insert(self, region: Region) -> Region:
        installed = super().insert(region)
        if region.entry in self._ever_evicted:
            # The selector re-selected a region it had already formed
            # once: pure management overhead the paper's algorithms
            # reduce by caching less.
            self.regenerations += 1
            self.observer.count("cache_regenerations_total")
        return installed

    def _make_room(self, region: Region) -> None:
        needed = self.region_bytes(region)
        if self.resident_bytes + needed <= self.capacity_bytes:
            return
        if self.policy == "flush":
            self._flush()
        else:
            self._evict_fifo(needed)

    def _retire_region(self, victim: Region, policy: str) -> None:
        """The one eviction path — every victim leaves through here.

        Drops residency, invalidates the victim's walk table and every
        trace link patched to point at it (when a run's dispatch layer
        is bound — a stale link would chain execution into evicted
        code), records it for regeneration accounting, and emits the
        eviction metric and event.  Both the flush and FIFO policies
        delegate here so per-region derived state can never be cleared
        in one place and leak in another.
        """
        del self._by_entry[victim.entry]
        size = self.region_bytes(victim)
        self.resident_bytes -= size
        dispatch = self.dispatch
        if dispatch is not None:
            dispatch.retire(victim)
        self._ever_evicted.add(victim.entry)
        self.evictions += 1
        observer = self.observer
        if observer.metrics is not None:
            observer.count("cache_evictions_total", policy=policy)
        if observer.events_enabled:
            observer.emit(
                "cache_evicted",
                self.now,
                entry=victim.entry.full_label,
                order=victim.selection_order,
                bytes=size,
                policy=policy,
            )

    def _flush(self) -> None:
        self.flushes += 1
        victims = self.resident_regions
        freed = self.resident_bytes
        observer = self.observer
        if observer.metrics is not None:
            observer.count("cache_flushes_total")
        for victim in victims:
            self._retire_region(victim, "flush")
        if observer.events_enabled:
            observer.emit(
                "cache_flushed", self.now, regions=len(victims), bytes=freed
            )

    def _evict_fifo(self, needed: int) -> None:
        for victim in self.resident_regions:
            if self.resident_bytes + needed <= self.capacity_bytes:
                return
            self._retire_region(victim, "fifo")


def make_cache(
    capacity_bytes: Optional[int] = None,
    policy: str = "flush",
    stub_bytes: int = STUB_BYTES,
) -> CodeCache:
    """Build the cache a config asks for (unbounded when no capacity)."""
    if capacity_bytes is None:
        return CodeCache(stub_bytes)
    return BoundedCodeCache(capacity_bytes, policy, stub_bytes)
