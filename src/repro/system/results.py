"""Raw results of one simulated run.

:class:`RunResult` carries everything the metrics package needs; it
performs no analysis itself beyond simple derived properties (hit rate,
expansion totals) so that each Section 2.3 metric lives in exactly one
place under :mod:`repro.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from repro.cache.codecache import CodeCache
from repro.cache.region import Region
from repro.cache.sizing import estimate_cache_bytes
from repro.program.cfg import BasicBlock


class TimelineSample(NamedTuple):
    """A point on the run's timeline (cumulative values at ``step``).

    Recorded by the simulator when ``sample_every`` is set; the
    analysis helpers in :mod:`repro.analysis.timeline` turn consecutive
    samples into windowed rates (warm-up curves, phase effects).
    """

    step: int
    interp_instructions: int
    cache_instructions: int
    regions_selected: int
    region_transitions: int

    @property
    def total_instructions(self) -> int:
        return self.interp_instructions + self.cache_instructions


class RunStats:
    """Mutable counters the simulator updates on its hot path."""

    __slots__ = (
        "interp_steps",
        "interp_instructions",
        "cache_steps",
        "cache_instructions",
        "cache_entries",
        "cache_exits",
        "region_transitions",
    )

    def __init__(self) -> None:
        self.interp_steps = 0
        self.interp_instructions = 0
        self.cache_steps = 0
        self.cache_instructions = 0
        #: Entries into the cache from the interpreter.
        self.cache_entries = 0
        #: Exits from the cache back to the interpreter.
        self.cache_exits = 0
        #: Direct region-to-region jumps (linked exits) — the locality
        #: metric of Section 2.3.
        self.region_transitions = 0


@dataclass
class RunResult:
    """Everything measured in one (program, selector) simulation."""

    program_name: str
    selector_name: str
    stats: RunStats
    cache: CodeCache
    #: Executed original-program edges: (src block, dst block) -> count.
    edge_profile: Dict[Tuple[BasicBlock, BasicBlock], int]
    peak_counters: int
    peak_observed_trace_bytes: int
    selector_diagnostics: Dict[str, int] = field(default_factory=dict)
    #: Timeline samples (empty unless the simulator sampled).
    samples: List[TimelineSample] = field(default_factory=list)
    #: The I-cache model the run fetched through, if any.
    icache: object = None
    #: Metrics-registry snapshot (see :mod:`repro.obs.metrics`); empty
    #: when the run was not observed with metrics enabled.  Instrument
    #: values reconcile with this result's own aggregates — e.g.
    #: ``metrics["regions_installed_total"]`` totals ``region_count``.
    metrics: Dict[str, dict] = field(default_factory=dict)

    # -- derived convenience --------------------------------------------
    @property
    def regions(self) -> List[Region]:
        return self.cache.regions

    @property
    def region_count(self) -> int:
        return len(self.cache.regions)

    @property
    def total_instructions_executed(self) -> int:
        return self.stats.interp_instructions + self.stats.cache_instructions

    @property
    def hit_rate(self) -> float:
        """Fraction of executed instructions run from the code cache."""
        total = self.total_instructions_executed
        if total == 0:
            return 0.0
        return self.stats.cache_instructions / total

    @property
    def code_expansion(self) -> int:
        """Instructions copied into the code cache (Section 2.3)."""
        return self.cache.total_instructions

    @property
    def exit_stubs(self) -> int:
        return self.cache.total_exit_stubs

    @property
    def region_transitions(self) -> int:
        return self.stats.region_transitions

    @property
    def cache_size_estimate(self) -> int:
        """Section 4.3.4 estimate: instruction bytes plus the config's
        ``stub_bytes`` (10 B by default) per stub, as the cache charges."""
        return estimate_cache_bytes(self.cache.regions, self.cache.stub_bytes)

    # -- cache management (nonzero only with a bounded cache) -----------
    @property
    def cache_evictions(self) -> int:
        return self.cache.evictions

    @property
    def cache_flushes(self) -> int:
        return self.cache.flushes

    @property
    def regenerated_regions(self) -> int:
        """Regions re-selected after their earlier copy was evicted."""
        return self.cache.regenerations

    @property
    def average_trace_instructions(self) -> float:
        """Mean instructions per region (the paper's 14.8 → 18.3 stat)."""
        if not self.cache.regions:
            return 0.0
        return self.code_expansion / len(self.cache.regions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RunResult {self.program_name}/{self.selector_name} "
            f"hit={self.hit_rate:.4f} regions={self.region_count} "
            f"transitions={self.region_transitions}>"
        )
