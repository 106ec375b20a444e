"""Seed-stability analysis: are the headline ratios seed-robust?

The paper's results come from deterministic SPEC runs; our synthetic
programs draw branch outcomes from a seeded PRNG, so any claimed ratio
should be shown stable across seeds before it is trusted.  This module
recomputes a chosen headline ratio under several seeds and reports the
spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Callable, Dict, List, Sequence

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.metrics.summary import MetricReport, safe_ratio
from repro.system.simulator import simulate
from repro.workloads import benchmark_names, build_benchmark

#: A headline ratio: (subject metric, baseline metric) extractor.
RatioExtractor = Callable[[MetricReport, MetricReport], float]


def _suite_ratio(
    subject_selector: str,
    baseline_selector: str,
    attribute: str,
    seed: int,
    scale: float,
    config: SystemConfig,
    benchmarks: Sequence[str],
) -> float:
    """Mean per-benchmark subject/baseline ratio of one metric."""
    ratios: List[float] = []
    for bench in benchmarks:
        program = build_benchmark(bench, scale=scale)
        subject = MetricReport.from_result(
            simulate(program, subject_selector, config, seed=seed)
        )
        baseline = MetricReport.from_result(
            simulate(program, baseline_selector, config, seed=seed)
        )
        ratio = safe_ratio(
            getattr(subject, attribute), getattr(baseline, attribute)
        )
        if ratio is not None:
            ratios.append(ratio)
    if not ratios:
        raise ConfigError(
            f"ratio {attribute} undefined for every benchmark "
            f"({subject_selector} vs {baseline_selector})"
        )
    return fmean(ratios)


@dataclass(frozen=True)
class StabilityReport:
    """Spread of one headline ratio across seeds."""

    subject: str
    baseline: str
    attribute: str
    per_seed: Dict[int, float]

    @property
    def mean(self) -> float:
        return fmean(self.per_seed.values())

    @property
    def spread(self) -> float:
        values = list(self.per_seed.values())
        return max(values) - min(values)

    @property
    def stdev(self) -> float:
        return pstdev(self.per_seed.values())

    def summary_line(self) -> str:
        return (
            f"{self.subject}/{self.baseline} {self.attribute}: "
            f"mean={self.mean:.3f} spread={self.spread:.3f} "
            f"stdev={self.stdev:.3f} over seeds {sorted(self.per_seed)}"
        )


def seed_stability(
    subject_selector: str,
    baseline_selector: str,
    attribute: str,
    seeds: Sequence[int] = (1, 2, 3),
    scale: float = 0.25,
    config: SystemConfig | None = None,
    benchmarks: Sequence[str] | None = None,
) -> StabilityReport:
    """Measure a headline ratio's spread across execution seeds."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    config = config if config is not None else SystemConfig()
    bench_list = tuple(benchmarks) if benchmarks is not None else benchmark_names()
    per_seed = {
        seed: _suite_ratio(
            subject_selector, baseline_selector, attribute,
            seed, scale, config, bench_list,
        )
        for seed in seeds
    }
    return StabilityReport(
        subject=subject_selector,
        baseline=baseline_selector,
        attribute=attribute,
        per_seed=per_seed,
    )
