"""The one run fingerprint every identity test compares.

Two runs of one program agree when their fingerprints are equal: the
metric report, the raw statistics, the edge profile, the selector's
diagnostics and peaks, the timeline samples, the icache counts, the
cache's evictions, and every selected region's own counters in
selection order.  No ``MetricReport`` field reads per-region entry or
exit counts, so the last part is what holds the fused walk's linked
exits to the reference's.

Blocks are named by label, so runs of two builds of one program (a
fleet builds its own) compare too.
"""

from repro.metrics.summary import MetricReport


def fingerprint(result):
    """Everything a run measures, in comparable form."""
    icache = result.icache
    return (
        MetricReport.from_result(result),
        {name: getattr(result.stats, name)
         for name in result.stats.__slots__},
        {(src.full_label, dst.full_label): count
         for (src, dst), count in result.edge_profile.items()},
        result.selector_diagnostics,
        result.peak_counters,
        result.peak_observed_trace_bytes,
        result.samples,
        None if icache is None else (icache.accesses, icache.misses),
        (result.cache_evictions, result.cache_flushes,
         result.regenerated_regions),
        # Every selected region, evicted ones included, in selection
        # order.
        [(region.entry.full_label, region.kind, region.instruction_count,
          region.selected_at_step, region.entry_count, region.exit_count,
          region.cycle_backs, region.executed_instructions)
         for region in result.regions],
    )
