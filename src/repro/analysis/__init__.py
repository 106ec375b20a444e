"""Post-run analysis tools.

* :mod:`~repro.analysis.timeline` — warm-up curves, windowed rates and
  phase shifts from the simulator's timeline samples (how fast a
  selector goes hot, and what program phases do to locality);
* :mod:`~repro.analysis.compare` — side-by-side comparison of two runs
  (the paper's "X relative to Y" figures, generalized);
* :mod:`~repro.analysis.inventory` — human-readable region inventories
  and cache summaries (also used by the CLI);
* :mod:`~repro.analysis.serialize` — JSON round-trips for metric
  reports and figure tables, so external tooling can consume results.
"""

from repro.analysis.compare import RunComparison, compare_runs
from repro.analysis.inventory import cache_summary, region_inventory
from repro.analysis.layout import (
    layout_map,
    page_crossing_fraction,
    transition_distances,
)
from repro.analysis.timeline import (
    SignalShift,
    WindowRate,
    coldest_window,
    first_hot_window,
    phase_shifts,
    warmup_step,
    window_rates,
)
from repro.analysis.serialize import (
    figure_to_dict,
    grid_from_dict,
    grid_to_dict,
    load_grid,
    report_from_dict,
    report_to_dict,
    save_grid,
)

__all__ = [
    "WindowRate",
    "window_rates",
    "warmup_step",
    "first_hot_window",
    "coldest_window",
    "SignalShift",
    "phase_shifts",
    "RunComparison",
    "compare_runs",
    "region_inventory",
    "cache_summary",
    "layout_map",
    "transition_distances",
    "page_crossing_fraction",
    "figure_to_dict",
    "report_to_dict",
    "report_from_dict",
    "grid_to_dict",
    "grid_from_dict",
    "save_grid",
    "load_grid",
]
