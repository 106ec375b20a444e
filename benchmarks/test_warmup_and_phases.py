"""Transient behaviour: warm-up speed and phase-change effects.

Two claims from the paper's discussion become measurable with timeline
sampling:

* Selection thresholds delay hotness (Sections 2.1/3.2): every selector
  spends an initial stretch interpreting; LEI's lower threshold (35 vs
  50) and immediate ``jump newT`` make its warm-up no slower than NET's
  despite forming bigger traces.
* Phases (Section 4.3.1): trace combination "relies on current
  execution being representative of future execution.  This is often
  not the case, as programs have been shown to execute different paths
  in different phases" — a phase flip that left the selected regions
  cold would show up as a windowed hit-rate dip after warm-up.
"""

from repro.analysis.timeline import (
    coldest_window,
    first_hot_window,
    phase_shifts,
    window_rates,
)
from repro.config import SystemConfig
from repro.system.simulator import simulate
from repro.workloads import build_benchmark

SELECTORS = ("net", "lei", "combined-net", "combined-lei")


def run_warmups(scale, seed=1, window=1000):
    rows = []
    for bench in ("gzip", "mcf", "vortex"):
        program = build_benchmark(bench, scale=scale)
        cells = {}
        for selector in SELECTORS:
            result = simulate(program, selector, SystemConfig(), seed=seed,
                              sample_every=window)
            cells[selector] = first_hot_window(result.samples, threshold=0.95)
        rows.append((bench, cells))
    return rows


def test_warmup_speed(ablation_scale, benchmark, record_text):
    rows = benchmark.pedantic(
        run_warmups, args=(ablation_scale,), rounds=1, iterations=1
    )
    lines = ["Warm-up: end step of the first 1000-step window with >=95% hit rate"]
    lines.append(f"{'bench':8s}  " + "  ".join(f"{s:>13s}" for s in SELECTORS))
    for bench, cells in rows:
        lines.append(f"{bench:8s}  " + "  ".join(
            f"{cells[s] if cells[s] is not None else 'never':>13}"
            for s in SELECTORS
        ))
    record_text("warmup-speed", "\n".join(lines))

    for bench, cells in rows:
        for selector, step in cells.items():
            assert step is not None, (bench, selector)
        # LEI's lower threshold must not warm slower than NET by more
        # than one sampling window.
        assert cells["lei"] <= cells["net"] + 1000, bench


def test_phase_change_dips_hit_rate(ablation_scale, benchmark, record_text):
    """perlbmk's opcode mix flips every 40k engine steps.  The table
    shows whether a flip dents the windowed hit rate once the run is
    warm; the windows start at step 0, so warm-up is in the table too."""
    program = build_benchmark("perlbmk", scale=max(ablation_scale, 0.25))
    result = benchmark.pedantic(
        simulate, args=(program, "combined-net"),
        kwargs={"seed": 1, "sample_every": 5000}, rounds=1, iterations=1,
    )
    rates = window_rates(result.samples)
    coldest = coldest_window(result.samples)
    assert coldest is not None
    # Warm-up ends with the first window at >=95%.
    warm_end = first_hot_window(result.samples, threshold=0.95)
    assert warm_end is not None
    warm = [r for r in rates if r.start_step >= warm_end]
    drop, into = max(
        (before.hit_rate - after.hit_rate, after)
        for before, after in zip(warm, warm[1:])
    )
    shifts = phase_shifts(result.samples)
    lines = ["Phase behaviour (perlbmk, combined-net, 5000-step windows):"]
    for rate in rates[:12]:
        lines.append(f"  {rate.start_step:7d}-{rate.end_step:<7d} "
                     f"hit={100 * rate.hit_rate:6.2f}%")
    lines.append(f"coldest window after the first: {coldest.start_step}-"
                 f"{coldest.end_step} at {100 * coldest.hit_rate:.2f}% "
                 f"(warm-up: the first window at >=95% ends at {warm_end})")
    lines.append(f"after warm-up: {100 * min(r.hit_rate for r in warm):.2f}-"
                 f"{100 * max(r.hit_rate for r in warm):.2f}% per window; "
                 f"largest drop {100 * drop:.2f} points, into "
                 f"{into.start_step}-{into.end_step}")
    lines.append(f"phase shifts: {len(shifts)}")
    for shift in shifts:
        lines.append(f"  step {shift.step}: {shift.signal} {shift.move}")
    record_text("phase-dips", "\n".join(lines))

    # coldest_window skips only the first window; warm-up lasts longer
    # than that, so the coldest window it finds is still warm-up, colder
    # than the median of the windows after the first.
    steady = sorted(r.hit_rate for r in rates[1:])
    median = steady[len(steady) // 2]
    assert coldest.hit_rate < median
    assert coldest.end_step <= warm_end
