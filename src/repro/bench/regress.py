"""The bench-regression sentinel (``repro bench --analyze``).

The ±tolerance gate in :mod:`repro.bench.baseline` answers one blunt
question — "did throughput fall off a cliff versus the committed
baseline?".  This module reads the whole measurement more carefully:

* **per-workload deltas** against the pinned baseline, classified into
  ``ok`` / ``warn`` / ``regression`` verdicts at two thresholds (a CI
  gate wants one number; a human reading the report wants the early
  warning too);
* **per-phase deltas**: the share of wall time each profiler phase
  (``interpret``, ``cache_walk``, ``selector_decide``,
  ``region_build``) consumes, compared against the baseline's shares —
  a regression that moved time *between* phases names its suspect even
  when total throughput barely moved;
* **trailing-trajectory statistics**: when several runs are available
  (a JSON list, or several ``BENCH_run.json`` files concatenated), the
  current run is scored against the robust center (median) and spread
  (scaled MAD) of the trailing window, which separates "this machine is
  noisy" from "this commit is slow" better than any fixed tolerance.

Everything returns plain dicts; :func:`format_analysis` renders the
terminal/Markdown report.  Wall-clock numbers are machine-dependent, so
the sentinel is advisory by design — CI runs it as a non-blocking
warning step next to the blunt gate.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError

#: Fractional throughput drop that downgrades a workload to ``warn``.
WARN_TOLERANCE = 0.10
#: Fractional throughput drop classified as a ``regression``.
FAIL_TOLERANCE = 0.25
#: Phase whose share of wall time grew by more than this (absolute,
#: in [0, 1]) is named as the suspect in the verdict notes.
PHASE_SHARE_DELTA = 0.10
#: Trailing trajectory runs considered by the robust statistics.
TRAJECTORY_WINDOW = 5
#: Robust z-score below which the trajectory flags the current run.
TRAJECTORY_Z = 3.0

_VERDICT_RANK = {"ok": 0, "warn": 1, "regression": 2}


def load_trajectory(path: str) -> List[Dict[str, object]]:
    """Load bench runs from ``path``, oldest first.

    Accepts either one run object (the shape ``repro bench`` writes to
    ``BENCH_run.json``) or a JSON list of run objects (a concatenated
    trajectory); a single run normalizes to a one-element list.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"no bench run at {path!r}") from None
    except ValueError as exc:
        raise ConfigError(
            f"bench trajectory {path!r} is not valid JSON: {exc}"
        ) from None
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list) and all(isinstance(r, dict) for r in data):
        return list(data)
    raise ConfigError(
        f"bench trajectory {path!r} must hold a run object or a list of "
        f"run objects"
    )


def robust_center(values: Sequence[float]) -> float:
    """The median (robust location estimator)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_spread(values: Sequence[float]) -> float:
    """Scaled median absolute deviation (consistent with sigma under
    normality: MAD * 1.4826)."""
    center = robust_center(values)
    deviations = [abs(value - center) for value in values]
    return 1.4826 * robust_center(deviations)


def _phase_shares(record: Dict[str, object]) -> Dict[str, float]:
    """Each phase's share of the workload's wall time, in [0, 1]."""
    wall = float(record.get("wall_seconds", 0.0))
    phases = record.get("phases", {})
    if wall <= 0 or not isinstance(phases, dict):
        return {}
    return {
        name: float(data.get("seconds", 0.0)) / wall
        for name, data in phases.items()
    }


def _workload_history(
    trajectory: Sequence[Dict[str, object]], name: str
) -> List[float]:
    """events/sec for ``name`` over the trajectory, oldest first."""
    history = []
    for run in trajectory:
        for record in run.get("workloads", []):
            if record.get("name") == name:
                history.append(float(record.get("events_per_second", 0.0)))
                break
    return history


def _classify(drop: float, warn_tolerance: float,
              fail_tolerance: float) -> str:
    if drop >= fail_tolerance:
        return "regression"
    if drop >= warn_tolerance:
        return "warn"
    return "ok"


def analyze_run(
    run: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
    trajectory: Optional[Sequence[Dict[str, object]]] = None,
    warn_tolerance: float = WARN_TOLERANCE,
    fail_tolerance: float = FAIL_TOLERANCE,
    window: int = TRAJECTORY_WINDOW,
) -> Dict[str, object]:
    """Score one bench run against its baseline and trajectory.

    Returns a verdict document::

        {"verdict": "ok"|"warn"|"regression",
         "workloads": {name: {"verdict": ..., "baseline_ratio": ...,
                              "notes": [...], ...}},
         "fingerprint_changes": [...], ...}

    ``trajectory`` is the full run history *excluding nothing*; if the
    current run is its last element it is dropped from the trailing
    window automatically (a run cannot be evidence about itself).
    """
    base_workloads = {
        record["name"]: record
        for record in (baseline or {}).get("workloads", [])
    }
    history_runs = list(trajectory or [])
    if history_runs and history_runs[-1] is run:
        history_runs = history_runs[:-1]
    history_runs = history_runs[-window:]

    workloads: Dict[str, Dict[str, object]] = {}
    fingerprint_changes: List[str] = []
    worst = "ok"
    for record in run.get("workloads", []):
        name = str(record.get("name"))
        eps = float(record.get("events_per_second", 0.0))
        verdicts: List[str] = []
        notes: List[str] = []
        entry: Dict[str, object] = {
            "events_per_second": eps,
        }

        reference = base_workloads.get(name)
        comparable = (
            reference is not None
            and reference.get("scale") == record.get("scale")
            and reference.get("seed") == record.get("seed")
        )
        if comparable:
            base_eps = float(reference.get("events_per_second", 0.0))
            ratio = eps / base_eps if base_eps > 0 else 0.0
            entry["baseline_ratio"] = round(ratio, 4)
            verdicts.append(
                _classify(1.0 - ratio, warn_tolerance, fail_tolerance)
            )
            if verdicts[-1] != "ok":
                notes.append(
                    f"throughput at {100 * ratio:.0f}% of baseline"
                )
            # Behaviour fingerprint: a perf delta paired with a
            # fingerprint change is not (only) a performance change.
            for field in ("hit_rate", "region_count",
                          "total_instructions", "steps"):
                if record.get(field) != reference.get(field):
                    fingerprint_changes.append(
                        f"{name}: {field} "
                        f"{reference.get(field)} -> {record.get(field)}"
                    )
            # Per-phase shares: name the phase that absorbed the time.
            shares = _phase_shares(record)
            base_shares = _phase_shares(reference)
            grown = {
                phase: shares[phase] - base_shares.get(phase, 0.0)
                for phase in shares
                if shares[phase] - base_shares.get(phase, 0.0)
                >= PHASE_SHARE_DELTA
            }
            if grown:
                entry["phase_share_growth"] = {
                    phase: round(delta, 4)
                    for phase, delta in sorted(grown.items())
                }
                if verdicts[-1] != "ok":
                    suspects = ", ".join(sorted(grown))
                    notes.append(f"wall-time share grew in: {suspects}")
        else:
            entry["baseline_ratio"] = None
            notes.append("no comparable baseline workload")

        history = _workload_history(history_runs, name)
        if history:
            center = robust_center(history)
            spread = robust_spread(history)
            entry["trajectory"] = {
                "runs": len(history),
                "median_events_per_second": round(center, 1),
                "mad_events_per_second": round(spread, 1),
            }
            if center > 0:
                drop = 1.0 - eps / center
                # Demand both a meaningful drop and statistical
                # separation: MAD near zero (identical reruns) must not
                # turn measurement jitter into a finding.
                floor = max(spread * TRAJECTORY_Z,
                            center * warn_tolerance)
                if center - eps >= floor and drop >= warn_tolerance:
                    verdicts.append(_classify(
                        drop, warn_tolerance, fail_tolerance
                    ))
                    notes.append(
                        f"below trailing-{len(history)} median by "
                        f"{100 * drop:.0f}%"
                    )

        verdict = max(verdicts, key=_VERDICT_RANK.get, default="ok")
        entry["verdict"] = verdict
        entry["notes"] = notes
        workloads[name] = entry
        if _VERDICT_RANK[verdict] > _VERDICT_RANK[worst]:
            worst = verdict

    totals_entry: Dict[str, object] = {}
    if baseline is not None:
        base_totals = baseline.get("totals", {})
        run_totals = run.get("totals", {})
        base_eps = float(base_totals.get("events_per_second", 0.0))
        eps = float(run_totals.get("events_per_second", 0.0))
        if base_eps > 0:
            totals_entry["baseline_ratio"] = round(eps / base_eps, 4)

    return {
        "verdict": worst,
        "warn_tolerance": warn_tolerance,
        "fail_tolerance": fail_tolerance,
        "workloads": workloads,
        "totals": totals_entry,
        "fingerprint_changes": fingerprint_changes,
        "trajectory_runs": len(history_runs),
    }


def analyze_path(
    path: str,
    baseline: Optional[Dict[str, object]] = None,
    **kwargs,
) -> Dict[str, object]:
    """Analyze the last run of the trajectory file at ``path``."""
    trajectory = load_trajectory(path)
    return analyze_run(trajectory[-1], baseline=baseline,
                       trajectory=trajectory, **kwargs)


_MARKS = {"ok": "ok", "warn": "WARN", "regression": "REGRESSION"}


def format_analysis(analysis: Dict[str, object],
                    markdown: bool = False) -> str:
    """Render a verdict document for the terminal (or as Markdown)."""
    lines: List[str] = []
    overall = str(analysis.get("verdict", "ok"))
    if markdown:
        lines.append("## Bench regression analysis")
        lines.append("")
        lines.append(f"**Overall: {_MARKS.get(overall, overall)}**")
        lines.append("")
        lines.append("| workload | events/s | vs baseline | verdict | notes |")
        lines.append("|---|---:|---:|---|---|")
    else:
        lines.append(f"bench regression analysis: {_MARKS.get(overall)}")
    for name, entry in sorted(analysis.get("workloads", {}).items()):
        ratio = entry.get("baseline_ratio")
        ratio_text = f"{(ratio - 1) * 100:+.1f}%" if ratio else "-"
        notes = "; ".join(entry.get("notes", [])) or "-"
        if markdown:
            lines.append(
                f"| {name} | {entry['events_per_second']:,.0f} "
                f"| {ratio_text} | {_MARKS[entry['verdict']]} | {notes} |"
            )
        else:
            lines.append(
                f"  {name:<22s} {entry['events_per_second']:>12,.0f} ev/s "
                f"{ratio_text:>8s}  {_MARKS[entry['verdict']]:<10s} {notes}"
            )
    changes = analysis.get("fingerprint_changes", [])
    if changes:
        lines.append("")
        lines.append("fingerprint changes (behaviour, not just speed):")
        for change in changes:
            lines.append(f"  - {change}")
    totals_ratio = analysis.get("totals", {}).get("baseline_ratio")
    if totals_ratio:
        lines.append("")
        lines.append(
            f"total throughput vs baseline: {(totals_ratio - 1) * 100:+.1f}%"
        )
    if analysis.get("trajectory_runs"):
        lines.append(
            f"trailing trajectory window: {analysis['trajectory_runs']} "
            f"run(s)"
        )
    return "\n".join(lines)
