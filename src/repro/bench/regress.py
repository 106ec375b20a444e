"""The bench comparator: one run's verdicts against its baseline.

``repro bench`` (with or without ``--check``), ``repro bench --analyze``
and ``repro obs report --bench`` all score a run through
:func:`analyze_run`.  For each workload it reports:

* the ratio of the run's host-normalized events/s to the baseline's,
  classified ``ok``, ``warn`` at a 10% drop and ``regression`` at a 25%
  drop;
* any change of the behaviour fingerprint (hit rate, region count,
  instructions, steps) — a perf delta paired with one means the code
  changed *what* it computes, not just how fast;
* the profiler phases whose share of wall time grew, named as suspects
  when throughput dropped — a slowdown that moved time *between*
  phases names its phase.

A baseline that cannot be compared — a record of another bench
version, one that lacks a workload of the run, or one that ran a
workload at another scale or seed — raises
:class:`~repro.errors.ConfigError` instead of producing verdicts.

The committed baselines ship inside the package: ``BASELINE.json`` for
the standard set and ``BASELINE_quick.json`` for the quick set (the
two simulate different work, so each needs its own reference).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import BENCH_VERSION
from repro.errors import ConfigError

#: Fractional throughput drop that downgrades a workload to ``warn``.
WARN_TOLERANCE = 0.10
#: Fractional throughput drop classified as a ``regression`` — the only
#: verdict that fails ``repro bench --check``.
FAIL_TOLERANCE = 0.25
#: A phase whose share of wall time grew by more than this (absolute,
#: in [0, 1]) is named as a suspect.
PHASE_SHARE_DELTA = 0.10
#: Fields that must not move unless the code changed what it computes.
FINGERPRINT_FIELDS = ("hit_rate", "region_count", "total_instructions",
                      "steps")
#: Runs ``repro bench --update-baseline`` pins the median of.
PIN_RUNS = 5

VERDICTS = ("ok", "warn", "regression")

DEFAULT_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BASELINE.json"
)
QUICK_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BASELINE_quick.json"
)


def default_baseline_path(quick: bool = False) -> str:
    return QUICK_BASELINE_PATH if quick else DEFAULT_BASELINE_PATH


def load_record(path: str) -> Dict[str, object]:
    """Load one bench record (a run or a baseline) from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(
            f"no bench record at {path!r} (`repro bench` records a run, "
            f"`repro bench --update-baseline` pins a baseline)"
        ) from None
    except ValueError as exc:
        raise ConfigError(
            f"bench record {path!r} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError(f"bench record {path!r} must hold one run object")
    return data


def load_baseline(path: Optional[str] = None,
                  quick: bool = False) -> Dict[str, object]:
    """Load the baseline at ``path`` (default: the committed one)."""
    return load_record(path if path is not None
                       else default_baseline_path(quick))


def median_run(runs: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The record to pin from several runs of one workload set: per
    workload, the record with the median normalized rate, so that one
    fast outlier cannot become the baseline."""
    pinned = dict(runs[0])
    pinned["workloads"] = [
        sorted(records,
               key=lambda r: r["norm_events_per_second"])[len(records) // 2]
        for records in zip(*(run["workloads"] for run in runs))
    ]
    return pinned


#: Fields every workload record needs to be scored.
SCORED_FIELDS = ("name", "scale", "seed", "norm_events_per_second",
                 "wall_seconds", "phases")


def _check_comparable(run: Dict[str, object],
                      baseline: Dict[str, object]) -> None:
    for label, record in (("run", run), ("baseline", baseline)):
        version = record.get("bench_version")
        if version != BENCH_VERSION:
            raise ConfigError(
                f"the {label} is a bench version {version} record; only "
                f"version {BENCH_VERSION} records (probe-normalized "
                f"events/s) can be compared"
            )
        workloads = record.get("workloads")
        if not isinstance(workloads, list) or not all(
                isinstance(w, dict) and all(f in w for f in SCORED_FIELDS)
                and isinstance(w["phases"], dict) for w in workloads):
            raise ConfigError(
                f"the {label} is malformed: it needs a list of workload "
                f"records with {', '.join(SCORED_FIELDS)}"
            )
    pinned = {record["name"]: record for record in baseline["workloads"]}
    problems = []
    for record in run["workloads"]:
        name = record["name"]
        reference = pinned.get(name)
        if reference is None:
            problems.append(f"no entry for {name}")
        elif ((reference["scale"], reference["seed"])
              != (record["scale"], record["seed"])):
            problems.append(
                f"{name} ran at scale {reference['scale']} seed "
                f"{reference['seed']}, the run at scale {record['scale']} "
                f"seed {record['seed']}"
            )
    if problems:
        raise ConfigError(
            f"baseline cannot be compared: {'; '.join(problems)} "
            f"(re-pin with `repro bench --update-baseline`)"
        )


def _phase_shares(record: Dict[str, object]) -> Dict[str, float]:
    """Each phase's share of the workload's wall time, in [0, 1]."""
    wall = float(record["wall_seconds"])
    if wall <= 0:
        return {}
    return {name: float(data["seconds"]) / wall
            for name, data in record["phases"].items()}


def analyze_run(run: Dict[str, object],
                baseline: Dict[str, object]) -> Dict[str, object]:
    """Score ``run`` against ``baseline``; returns the verdict document::

        {"verdict": "ok"|"warn"|"regression",
         "workloads": {name: {"verdict": ..., "ratio": ...,
                              "norm_events_per_second": ...,
                              "fingerprint_changes": [...],
                              "grown_phases": [...]}},
         "baseline_git_sha": ..., "baseline_created_at": ...}

    Raises :class:`~repro.errors.ConfigError` when the baseline cannot
    be compared.
    """
    _check_comparable(run, baseline)
    pinned = {record["name"]: record for record in baseline["workloads"]}
    workloads: Dict[str, Dict[str, object]] = {}
    for record in run["workloads"]:
        reference = pinned[record["name"]]
        ratio = (float(record["norm_events_per_second"])
                 / float(reference["norm_events_per_second"]))
        if ratio <= 1.0 - FAIL_TOLERANCE:
            verdict = "regression"
        elif ratio <= 1.0 - WARN_TOLERANCE:
            verdict = "warn"
        else:
            verdict = "ok"
        shares = _phase_shares(record)
        base_shares = _phase_shares(reference)
        workloads[record["name"]] = {
            "norm_events_per_second": record["norm_events_per_second"],
            "ratio": round(ratio, 4),
            "verdict": verdict,
            "fingerprint_changes": [
                f"{field} {reference.get(field)} -> {record.get(field)}"
                for field in FINGERPRINT_FIELDS
                if record.get(field) != reference.get(field)
            ],
            "grown_phases": sorted(
                phase for phase, share in shares.items()
                if share - base_shares.get(phase, 0.0) >= PHASE_SHARE_DELTA
            ),
        }
    return {
        "verdict": max((entry["verdict"] for entry in workloads.values()),
                       key=VERDICTS.index, default="ok"),
        "workloads": workloads,
        "baseline_git_sha": baseline.get("git_sha"),
        "baseline_created_at": baseline.get("created_at"),
    }


def _notes(entry: Dict[str, object]) -> List[str]:
    notes = []
    if entry["verdict"] != "ok":
        notes.append(f"throughput at {100 * entry['ratio']:.0f}% of baseline")
        if entry["grown_phases"]:
            notes.append(
                f"wall-time share grew in: {', '.join(entry['grown_phases'])}"
            )
    notes.extend(f"fingerprint {change}"
                 for change in entry["fingerprint_changes"])
    return notes


_MARKS = {"ok": "ok", "warn": "WARN", "regression": "REGRESSION"}


def format_analysis(analysis: Dict[str, object],
                    markdown: bool = False) -> str:
    """Render a verdict document for the terminal (or as Markdown)."""
    overall = _MARKS[analysis["verdict"]]
    if markdown:
        lines = ["## Bench regression analysis", "",
                 f"**Overall: {overall}**", "",
                 "| workload | norm ev/s | vs baseline | verdict | notes |",
                 "|---|---:|---:|---|---|"]
    else:
        lines = [f"bench regression analysis: {overall}"]
    for name, entry in analysis["workloads"].items():
        ratio_text = f"{(entry['ratio'] - 1) * 100:+.1f}%"
        notes = "; ".join(_notes(entry)) or "-"
        if markdown:
            lines.append(
                f"| {name} | {entry['norm_events_per_second']:,.0f} "
                f"| {ratio_text} | {_MARKS[entry['verdict']]} | {notes} |"
            )
        else:
            lines.append(
                f"  {name:<22s} {entry['norm_events_per_second']:>12,.0f} "
                f"norm ev/s {ratio_text:>8s}  "
                f"{_MARKS[entry['verdict']]:<10s} {notes}"
            )
    return "\n".join(lines)
