"""Baseline comparison: this run versus the committed reference.

``BASELINE.json`` (shipped inside the package, regenerated with
``repro bench --update-baseline``) records a full bench run from a
known-good commit.  Comparison is ratio-based — events/sec and wall
time of the current run divided by the baseline's — because absolute
numbers are machine-dependent; so are the ratios, strictly, which is
why regression *checking* is opt-in (``--check``) with a generous
tolerance, while the deltas themselves are always reported and
recorded in ``BENCH_run.json`` for the trajectory.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.errors import ConfigError

#: The committed baselines, shipped with the package: one for the
#: standard workload set, one for the reduced-scale quick set (the two
#: are not cross-comparable — different scales simulate different
#: work, so each needs its own reference).
DEFAULT_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BASELINE.json"
)
QUICK_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BASELINE_quick.json"
)


def default_baseline_path(quick: bool = False) -> str:
    return QUICK_BASELINE_PATH if quick else DEFAULT_BASELINE_PATH


def load_baseline(path: Optional[str] = None,
                  quick: bool = False) -> Optional[Dict[str, object]]:
    """Load a baseline bench record; ``None`` when absent."""
    path = path if path is not None else default_baseline_path(quick)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise ConfigError(
            f"baseline file {path!r} is not valid JSON: {exc}"
        ) from None


def write_baseline(run: Dict[str, object],
                   path: Optional[str] = None,
                   quick: bool = False) -> str:
    """Commit the given run as the new baseline; returns the path."""
    path = path if path is not None else default_baseline_path(quick)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run, handle, indent=2)
        handle.write("\n")
    return path


def _ratios(current: Dict[str, object],
            reference: Dict[str, object]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for field, ratio_name in (("events_per_second", "events_per_second_ratio"),
                              ("wall_seconds", "wall_ratio")):
        ref = float(reference.get(field, 0.0))
        cur = float(current.get(field, 0.0))
        out[ratio_name] = round(cur / ref, 4) if ref > 0 else 0.0
    return out


def compare_to_baseline(run: Dict[str, object],
                        baseline: Dict[str, object]) -> Dict[str, object]:
    """Per-workload and total throughput/wall ratios (run / baseline).

    Only workloads present in both records are compared; a quick run
    against a full baseline (different scales) compares nothing per
    workload and flags the mismatch instead.
    """
    base_workloads = {
        record["name"]: record for record in baseline.get("workloads", [])
    }
    comparable = {}
    skipped = []
    for record in run.get("workloads", []):
        reference = base_workloads.get(record["name"])
        if (reference is None
                or reference.get("scale") != record.get("scale")
                or reference.get("seed") != record.get("seed")):
            skipped.append(record["name"])
            continue
        comparable[record["name"]] = _ratios(record, reference)
    return {
        "baseline_git_sha": baseline.get("git_sha"),
        "baseline_created_at": baseline.get("created_at"),
        "comparable": bool(comparable),
        "skipped": skipped,
        "workloads": comparable,
        "totals": _ratios(run.get("totals", {}), baseline.get("totals", {})),
    }


def regression_failures(deltas: Dict[str, object],
                        tolerance: float = 0.35) -> List[str]:
    """Workloads whose throughput regressed beyond ``tolerance``.

    ``tolerance`` is the allowed fractional drop in events/sec: 0.35
    accepts anything above 65% of baseline throughput — wide on
    purpose, since CI machines are noisy; the trajectory file, not the
    gate, is the precise record.
    """
    failures = []
    for name, ratio in sorted(deltas.get("workloads", {}).items()):
        if ratio["events_per_second_ratio"] < 1.0 - tolerance:
            failures.append(
                f"{name}: events/s at "
                f"{100 * ratio['events_per_second_ratio']:.0f}% of baseline"
            )
    return failures
