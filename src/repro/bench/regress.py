"""The bench gate: paired runs of a base and a head, and one comparator.

``repro bench --against REV`` checks REV out into a temporary git
worktree and alternates :data:`PAIRS` runs of it (the *base*) and of
the git checkout that holds the working directory (the *head*,
:func:`run_pairs`), switching which side goes first every pair, so
that a drift of host speed falls on both sides alike.  Every run is a fresh interpreter
that imports its own side's ``src/`` and calls the two functions both
sides share, :func:`~repro.bench.harness.run_bench` and
:func:`~repro.bench.harness.write_bench_run`.  The worktree is removed
when the runs end, whether or not they succeeded.

The record holds both sides of every pair; ``--check`` and
``repro obs report --bench`` score it through :func:`analyze_pairs`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional

from repro.bench.harness import BENCH_VERSION, DEFAULT_REPEATS
from repro.errors import ConfigError

#: Runs per side behind one verdict.  The median ratio of five
#: alternating pairs of one commit's quick runs read 0.93 to 1.09.
PAIRS = 5
#: Fractional throughput drop that downgrades a workload to ``warn``.
WARN_TOLERANCE = 0.10
#: Fractional throughput drop classified as a ``regression`` — the only
#: verdict that fails ``repro bench --check``.  About twice the largest
#: drop of a median pair in A/A runs of one commit (docs/performance.md).
FAIL_TOLERANCE = 0.15
#: Fields that must not move unless the code changed what it computes.
FINGERPRINT_FIELDS = ("hit_rate", "region_count", "total_instructions",
                      "steps")

VERDICTS = ("ok", "warn", "regression")

#: Fields every workload record needs to be scored.
SCORED_FIELDS = ("name", "scale", "seed", "norm_events_per_second",
                 "host_factor", "steps", "phases")

#: One run of one side, in a fresh interpreter: ``src out quick
#: repeats``.  A ``repro`` imported from anywhere but the side's
#: ``src/`` fails the run instead of measuring the wrong code.
_RUN_ONE_SIDE = """\
import os, sys
src, out, quick, repeats = sys.argv[1:]
sys.path.insert(0, src)
try:
    from repro.bench import run_bench, write_bench_run
except ImportError as exc:
    sys.exit(f"no repro.bench.run_bench under {src} ({exc})")
if not os.path.realpath(sys.modules["repro"].__file__).startswith(
        os.path.join(src, "")):
    sys.exit(f"no repro.bench.run_bench under {src}")
write_bench_run(run_bench(quick=quick == "quick", repeats=int(repeats)), out)
"""


def load_record(path: str) -> Dict[str, object]:
    """Load one bench record from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"no bench record at {path!r}") from None
    except ValueError as exc:
        raise ConfigError(
            f"bench record {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"bench record {path!r} must hold one object")
    return data


def _git(checkout: str, *args: str, error: Optional[str] = None) -> str:
    """``git -C checkout args``'s output; a failure raises ``error``
    as a :class:`~repro.errors.ConfigError`, unless it is None."""
    try:
        proc = subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True)
    except OSError as exc:
        raise ConfigError(f"cannot run git: {exc}") from None
    if proc.returncode != 0 and error is not None:
        raise ConfigError(error)
    return proc.stdout.strip()


def _run_side(root: str, out: str, quick: bool, repeats: int,
              label: str) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ONE_SIDE,
         os.path.join(os.path.realpath(root), "src"), out,
         "quick" if quick else "standard", str(repeats)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [
            f"exit status {proc.returncode}"])[-1]
        raise ConfigError(f"the run of {label} failed: {last}")
    return load_record(out)


def run_pairs(against: str, quick: bool = False,
              repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """Alternate :data:`PAIRS` runs of ``against`` and of the git
    checkout that holds the working directory.

    Returns the paired record: ``{"bench_version", "created_at",
    "quick", "against", "pairs": [{"base": run, "head": run}, ...]}``.
    Raises :class:`~repro.errors.ConfigError` when the working directory
    is not in a git checkout, ``against`` names no commit, or a run
    fails.
    """
    top = _git(".", "rev-parse", "--show-toplevel",
               error=f"{os.getcwd()!r} is not a git checkout")
    sha = _git(top, "rev-parse", "--verify", "--quiet",
               f"{against}^{{commit}}",
               error=f"unknown revision {against!r}")
    scratch = tempfile.mkdtemp(prefix="repro-bench-")
    base_root = os.path.join(scratch, "base")
    try:
        _git(top, "worktree", "add", "--detach", base_root, sha,
             error=f"cannot check {against!r} out into a worktree")
        sides = {"base": (base_root, f"{against} ({sha[:12]})"),
                 "head": (top, "this checkout")}
        pairs: List[Dict[str, object]] = []
        for index in range(PAIRS):
            pair = {}
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for side in order:
                root, label = sides[side]
                pair[side] = _run_side(
                    root, os.path.join(scratch, f"{side}-{index}.json"),
                    quick, repeats, label)
            pairs.append({"base": pair["base"], "head": pair["head"]})
    finally:
        _git(top, "worktree", "remove", "--force", base_root)
        shutil.rmtree(scratch, ignore_errors=True)
    return {"bench_version": BENCH_VERSION,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "quick": bool(quick), "against": against, "pairs": pairs}


def _check_run(run: object, side: str) -> None:
    if not isinstance(run, dict):
        raise ConfigError(f"the {side} run is not a run object")
    version = run.get("bench_version")
    if version != BENCH_VERSION:
        raise ConfigError(
            f"the {side} run is a bench version {version} record; only "
            f"version {BENCH_VERSION} records (probe-normalized "
            f"events/s) can be compared"
        )
    workloads = run.get("workloads")
    if not isinstance(workloads, list) or not all(
            isinstance(w, dict) and all(f in w for f in SCORED_FIELDS)
            and isinstance(w["phases"], dict)
            and isinstance(w["norm_events_per_second"], (int, float))
            and w["norm_events_per_second"] > 0 for w in workloads):
        raise ConfigError(
            f"the {side} run is malformed: it needs a list of workload "
            f"records with {', '.join(SCORED_FIELDS)}, at a positive rate"
        )


def _phase_step_seconds(record: Dict[str, object]) -> Dict[str, float]:
    """Each phase's probe-normalized seconds per step."""
    scale = float(record["host_factor"]) * int(record["steps"])
    if scale <= 0:
        return {}
    return {name: float(data["seconds"]) / scale
            for name, data in record["phases"].items()}


def _score(sides: List[Dict[str, Dict[str, object]]]) -> Dict[str, object]:
    """One workload's entry from its ``{"base", "head"}`` records, one
    per pair."""
    ratios = [float(pair["head"]["norm_events_per_second"])
              / float(pair["base"]["norm_events_per_second"])
              for pair in sides]
    ratio = median(ratios)
    per_step = [(_phase_step_seconds(pair["base"]),
                 _phase_step_seconds(pair["head"])) for pair in sides]
    suspect_growth = WARN_TOLERANCE * median(
        sum(base.values()) for base, _ in per_step)
    return {
        "base_norm_events_per_second": median(
            pair["base"]["norm_events_per_second"] for pair in sides),
        "norm_events_per_second": median(
            pair["head"]["norm_events_per_second"] for pair in sides),
        "ratio": round(ratio, 4),
        "ratio_range": [round(min(ratios), 4), round(max(ratios), 4)],
        "verdict": ("regression" if ratio <= 1.0 - FAIL_TOLERANCE else
                    "warn" if ratio <= 1.0 - WARN_TOLERANCE else "ok"),
        "fingerprint_changes": sorted({
            f"{field} {pair['base'].get(field)} -> {pair['head'].get(field)}"
            for pair in sides for field in FINGERPRINT_FIELDS
            if pair["head"].get(field) != pair["base"].get(field)
        }),
        "grown_phases": sorted(
            phase for phase in {phase for base, head in per_step
                                for phase in (*base, *head)}
            if median(head.get(phase, 0.0) - base.get(phase, 0.0)
                      for base, head in per_step) > suspect_growth),
    }


def _workload_key(workload: Dict[str, object]) -> tuple:
    return workload["name"], workload["scale"], workload["seed"]


def analyze_pairs(record: Dict[str, object]) -> Dict[str, object]:
    """Score a paired record, per workload run alike on both sides.

    A workload's ``ratio`` is the median over the pairs of the head's
    normalized events/s over its own pair's base: ``warn`` at a
    :data:`WARN_TOLERANCE` drop, ``regression`` at a
    :data:`FAIL_TOLERANCE` drop.  It also names fingerprint changes
    between the sides and, as suspects, the phases whose normalized
    seconds per step grew, as a median over the pairs, by more than the
    warn tolerance of the base's seconds per step.  A workload only one side
    ran, or ran at another scale or seed, is listed as ``unscored``.
    Raises :class:`~repro.errors.ConfigError` when the record is not a
    paired record, or a side is malformed or of another bench version.
    """
    pairs = record.get("pairs")
    if not isinstance(pairs, list) or not pairs or not all(
            isinstance(pair, dict) for pair in pairs):
        raise ConfigError("not a paired bench record: it needs a list of "
                          "{base, head} run pairs (`repro bench --against`)")
    alike = []
    for pair in pairs:
        _check_run(pair.get("base"), "base")
        _check_run(pair.get("head"), "head")
        base = {_workload_key(w): w for w in pair["base"]["workloads"]}
        alike.append({w["name"]: {"base": base[_workload_key(w)], "head": w}
                      for w in pair["head"]["workloads"]
                      if _workload_key(w) in base})
    names = [w["name"] for w in pairs[0]["head"]["workloads"]]
    scored = [name for name in names if all(name in a for a in alike)]
    workloads = {name: _score([a[name] for a in alike]) for name in scored}
    ran = names + [w["name"] for w in pairs[0]["base"]["workloads"]]
    return {
        "verdict": max((entry["verdict"] for entry in workloads.values()),
                       key=VERDICTS.index, default="ok"),
        "workloads": workloads,
        "unscored": sorted(set(ran) - set(scored)),
        "pairs": len(pairs),
        "against": record.get("against"),
        "base_git_sha": pairs[0]["base"].get("git_sha"),
    }


def _notes(entry: Dict[str, object]) -> List[str]:
    notes = []
    if entry["verdict"] != "ok":
        notes.append(f"throughput at {100 * entry['ratio']:.0f}% of base")
        if entry["grown_phases"]:
            notes.append("per-step time grew in: "
                         + ", ".join(entry["grown_phases"]))
    notes.extend(f"fingerprint {change}"
                 for change in entry["fingerprint_changes"])
    return notes


_MARKS = {"ok": "ok", "warn": "WARN", "regression": "REGRESSION"}
_ROW = "  {:<22s} {:>11s} {:>11s} {:>7s} {:>15s}  {:<10s} {}"


def _percent(ratio: float) -> str:
    return f"{(ratio - 1) * 100:+.1f}%"


def format_analysis(analysis: Dict[str, object],
                    markdown: bool = False) -> str:
    """Render a verdict document for the terminal (or as Markdown)."""
    overall = _MARKS[analysis["verdict"]]
    sha = (analysis.get("base_git_sha") or "unknown")[:12]
    against = (f"against {analysis.get('against')} ({sha}), median of "
               f"{analysis['pairs']} alternating pairs")
    if markdown:
        lines = [f"## Bench verdict: {overall}", "",
                 f"This checkout {against}.", "",
                 "| workload | base norm ev/s | head norm ev/s | head/base "
                 "| pair range | verdict | notes |",
                 "|---|---:|---:|---:|---|---|---|"]
    else:
        lines = [f"bench verdict {against}: {overall}",
                 _ROW.format("workload", "base norm", "head norm",
                             "ratio", "pair range", "verdict", "notes")]
    for name, entry in analysis["workloads"].items():
        cells = (name, f"{entry['base_norm_events_per_second']:,.0f}",
                 f"{entry['norm_events_per_second']:,.0f}",
                 _percent(entry["ratio"]),
                 "..".join(_percent(r) for r in entry["ratio_range"]),
                 _MARKS[entry["verdict"]], "; ".join(_notes(entry)) or "-")
        if markdown:
            lines.append(f"| {' | '.join(cells)} |")
        else:
            lines.append(_ROW.format(*cells))
    if analysis["unscored"]:
        lines.extend(["", "unscored (not run alike on both sides): "
                      + ", ".join(analysis["unscored"])])
    return "\n".join(lines)
