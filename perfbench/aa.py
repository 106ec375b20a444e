"""A/A check: two sets of runs of the same code must agree.

    python3 perfbench/aa.py

Runs ``BENCHMARK.json``'s command for every workload with seeds 1-10,
one set after the other (as a comparison of two commits would).  For
each workload and end-to-end metric it prints both sets' medians and
quartile spreads (inter-quartile range over median) and whether they
hold the metric's bound: both spreads within the bound and the second
median no worse than the first by more than the bound.  Exits 1 if any
check fails.  Raw results go to ``.perfbench/aa-*.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, WORK, write_json_atomic  # noqa: E402

SEEDS = range(1, 11)
SETS = 2


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.monotonic() - started, "result": result,
            "details": details, "stderr": proc.stderr[-2000:]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for set_index in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                record = run_once(bench, workload, seed, bench["run_seconds"])
                record["set"] = set_index
                runs.append(record)
                print(f"set {set_index} {workload} seed {seed}: exit "
                      f"{record['exit']} in {record['wall_s']:.1f} s",
                      file=sys.stderr, flush=True)
    out_path = os.path.join(WORK, f"aa-{int(time.time())}.json")
    write_json_atomic(out_path, {"runs": runs})

    ok = True
    print(f"{'workload':<13} {'metric':<16} {'median A':>14} {'spread A':>9} "
          f"{'median B':>14} {'spread B':>9} {'worse':>7} {'bound':>6}  verdict")
    for workload in workloads:
        bad = [r for r in runs if r["workload"] == workload
               and (r["exit"] != 0 or not r["result"].get("correct"))]
        if bad:
            ok = False
            print(f"{workload:<13} {len(bad)} run(s) failed: "
                  f"{bad[0]['stderr'].strip()[-300:]}")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["result"]["metrics"][name]["value"] for r in runs
                     if r["workload"] == workload and r["set"] == s]
                    for s in range(SETS)]
            spreads = [spread(values) for values in sets]
            medians = [statistics.median(values) for values in sets]
            worse = worse_by(medians[0], medians[1], metric["better"])
            failures, notes = [], []
            if max(spreads) > bound:
                failures.append("spread over bound")
            elif max(spreads) > bound / 3:
                notes.append("spread over bound/3")
            if worse > bound:
                failures.append("second median worse by more than bound")
            ok = ok and not failures
            print(f"{workload:<13} {name:<16} {medians[0]:14.6g} "
                  f"{spreads[0]:9.3f} {medians[1]:14.6g} {spreads[1]:9.3f} "
                  f"{worse:7.3f} {bound:6.2f}  "
                  f"{'; '.join(failures + notes) or 'ok'}")
    print(f"raw results: {os.path.relpath(out_path, ROOT)}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
