"""Expected reports: the reference pull loop is the oracle.

A live cell's expected ``MetricReport`` comes from
``simulate(..., fast=False)`` (``Simulator.run`` over the engine's step
generator); a bounded replay's from ``Simulator.run(replay_trace(...))``.
Only digests are kept, plus the two numbers inputs are derived from
(instruction count, and the cache size that sizes FIFO caches).

The default seed's entries are committed in ``expected.json``.  Any
other seed's are computed in a child process outside every timed
region and kept in ``.perfbench/oracle.json`` for later runs of the
same checkout.

    python3 perfbench/oracle.py --write-expected   # regenerate expected.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, WORK, report_digest, write_json_atomic  # noqa: E402
import inputs  # noqa: E402

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
CACHE_PATH = os.path.join(WORK, "oracle.json")
#: The run length the committed serve-mix cold cells are drawn for
#: (BENCHMARK.json's run_seconds).
SECONDS = 20

#: (cell, FIFO capacity in bytes or None for the paper's unbounded cache)
Spec = Tuple[inputs.Cell, Optional[int]]


def spec_key(spec: Spec) -> str:
    return inputs.cell_id(*spec)


def _load(path: str) -> Dict[str, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["entries"]
    except FileNotFoundError:
        return {}


class Oracle:
    """Lookup of expected entries; computes what is missing on demand."""

    def __init__(self) -> None:
        self.entries = _load(EXPECTED_PATH)
        self.entries.update(_load(CACHE_PATH))

    def ensure(self, specs: Iterable[Spec]) -> None:
        """Make every spec's entry available (child process if needed)."""
        missing = [spec for spec in dict.fromkeys(specs)
                   if spec_key(spec) not in self.entries]
        if not missing:
            return
        os.makedirs(WORK, exist_ok=True)
        request = os.path.join(WORK, f"oracle-request-{os.getpid()}.json")
        with open(request, "w", encoding="utf-8") as fh:
            json.dump([[list(cell), cap] for cell, cap in missing], fh)
        try:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--compute", request], check=True, cwd=ROOT,
                           timeout=170)
        finally:
            os.remove(request)
        self.entries.update(_load(CACHE_PATH))

    def __getitem__(self, spec: Spec) -> dict:
        return self.entries[spec_key(spec)]

    def check(self, spec: Spec, report_dict: Dict[str, object]) -> bool:
        """True when ``report_dict`` is the oracle's report for ``spec``."""
        return report_digest(report_dict) == self[spec]["digest"]


def compute(specs: List[Spec]) -> Dict[str, dict]:
    """Run the oracle for each spec (reference pull loop only)."""
    from repro.analysis.serialize import report_to_dict
    from repro.config import SystemConfig
    from repro.execution import ExecutionEngine
    from repro.metrics.summary import MetricReport
    from repro.system.simulator import Simulator, simulate
    from repro.tracing import collect_trace, replay_trace
    from repro.workloads import build_benchmark

    programs = {}
    traces = {}
    out = {}
    for cell, capacity in specs:
        bench, selector, scale, seed = cell
        program = programs.get((bench, scale))
        if program is None:
            program = programs[(bench, scale)] = build_benchmark(bench,
                                                                 scale=scale)
        if capacity is None:
            result = simulate(program, selector, seed=seed, fast=False)
        else:
            path = traces.get((bench, scale, seed))
            if path is None:
                path = os.path.join(WORK, "oracle-traces",
                                    f"{bench}-{scale!r}-{seed}.rtrc")
                os.makedirs(os.path.dirname(path), exist_ok=True)
                collect_trace(ExecutionEngine(program, seed=seed), path)
                traces[(bench, scale, seed)] = path
            config = SystemConfig(cache_capacity_bytes=capacity,
                                  cache_eviction_policy="fifo")
            result = Simulator(program, selector, config).run(
                replay_trace(path, program))
        report = MetricReport.from_result(result)
        out[spec_key((cell, capacity))] = {
            "digest": report_digest(report_to_dict(report)),
            "instructions": report.total_instructions,
            "cache_bytes": report.cache_size_estimate,
        }
    return out


def default_specs() -> List[Spec]:
    """Every spec the four workloads can check at the default seed."""
    seed = inputs.DEFAULT_SEED
    live = [(cell, None) for cell in inputs.grid_cells(seed)]
    schedule = inputs.serve_schedule(seed, SECONDS)
    live += [(cell, None) for cell in schedule.warm + tuple(
        schedule.cold_cells)]
    return live


def bounded_specs(seed: int, entries: Dict[str, dict]) -> List[Spec]:
    """trace-replay's bounded replays; needs the NET working sets."""
    specs = []
    for bench, (trace_seed, share) in inputs.replay_traces(seed).items():
        net = (bench, "net", inputs.GRID_SCALE, trace_seed)
        capacity = int(share * entries[spec_key((net, None))]["cache_bytes"])
        for selector in inputs.SELECTORS:
            specs.append(((bench, selector, inputs.GRID_SCALE, trace_seed),
                          capacity))
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write-expected", action="store_true",
                       help="recompute expected.json for the default seed")
    group.add_argument("--compute", metavar="FILE",
                       help="compute the specs listed in FILE into the cache")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    if args.compute:
        with open(args.compute, encoding="utf-8") as fh:
            specs = [(tuple(cell), cap) for cell, cap in json.load(fh)]
        cache = _load(CACHE_PATH)
        cache.update(compute(specs))
        write_json_atomic(CACHE_PATH, {"entries": cache})
        return 0
    entries = compute(default_specs())
    entries.update(compute(bounded_specs(inputs.DEFAULT_SEED, entries)))
    write_json_atomic(EXPECTED_PATH, {
        "seed": inputs.DEFAULT_SEED,
        "oracle": "reference pull loop (simulate fast=False; "
                  "Simulator.run(replay_trace) for bounded replays)",
        "entries": entries,
    })
    print(f"wrote {len(entries)} expected entries to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
