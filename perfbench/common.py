"""Shared pieces of the benchmark: paths, statistics, digests, spans.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (traces, stores, spans, oracle cache) lives
#: here; the repository's ``.gitignore`` names it.
WORK = os.path.join(ROOT, ".perfbench")

#: A percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class RefusedPercentile(ValueError):
    """A percentile asked of too few samples to estimate it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile, refused with fewer than ten
    samples beyond it (so a "p99" of 300 samples is never reported)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        raise RefusedPercentile(
            f"p{q * 100:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"needs {MIN_TAIL_SAMPLES}")
    return sorted(samples)[max(rank - 1, 0)]


def tail_rank(n: int, q: float = 0.99) -> float:
    """The highest percentile at most ``q`` that ``n`` samples support."""
    return min(q, (n - MIN_TAIL_SAMPLES) / n) if n else 0.0


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_digest(report_dict: Dict[str, object]) -> str:
    """SHA-256 of a serialized ``MetricReport`` (``report_to_dict`` form,
    which is also what the service returns in ``report``)."""
    return hashlib.sha256(canonical(report_dict).encode("utf-8")).hexdigest()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process, or of ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def write_json_atomic(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


class _Node:
    __slots__ = ("succ", "count", "index")


class HostSpeed:
    """How fast this host runs Python right now, from a fixed probe.

    Neighbours on a shared host change the speed of pure-Python code by
    up to 2x within minutes.  The probe is a fixed walk over a 32K-node
    object graph with dict counters, independent of the program.  The
    pure-Python sweeps time it between operations (never inside them)
    and divide each operation's time by the factor of the probes around
    it (probe time over ``REFERENCE_S``), so their metrics read as if
    measured on a host where the probe takes 10 ms.
    """

    REFERENCE_S = 0.010
    STEPS = 30_000

    def __init__(self) -> None:
        rng = random.Random(20261017)
        nodes = [_Node() for _ in range(1 << 15)]
        for index, node in enumerate(nodes):
            node.succ = (rng.choice(nodes), rng.choice(nodes))
            node.count = 0
            node.index = index
        self._start = nodes[0]

    def sample(self) -> float:
        """Time the probe once; returns its factor."""
        counts: Dict[int, int] = {}
        node = self._start
        x = 1
        started = time.perf_counter()
        for _ in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = node.succ[x & 1]
            node.count += 1
            counts[node.index] = counts.get(node.index, 0) + 1
        return (time.perf_counter() - started) / self.REFERENCE_S


class Spans:
    """In-memory span log for the traced run.

    Each span is ``(id, name, start, end, parent, op)``: ``op`` is the
    cell or request id, shared by every span of one operation.  Spans
    are only ever recorded by the benchmark around calls into the
    program's public functions; nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[int, str, float, float, Optional[int],
                              Optional[str]]] = []
        self._stack: List[int] = []

    def span(self, name: str, op: Optional[str] = None) -> "_Open":
        return _Open(self, name, op)

    def add(self, name: str, start: float, end: float,
            op: Optional[str] = None, parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. by a client thread)."""
        span_id = len(self.rows)
        self.rows.append((span_id, name, start, end, parent, op))
        return span_id

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.rows
                   if n == name)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.rows
                if n == name]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.rows:
                fh.write(canonical({"id": span_id, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


class _Open:
    __slots__ = ("_spans", "_name", "_op", "_start", "id")

    def __init__(self, spans: Spans, name: str, op: Optional[str]) -> None:
        self._spans = spans
        self._name = name
        self._op = op
        self.id = -1

    def __enter__(self) -> "_Open":
        spans = self._spans
        parent = spans._stack[-1] if spans._stack else None
        if self._op is None and parent is not None:
            self._op = spans.rows[parent][5]
        self.id = spans.add(self._name, 0.0, 0.0, self._op, parent)
        spans._stack.append(self.id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        spans = self._spans
        spans._stack.pop()
        span_id, name, _, _, parent, op = spans.rows[self.id]
        spans.rows[self.id] = (span_id, name, self._start, end, parent, op)

    @property
    def seconds(self) -> float:
        row = self._spans.rows[self.id]
        return row[3] - row[2]


class Outcome:
    """What one run measured: operations, failures, metrics, details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: Provenance and sample counts, printed on the line before the
        #: result (the result line itself carries only the contract keys).
        self.details: Dict[str, object] = {}

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_host(self, name: str, raw: float, scaled: float,
                 unit: str) -> None:
        """Report the host-scaled value; the raw one goes to details."""
        self.put(name, scaled, unit)
        self.details.setdefault("raw", {})[name] = raw
