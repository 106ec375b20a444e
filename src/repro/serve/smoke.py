"""End-to-end smoke check for the grid server (``repro serve --smoke``).

Boots a real server, submits the same cell twice and verifies the
service contract the docs promise:

* the **cold** request resolves with ``source="computed"`` and launches
  exactly one job-engine job;
* the **warm** request resolves with ``source="store"`` — served from
  the content-addressed store without launching anything (the launch
  count must not move);
* warm requests are faster than the cold one (the smoke check asserts
  the direction only: one sample on a noisy CI runner is not a
  percentile; the benchmark's serve-mix workload measures latency
  percentiles under load).

Returns the measurement as a dict (written as JSON when
``latency_out`` is given — CI uploads it next to the bench artifacts);
raises :class:`~repro.errors.ServeError` on any contract violation.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.errors import ServeError
from repro.serve.client import ServiceClient
from repro.serve.server import ServerThread

#: The smoke cell: small enough to simulate in well under a second,
#: large enough that a store read is clearly cheaper.
SMOKE_BENCHMARK = "gzip"
SMOKE_SELECTOR = "net"
SMOKE_SCALE = 0.1
SMOKE_SEED = 1
#: Warm requests measured after the cold one (p50 of these is recorded).
SMOKE_WARM_REQUESTS = 10


def run_smoke(
    store_root: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    latency_out: Optional[str] = None,
    warm_requests: int = SMOKE_WARM_REQUESTS,
) -> dict:
    """Run the smoke sequence against a freshly booted server."""
    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-smoke-store-")
        store_root = tmp.name
    try:
        with ServerThread(store_root, host=host, port=port,
                          workers=1) as handle:
            with ServiceClient(host, handle.port) as client:
                cold_body, cold_seconds = client.simulate(
                    SMOKE_BENCHMARK, SMOKE_SELECTOR,
                    scale=SMOKE_SCALE, seed=SMOKE_SEED,
                )
                if cold_body["source"] != "computed":
                    raise ServeError(
                        f"cold request resolved as "
                        f"{cold_body['source']!r}, expected 'computed' "
                        f"(is the store already warm?)"
                    )
                stats_after_cold = client.stats()["service"]
                if stats_after_cold["jobs_launched"] != 1:
                    raise ServeError(
                        f"cold request launched "
                        f"{stats_after_cold['jobs_launched']} jobs, "
                        f"expected exactly 1"
                    )
                warm_samples = []
                warm_sources = set()
                for _ in range(max(1, warm_requests)):
                    warm_body, warm_seconds = client.simulate(
                        SMOKE_BENCHMARK, SMOKE_SELECTOR,
                        scale=SMOKE_SCALE, seed=SMOKE_SEED,
                    )
                    warm_samples.append(warm_seconds)
                    warm_sources.add(warm_body["source"])
                if warm_sources != {"store"}:
                    raise ServeError(
                        f"warm requests resolved as {sorted(warm_sources)}, "
                        f"expected every one from 'store'"
                    )
                if warm_body["report"] != cold_body["report"]:
                    raise ServeError(
                        "warm report is not bit-identical to the cold one"
                    )
                stats_after_warm = client.stats()["service"]
                if (stats_after_warm["jobs_launched"]
                        != stats_after_cold["jobs_launched"]):
                    raise ServeError(
                        "warm requests launched jobs: store hits must not "
                        "reach the job engine"
                    )
                warm_p50 = sorted(warm_samples)[len(warm_samples) // 2]
                if warm_p50 >= cold_seconds:
                    raise ServeError(
                        f"warm p50 ({warm_p50 * 1000:.2f} ms) is not below "
                        f"the cold latency ({cold_seconds * 1000:.2f} ms)"
                    )
                record = {
                    "cell": {
                        "benchmark": SMOKE_BENCHMARK,
                        "selector": SMOKE_SELECTOR,
                        "scale": SMOKE_SCALE,
                        "seed": SMOKE_SEED,
                    },
                    "cold_ms": round(cold_seconds * 1000, 3),
                    "warm_p50_ms": round(warm_p50 * 1000, 3),
                    "warm_requests": len(warm_samples),
                    "warm_speedup": round(cold_seconds / warm_p50, 1)
                    if warm_p50 > 0 else None,
                    "service": stats_after_warm,
                    "digest": cold_body["digest"],
                }
    finally:
        if tmp is not None:
            tmp.cleanup()
    if latency_out:
        directory = os.path.dirname(latency_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(latency_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record
