"""Simulation-as-a-service: the async grid server (``repro serve``).

The subsystem puts a service boundary in front of three layers that
already exist in isolation — the fault-tolerant job engine
(:mod:`repro.jobs`), the content-addressed result store
(:mod:`repro.store`) and fleet observability (:mod:`repro.obs`).
Clients declare a grid cell (benchmark, selector, scale, seed, config
overrides); the service computes the cell's existing store key and
resolves it through a three-tier path:

1. warm store hit — returned immediately from disk;
2. single-flight — identical in-flight requests coalesce onto one job;
3. cold dispatch — batched into the job engine with its timeout /
   retry / fault machinery, persisting and resolving as cells finish.

See ``docs/service.md`` for endpoints, schema and GC tuning.  The
latency SLO is checked by ``repro serve --smoke`` (the cold/warm
contract) and measured under load by the benchmark's serve-mix
workload; ``repro bench`` records no service latency.
"""

from repro.serve.client import ServiceClient
from repro.serve.protocol import (
    CellRequest,
    error_payload,
    parse_cell_request,
    request_from_json,
    response_payload,
)
from repro.serve.server import GridServer, ServerThread
from repro.serve.service import ServiceStats, SimulationService
from repro.serve.smoke import run_smoke

__all__ = [
    "CellRequest",
    "GridServer",
    "ServerThread",
    "ServiceClient",
    "ServiceStats",
    "SimulationService",
    "error_payload",
    "parse_cell_request",
    "request_from_json",
    "response_payload",
    "run_smoke",
]
