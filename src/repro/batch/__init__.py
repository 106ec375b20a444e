"""Fleet execution: many grid cells as one stream on the fused core.

:func:`run_fleet` runs an experiment grid's or sweep's cells — one per
(benchmark, selector, scale, seed) — one after another on the serial
fused core, and reports the run as a one-slot stream with batch-level
``fleet_*`` events.  Per-cell reports are the serial pipeline's by
construction and by test.  See ``docs/batching.md``.
"""

from repro.batch.fleet import (
    HAVE_NUMPY,
    BatchCell,
    FleetResult,
    build_fleet_program,
    get_backend,
    run_fleet,
)

__all__ = [
    "HAVE_NUMPY",
    "get_backend",
    "BatchCell",
    "FleetResult",
    "build_fleet_program",
    "run_fleet",
]
