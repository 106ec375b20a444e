"""Batched fleet execution: many grid cells per vectorized sweep.

The batched backend runs an entire experiment grid or seed-stability
sweep as a *fleet* — one lane per (benchmark, selector, scale, seed)
cell — advancing every region-walking lane in lockstep over numpy
structure-of-arrays state when the ``repro[fast]`` extra is installed
and the fleet is wide enough to fill a vector round.  Every other
fleet runs its cells one after another on the serial fused core.  The
serial pipeline remains the bit-identity oracle: per-cell reports and
store digests are identical by construction and by test.  See
``docs/batching.md``.
"""

from repro.batch.backend import (
    HAVE_NUMPY,
    available_backends,
    get_backend,
)
from repro.batch.fleet import (
    BatchCell,
    FleetResult,
    build_fleet_program,
    run_fleet,
)

__all__ = [
    "HAVE_NUMPY",
    "available_backends",
    "get_backend",
    "BatchCell",
    "FleetResult",
    "build_fleet_program",
    "run_fleet",
]
