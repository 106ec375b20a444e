"""Code cache substrate: regions, exit stubs, and the cache itself.

A *region* is the unit of code selected, optimized and cached by the
dynamic optimization system (Section 1).  Two concrete kinds exist:

* :class:`~repro.cache.region.TraceRegion` — an interprocedural
  superblock: one entry, a straight-line block path, side exits.  This
  is what NET and LEI select.
* :class:`~repro.cache.region.CFGRegion` — a single-entry multi-path
  region with internal split and join points.  This is what trace
  combination (Section 4) selects.

The cache is unbounded (per Section 2.3) and addressed by region entry
block; exits whose targets are cached entries are linked directly,
which the simulator models by checking the cache at every region exit.
"""

from repro.cache.region import CFGRegion, Region, TraceRegion
from repro.cache.codecache import BoundedCodeCache, CodeCache, make_cache
from repro.cache.sizing import STUB_BYTES

__all__ = [
    "Region",
    "TraceRegion",
    "CFGRegion",
    "CodeCache",
    "BoundedCodeCache",
    "make_cache",
    "STUB_BYTES",
]
