"""The default exit-stub size of Section 4.3.4's cache size estimate.

"To estimate its size, we compute the total number of instruction bytes
inserted in the code cache and conservatively add 10 bytes for each
exit stub."  The cache charges that footprint per region
(:meth:`CodeCache.region_bytes <repro.cache.codecache.CodeCache.region_bytes>`)
with its config's ``stub_bytes``, which defaults to this value.
Optimization effects on region size and inter-region link memory are
ignored, as in the paper.
"""

#: Conservative per-stub size: at least three instructions at 3-4 bytes
#: each would exceed this, so 10 bytes understates stub cost — the same
#: conservative direction the paper chooses.
STUB_BYTES = 10
