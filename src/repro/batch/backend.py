"""Array backends for the batched fleet kernel.

The kernel (:mod:`repro.batch.kernel`) keeps all cross-lane state in
structure-of-arrays numpy columns: per-lane step counters, walk-table
program counters, branch-model site state and one SplitMix64 state
word per lane.  This module answers exactly two questions for it:

* which backend a fleet resolves to — ``numpy`` when importable (the
  ``repro[fast]`` extra), ``python`` otherwise, under which every
  fleet runs its cells on the serial fused core, so the stdlib-only
  install keeps every batched entry point working; and
* how to draw random numbers from SoA-resident RNG state **without
  perturbing the stream** the scalar pipeline would produce.

Bit-identity of the RNG is the load-bearing property.  The scalar
engine's :class:`~repro.behavior.rng.SplitMix64` maps its 64-bit
output onto ``[0, 1)`` by multiplying the Python int by ``2**-64``;
CPython converts the int to a double with round-to-nearest-even first.
``numpy``'s ``uint64 -> float64`` cast rounds the same way, and the
multiplier is an exact power of two, so the vectorized draw in
:func:`vector_random` and the scalar draw in :class:`LaneRng.random`
produce the *same float* for the same state word.  The identity suite
in ``tests/test_batch.py`` pins this against the scalar class.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.behavior.rng import SplitMix64, _INV_2_64, _MASK64
from repro.errors import ConfigError

try:  # pragma: no cover - exercised via both backend parametrizations
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy is present in CI
    _numpy = None

#: ``numpy`` module when importable, else ``None`` (every fleet then
#: runs on the fused core).
HAVE_NUMPY = _numpy is not None

#: SplitMix64 constants, shared with :class:`~repro.behavior.rng.SplitMix64`.
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Lane modes (the lifecycle of docs/batching.md).
M_SCALAR = 0  #: interpreting, or walking a CFG region (stepped per lane)
M_VEC = 1  #: walking a trace table (advanced by the vector rounds)
M_DONE = 2  #: retired - halted, returned from main, or out of steps

# Walk-table decision kinds (arena ``a_kind`` column).
K_SCALAR = 0  #: evaluate the lane's own decision closure (side effects)
K_CONST = 1  #: constant (taken, target) tuple - outcome precomputed
K_BERN = 2  #: Bernoulli draw against a per-position probability
K_LOOP = 3  #: jitter-free loop-trip countdown in a site slot
K_PERIODIC = 4  #: periodic pattern indexed by a site-slot cursor
K_CALL = 5  #: call - push a constant return site on the SoA stack
K_RET = 6  #: return - pop the SoA stack, compare popped target ids
K_LOOPJ = 7  #: jittered loop-trip - vectorized randint on activation

# Decision outcomes (arena ``a_tcode`` / ``a_fcode`` columns).
O_ADV = 0  #: advance to the next path position
O_CYC = 1  #: taken branch back to the trace top
O_EXIT = 2  #: the transfer leaves the region (handled per lane)


def numpy_module():
    """The imported numpy module, or ``None``."""
    return _numpy


#: Environment override for backend resolution.  ``auto`` requests
#: resolve to its value, and :func:`available_backends` narrows to it —
#: which is how CI runs the whole fleet bit-identity suite once per
#: backend (``REPRO_BATCH_BACKEND=python`` sends every ``auto`` fleet to
#: the fused core).  Explicit ``get_backend("numpy")`` / ``("python")``
#: calls ignore the variable.
ENV_BACKEND = "REPRO_BATCH_BACKEND"


def _env_backend() -> Optional[str]:
    value = os.environ.get(ENV_BACKEND, "").strip().lower()
    if value in ("", "auto"):
        return None
    if value in ("numpy", "python"):
        return value
    raise ConfigError(
        f"{ENV_BACKEND}={value!r} is not a batch backend: expected "
        f"'auto', 'numpy' or 'python'"
    )


def available_backends() -> tuple:
    """Backends usable in this interpreter, preferred first.

    Honors ``REPRO_BATCH_BACKEND``: a forced substrate narrows the
    tuple to it, so backend-parametrized suites run exactly the forced
    substrate (forcing ``numpy`` without numpy installed raises at
    :func:`get_backend` time and is not narrowed here).
    """
    forced = _env_backend()
    if forced == "python":
        return ("python",)
    if forced == "numpy" and HAVE_NUMPY:
        return ("numpy",)
    return ("numpy", "python") if HAVE_NUMPY else ("python",)


def get_backend(name: str = "auto") -> str:
    """Resolve a backend request to ``"numpy"`` or ``"python"``.

    ``"auto"`` prefers numpy and silently falls back — unless
    ``REPRO_BATCH_BACKEND`` forces a substrate, which ``auto`` then
    resolves to.  Asking for ``"numpy"`` (explicitly or through the
    environment) without the ``repro[fast]`` extra installed is a
    :class:`~repro.errors.ConfigError`.
    """
    if name == "auto":
        forced = _env_backend()
        if forced is not None:
            name = forced
        else:
            return "numpy" if HAVE_NUMPY else "python"
    if name == "numpy":
        if not HAVE_NUMPY:
            raise ConfigError(
                "batch backend 'numpy' requested but numpy is not "
                "installed (pip install 'repro[fast]'), use "
                "backend='auto' or 'python'"
            )
        return "numpy"
    if name == "python":
        return "python"
    raise ConfigError(
        f"unknown batch backend {name!r}: expected 'auto', 'numpy' or "
        f"'python'"
    )


class LaneRng:
    """SplitMix64 over one slot of the fleet's shared state column.

    Duck-types :class:`~repro.behavior.rng.SplitMix64` (the decision
    closures and branch models only ever call these methods), but keeps
    its state word in ``states[index]`` — the same storage the
    vectorized draws of :func:`vector_random` update — so a lane's
    stream never forks between the scalar path (interpreting, CFG
    walks, scalar-kind trace decisions) and the vector path (batched
    Bernoulli decisions).  Every method replicates the scalar class's
    consumption pattern exactly.
    """

    __slots__ = ("states", "index", "_read")

    def __init__(self, states, index: int) -> None:
        self.states = states
        self.index = index
        # numpy's ``item()`` yields a Python int in one C call —
        # measurably cheaper than scalar ``__getitem__`` + int().
        self._read = states.item

    def next_u64(self) -> int:
        state = (self._read(self.index) + GAMMA) & _MASK64
        self.states[self.index] = state
        z = ((state ^ (state >> 30)) * MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        state = (self._read(self.index) + GAMMA) & _MASK64
        self.states[self.index] = state
        z = ((state ^ (state >> 30)) * MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * MIX2) & _MASK64
        return (z ^ (z >> 31)) * _INV_2_64

    def randint(self, low: int, high: int) -> int:
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def bernoulli(self, probability: float) -> bool:
        return self.random() < probability

    def weighted_index(self, cumulative_weights: Sequence[float]) -> int:
        total = cumulative_weights[-1]
        point = self.random() * total
        for index, bound in enumerate(cumulative_weights):
            if point < bound:
                return index
        return len(cumulative_weights) - 1

    def fork(self) -> SplitMix64:
        return SplitMix64(self.next_u64())


def vector_random(states, lane_indices):
    """One uniform draw per selected lane, vectorized (numpy backend).

    Advances ``states[lane_indices]`` in place and returns a float64
    array in ``[0, 1)`` — the exact floats :meth:`LaneRng.random` would
    have produced lane by lane (see the module docstring for why the
    rounding matches).
    """
    np = _numpy
    gamma = np.uint64(GAMMA)
    mix1 = np.uint64(MIX1)
    mix2 = np.uint64(MIX2)
    state = states[lane_indices] + gamma
    states[lane_indices] = state
    z = (state ^ (state >> np.uint64(30))) * mix1
    z = (z ^ (z >> np.uint64(27))) * mix2
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) * _INV_2_64


def vector_next_u64(states, lane_indices):
    """One raw 64-bit draw per selected lane, vectorized.

    The integer counterpart of :func:`vector_random` — the exact words
    :meth:`LaneRng.next_u64` would have produced lane by lane (used for
    the jittered loop-trip ``randint``, which is ``low + word % span``).
    """
    np = _numpy
    state = states[lane_indices] + np.uint64(GAMMA)
    states[lane_indices] = state
    z = (state ^ (state >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))
