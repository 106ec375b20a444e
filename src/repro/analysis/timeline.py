"""Timeline analysis: warm-up curves, windowed rates and phase shifts.

The paper reports end-of-run aggregates; these helpers expose the
*transient* story the simulator's samples record: how long each
selector interprets before going hot, and how phase changes
(Section 4.3.1's caveat about observed traces representing only the
current phase) move the windowed hit rate, region churn and eviction
pressure.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.system.results import TimelineSample

#: A phase shift is a window whose hit rate moved by at least this much
#: (absolute, in [0, 1]) against the window before it...
HIT_RATE_SHIFT = 0.10
#: ...or which selected at least this many more or fewer regions...
CHURN_SHIFT = 8
#: ...or which evicted (or flushed) at least this many more or fewer.
EVICTION_SHIFT = 8

#: Each signal's name, its :class:`WindowRate` field and its threshold.
_SIGNALS = (
    ("hit_rate", "hit_rate", HIT_RATE_SHIFT),
    ("churn", "regions_selected", CHURN_SHIFT),
    ("evictions", "evictions", EVICTION_SHIFT),
)

#: Every run starts from zero: the first window is ``[0, first sample)``.
_ORIGIN = TimelineSample(0, 0, 0, 0, 0, 0)


class WindowRate(NamedTuple):
    """Per-window rates derived from two consecutive timeline samples."""

    start_step: int
    end_step: int
    hit_rate: float
    instructions: int
    regions_selected: int
    region_transitions: int
    evictions: int


class SignalShift(NamedTuple):
    """One signal's move between a window and the window before it."""

    #: End step of the window that moved.
    step: int
    #: ``"hit_rate"``, ``"churn"`` or ``"evictions"``.
    signal: str
    previous: Union[float, int]
    current: Union[float, int]
    delta: Union[float, int]

    @property
    def move(self) -> str:
        """``previous -> current`` for reports; hit rates in percent."""
        if self.signal == "hit_rate":
            return f"{100 * self.previous:.2f}% -> {100 * self.current:.2f}%"
        return f"{self.previous} -> {self.current}"


def window_rates(samples: Sequence[TimelineSample]) -> List[WindowRate]:
    """Turn cumulative samples into per-window rates, from step 0.

    The first window runs from the start of the run to the first
    sample.  Windows with no executed instructions are skipped (they
    cannot define a hit rate).
    """
    rates: List[WindowRate] = []
    for previous, current in zip((_ORIGIN, *samples), samples):
        cache_delta = current.cache_instructions - previous.cache_instructions
        total_delta = current.total_instructions - previous.total_instructions
        if total_delta <= 0:
            continue
        rates.append(WindowRate(
            start_step=previous.step,
            end_step=current.step,
            hit_rate=cache_delta / total_delta,
            instructions=total_delta,
            regions_selected=current.regions_selected - previous.regions_selected,
            region_transitions=(current.region_transitions
                                - previous.region_transitions),
            evictions=current.evictions - previous.evictions,
        ))
    return rates


def phase_shifts(samples: Sequence[TimelineSample]) -> List[SignalShift]:
    """Window-over-window moves of the run's phase signals.

    For each window after the first, one :class:`SignalShift` per signal
    that moved by at least its threshold against the window before:
    the hit rate by :data:`HIT_RATE_SHIFT`, region churn (regions
    selected in the window) by :data:`CHURN_SHIFT`, eviction pressure
    (evictions plus flushes in the window) by :data:`EVICTION_SHIFT`.
    A sampled run with an event sink emits these as ``phase_shift``
    events.
    """
    shifts: List[SignalShift] = []
    rates = window_rates(samples)
    for previous, current in zip(rates, rates[1:]):
        for signal, field, threshold in _SIGNALS:
            before, after = getattr(previous, field), getattr(current, field)
            if abs(after - before) >= threshold:
                shifts.append(SignalShift(current.end_step, signal, before,
                                          after, after - before))
    return shifts


def warmup_step(
    samples: Sequence[TimelineSample], threshold: float = 0.9
) -> Optional[int]:
    """Earliest sampled step after which execution is hot in aggregate.

    Returns the start step of the earliest window from which the
    *remainder of the run*, taken together, meets the ``threshold`` hit
    rate — or ``None`` when even the full run's tail never does.
    Aggregating the suffix (instead of demanding every later window be
    hot) keeps a tiny cold tail — the few interpreted instructions
    around program exit — from erasing an otherwise-warm run.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    rates = window_rates(samples)
    if not rates:
        return None
    # Walk suffixes from the earliest candidate forward.
    suffix_cache = 0
    suffix_total = 0
    suffix_stats = []
    for rate in reversed(rates):
        cache_delta = round(rate.hit_rate * rate.instructions)
        suffix_cache += cache_delta
        suffix_total += rate.instructions
        suffix_stats.append(suffix_cache / suffix_total)
    suffix_stats.reverse()
    for rate, suffix_rate in zip(rates, suffix_stats):
        if suffix_rate >= threshold:
            return rate.start_step
    return None


def first_hot_window(
    samples: Sequence[TimelineSample], threshold: float = 0.95
) -> Optional[int]:
    """End step of the first single window meeting ``threshold``.

    A finer-grained warm-up probe than :func:`warmup_step`: on a long
    run the suffix aggregate is dominated by the hot steady state, so
    this looks at individual windows instead.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    for rate in window_rates(samples):
        if rate.hit_rate >= threshold:
            return rate.end_step
    return None


def coldest_window(samples: Sequence[TimelineSample]) -> Optional[WindowRate]:
    """The window with the lowest hit rate, the first window aside.

    The first window, ``[0, first sample)``, is always cold: every
    selector interprets until it has selected something.
    """
    rates = window_rates(samples)[1:]
    if not rates:
        return None
    return min(rates, key=lambda rate: rate.hit_rate)
