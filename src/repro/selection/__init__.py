"""Region-selection algorithms: the paper's primary contribution.

Every selector implements the common
:class:`~repro.selection.base.RegionSelector` interface, whose
callbacks take the transfer ``(block, taken, target)``:

* :class:`~repro.selection.net.NETSelector` — Next-Executing Tail
  (Duesterwald & Bala), the Dynamo/DynamoRIO/Mojo baseline of
  Section 2.1.
* :class:`~repro.selection.lei.LEISelector` — Last-Executed Iteration
  (Section 3, Figures 5-6): cyclic trace selection from a branch
  history buffer.
* :class:`~repro.selection.combining.CombinedNETSelector` and
  :class:`~repro.selection.combining.CombinedLEISelector` — trace
  combination (Section 4, Figures 13-15) over NET and LEI, producing
  multi-path CFG regions.
* :mod:`~repro.selection.related` — the Section 5 comparators Mojo,
  BOA and Wiggins/Redstone.

Use :func:`~repro.selection.registry.make_selector` (or the
``SELECTOR_FACTORIES`` registry) to construct the four configurations
the paper evaluates: ``net``, ``lei``, ``combined-net``,
``combined-lei`` (and ``mojo``, ``boa``, ``wiggins``).
"""

from repro.selection.base import RegionSelector
from repro.selection.counters import CounterTable
from repro.selection.history import BranchHistoryBuffer
from repro.selection.net import NETSelector
from repro.selection.lei import LEISelector
from repro.selection.combining import CombinedLEISelector, CombinedNETSelector
from repro.selection.related import (
    BOASelector,
    MojoSelector,
    WigginsRedstoneSelector,
)
from repro.selection.registry import (
    RELATED_SELECTOR_NAMES,
    SELECTOR_FACTORIES,
    SELECTOR_NAMES,
    make_selector,
)

__all__ = [
    "RegionSelector",
    "CounterTable",
    "BranchHistoryBuffer",
    "NETSelector",
    "LEISelector",
    "CombinedNETSelector",
    "CombinedLEISelector",
    "MojoSelector",
    "BOASelector",
    "WigginsRedstoneSelector",
    "SELECTOR_FACTORIES",
    "SELECTOR_NAMES",
    "RELATED_SELECTOR_NAMES",
    "make_selector",
]
