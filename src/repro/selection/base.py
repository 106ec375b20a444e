"""The selector interface the simulator drives.

A selector sees exactly what a software dynamic optimizer sees:

* every *interpreted* step (so trace recorders can follow the
  interpreted path),
* every interpreted *taken branch whose target is not cached* (the
  INTERPRETED-BRANCH-TAKEN entry point of Figures 5 and 13),
* every *exit from the code cache* back to the interpreter (exit
  targets are start candidates in both NET and LEI).

It never sees execution inside the cache — by construction, a selection
algorithm only pays overhead while interpreting (Section 3.1 argues
both NET's and LEI's overhead is constant per interpreted taken
branch).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.cache.codecache import CodeCache
from repro.cache.region import Region
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.program.cfg import BasicBlock
from repro.config import SystemConfig


class RegionSelector(abc.ABC):
    """Interface between the simulator and a selection algorithm."""

    #: Short machine name ("net", "lei", "combined-net", "combined-lei").
    name: str = "abstract"

    def __init__(self, cache: CodeCache, config: SystemConfig) -> None:
        self.cache = cache
        self.config = config
        #: Observability handle; the simulator rebinds it to the run's
        #: observer.  Selectors gate event emission on
        #: ``self.obs.events_enabled`` so a disabled observer costs
        #: nothing on the decision path.  The current simulation step
        #: for event timestamps is ``self.cache.now``.
        self.obs: Observer = NULL_OBSERVER

    # -- simulator callbacks --------------------------------------------
    # Every callback takes the transfer that ended one executed block:
    # ``block`` (all of its instructions ran), ``taken`` (a taken branch
    # rather than a fall-through) and ``target`` (the block that runs
    # next, ``None`` when the program ends).  Both simulator loops call
    # them with the same arguments at the same steps.
    def observe_interpreted(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        """Called for *every* interpreted step, taken or not.

        Recorders that copy the next-executing path (NET trace
        formation, combined-NET observation) are fed here.  Called
        before cache lookup for the step's transfer, so a recorder sees
        the branch that enters the cache and can terminate on it.
        """

    @abc.abstractmethod
    def on_interpreted_taken(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> Optional[Region]:
        """An interpreted taken branch whose target is not cached.

        May install regions as a side effect.  Returning a region makes
        the simulator enter it immediately (LEI's ``jump newT``);
        returning ``None`` keeps interpreting.
        """

    def on_cache_enter(
        self, block: BasicBlock, taken: bool, target: Optional[BasicBlock]
    ) -> None:
        """An interpreted taken branch just entered a cached region.

        Figure 5 lines 1-3 jump without profiling, so no counters move
        here; LEI overrides this to record the branch as a *boundary*
        entry in its history buffer.  Without it the buffer would have a
        silent gap across every cache stint and FORM-TRACE's
        fall-through reconstruction could stitch together a path that
        never executed.
        """

    def on_cache_exit(
        self,
        block: BasicBlock,
        taken: bool,
        target: Optional[BasicBlock],
        region: Region,
    ) -> None:
        """Control left ``region`` to the interpreter after ``block``.

        The exit target is a region-start candidate in both NET
        ("an exit from an existing trace") and LEI ("follows an exit
        from the code cache").
        """

    def finish(self) -> None:
        """The stream ended; abandon any in-flight recording state."""

    # -- dispatch-compilation contract ----------------------------------
    # The fused fast path compiles every resident region into a flat
    # walk table at install time and *link-patches* region exits whose
    # target is another resident region's entry
    # (:mod:`repro.cache.dispatch`).  A patched transition chains
    # region-to-region without a cache lookup — and therefore without
    # calling ``on_cache_exit`` / ``on_cache_enter``, exactly like the
    # reference pipeline, which never surfaces cached-to-cached
    # transfers to the selector either.  Selectors must not assume they
    # see every region transition; they see only genuine cache exits to
    # the interpreter and interpreted entries, same as before.

    # -- observability helpers ------------------------------------------
    def _reject(self, head, reason: str) -> None:
        """Account one abandoned region candidate (``region_rejected``).

        ``head`` is the candidate's entry block.  No-op overheadwise
        when the observer is disabled.
        """
        obs = self.obs
        if obs.metrics is not None:
            obs.count("regions_rejected_total", reason=reason)
        if obs.events_enabled:
            obs.emit(
                "region_rejected",
                self.cache.now,
                entry=head.full_label,
                reason=reason,
            )

    # -- profiling-memory accounting ------------------------------------
    @property
    @abc.abstractmethod
    def peak_counters(self) -> int:
        """Maximum number of profiling counters live at once (Figure 10)."""

    @property
    def peak_observed_trace_bytes(self) -> int:
        """Peak memory holding observed traces (Figure 18); 0 for
        plain trace selectors."""
        return 0


def fast_hooks(selector: RegionSelector) -> tuple:
    """The selector's callbacks as the fused loop calls them.

    Returns ``(observe_interpreted, on_cache_enter,
    on_interpreted_taken, on_cache_exit)``.  The first two are ``None``
    when the selector keeps the base-class no-op, so the fused loop
    skips the call (e.g. LEI pays nothing per untaken interpreted
    step).
    """
    base = RegionSelector
    observe = selector.observe_interpreted
    if getattr(observe, "__func__", None) is base.observe_interpreted:
        observe = None
    enter = selector.on_cache_enter
    if getattr(enter, "__func__", None) is base.on_cache_enter:
        enter = None
    return (
        observe,
        enter,
        selector.on_interpreted_taken,
        selector.on_cache_exit,
    )
