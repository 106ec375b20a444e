"""Three-tier request resolution over the store and the job engine.

:class:`SimulationService` is the transport-independent heart of
:mod:`repro.serve` (the HTTP layer in :mod:`repro.serve.server` is a
thin shell around it).  Every request resolves through the cheapest
tier that can satisfy it:

1. **warm store hit** — the cell's content address is already in the
   :class:`~repro.store.ResultStore`: one file read, no simulation;
2. **single-flight coalescing** — an identical cell (same digest) is
   already being computed: the request awaits the in-flight future
   instead of launching anything.  N concurrent identical requests
   execute exactly one job and all receive the same bit-identical
   report;
3. **cold dispatch** — the cell is queued and, after a short batching
   window that lets a concurrent burst pile up, the queue is handed to
   a :class:`~repro.jobs.engine.JobEngine` batch with the engine's
   existing per-job timeout / bounded-retry / fault machinery.  Each
   finished cell persists to the store *and* resolves its waiters as
   it completes, not when the batch drains.  A cell that fails
   terminally rejects only its own waiters; the batch-mates the engine
   stopped with it are queued again.

The dispatcher runs `JobEngine.run` in a worker thread
(``asyncio.to_thread``) so the event loop — and therefore warm hits
and health checks — stays responsive while cells simulate.  Because a
freshly computed cell is persisted *before* its future resolves, any
request that arrives after resolution finds tier 1 warm; the
``in-flight`` window is therefore exactly the computation, never
longer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import JobError, ServeError
from repro.experiments.runner import grid_cell
from repro.jobs.engine import Job, JobEngine
from repro.metrics.summary import MetricReport
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.serve.protocol import CellRequest
from repro.store import CellKey, ResultStore


@dataclass
class ServiceStats:
    """Resolution-path counters for one service instance."""

    requests: int = 0
    warm_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    jobs_launched: int = 0
    batches: int = 0
    failures: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "warm_hits": self.warm_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "jobs_launched": self.jobs_launched,
            "batches": self.batches,
            "failures": self.failures,
        }


@dataclass
class _Pending:
    """One cold cell waiting for (or riding on) a dispatch batch."""

    digest: str
    key: CellKey
    request: CellRequest
    future: "asyncio.Future[MetricReport]"


class SimulationService:
    """Resolve grid-cell requests through store, coalescing and jobs."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        job_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        observer: Optional[Observer] = None,
        code_version: Optional[str] = None,
        batch_window: float = 0.005,
    ) -> None:
        self.store = store
        self.workers = max(1, workers)
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.obs = observer if observer is not None else NULL_OBSERVER
        #: Pinned store address component; ``None`` tracks the git SHA.
        self.code_version = code_version
        #: Seconds a cold miss waits before dispatch so a concurrent
        #: burst of distinct cells lands in one engine batch.
        self.batch_window = batch_window
        self.stats = ServiceStats()
        self._inflight: Dict[str, _Pending] = {}
        self._queue: List[_Pending] = []
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running event loop and start the dispatcher."""
        if self._dispatcher is not None:
            raise ServeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closed = False
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def close(self) -> None:
        """Stop dispatching; fail queued waiters (in-batch jobs finish)."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for pending in list(self._inflight.values()):
            if not pending.future.done():
                pending.future.set_exception(
                    ServeError("service shut down before the cell computed")
                )
        self._inflight.clear()
        self._queue.clear()

    @property
    def inflight(self) -> int:
        """Cells currently queued or computing."""
        return len(self._inflight)

    # -- resolution ------------------------------------------------------
    async def resolve(
        self, request: CellRequest
    ) -> Tuple[MetricReport, str, str]:
        """Resolve one cell; returns ``(report, source, digest)``.

        ``source`` names the tier that satisfied the request:
        ``"store"`` (warm hit), ``"coalesced"`` (rode an identical
        in-flight job) or ``"computed"`` (this request's own cold
        dispatch).
        """
        if self._loop is None or self._closed:
            raise ServeError("service is not running (call start() first)")
        key = request.key(self.code_version)
        digest = key.digest
        self.stats.requests += 1
        # Tier 1: warm store.  The file read runs off-loop so a large
        # entry never stalls other connections.
        report = await asyncio.to_thread(self.store.get, key)
        if report is not None:
            self.stats.warm_hits += 1
            return report, "store", digest
        # Tier 2: single-flight.  No await between the lookup and the
        # registration below, so two requests for one digest can never
        # both register (the event loop interleaves only at awaits).
        existing = self._inflight.get(digest)
        if existing is not None:
            self.stats.coalesced += 1
            self.obs.event("serve_coalesced", 0, digest=digest[:12],
                           benchmark=request.benchmark,
                           selector=request.selector)
            report = await asyncio.shield(existing.future)
            return report, "coalesced", digest
        # Tier 3: cold dispatch.
        pending = _Pending(digest, key, request, self._loop.create_future())
        self._inflight[digest] = pending
        self._queue.append(pending)
        self._wake.set()
        # shield: a disconnecting client must not cancel the shared
        # future other coalesced waiters (and the store put) ride on.
        report = await asyncio.shield(pending.future)
        self.stats.computed += 1
        return report, "computed", digest

    # -- dispatch --------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            batch, self._queue = self._queue, []
            if not batch:
                continue
            self.stats.batches += 1
            self.stats.jobs_launched += len(batch)
            try:
                await asyncio.to_thread(self._run_batch, batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Terminal engine failure (retry budget exhausted).  The
                # engine stops the whole batch at its first one, so only
                # the failed cell is answered; the cells it stopped go
                # back on the queue.  A failure no cell owns rejects
                # every waiter the batch still owes an answer.
                self.stats.failures += 1
                failed = (exc.context.get("job_id")
                          if isinstance(exc, JobError) else None)
                owned = any(p.digest == failed for p in batch)
                retry = []
                for pending in batch:
                    if pending.future.done():
                        continue
                    if owned and pending.digest != failed:
                        retry.append(pending)
                        continue
                    self._inflight.pop(pending.digest, None)
                    pending.future.set_exception(
                        exc if isinstance(exc, JobError)
                        else JobError(f"batch dispatch failed: {exc}")
                    )
                if retry:
                    self._queue[:0] = retry
                    self._wake.set()

    def _run_batch(self, batch: List[_Pending]) -> None:
        """Worker thread: run one engine batch, resolving as cells land.

        Job ids are the cell digests (unique by construction — the
        single-flight tier guarantees one pending entry per digest).
        """
        by_digest = {pending.digest: pending for pending in batch}

        def on_complete(job_id: str, report: MetricReport) -> None:
            # Persist FIRST: by the time a waiter wakes, the cell is a
            # warm hit for everyone who asks later.
            self.store.put(by_digest[job_id].key, report)
            self._loop.call_soon_threadsafe(
                self._settle, job_id, report
            )

        engine = JobEngine(
            grid_cell,
            workers=self.workers,
            timeout=self.job_timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            observer=self.obs,
            on_complete=on_complete,
        )
        engine.run([
            Job(pending.digest,
                (pending.request.benchmark, pending.request.selector,
                 pending.request.scale, pending.request.seed,
                 pending.request.config))
            for pending in batch
        ])

    def _settle(self, digest: str, report: MetricReport) -> None:
        """Event-loop side: hand a computed report to its waiters."""
        pending = self._inflight.pop(digest, None)
        if pending is not None and not pending.future.done():
            pending.future.set_result(report)
