"""serve-mix: an open loop against a default ``repro serve`` process.

The server runs in its own process with its defaults (serial backend,
two job workers, 5 ms batching window) on a fresh store, pinned to one
core; the client is this process, on the other core, holding one
keep-alive connection per core.  ``awake.py`` keeps every core awake
while the workload runs, so that latencies measure the program's work
and not how long the host takes to wake an idle vCPU, and times how
fast the cores run meanwhile.  Requests fall due on a seeded Poisson
schedule; a request due while every connection is busy waits in the
client, and that wait counts in its latency, which is timed from when
the request was due.  The offered rates are visited in order and the
ladder stops at the first rate that misses the limit.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import inputs
from common import (ROOT, SRC, WORK, HostSpeed, Outcome, RefusedPercentile,
                    Spans, median, peak_rss_mb, percentile, tail_rank)

HERE = os.path.dirname(os.path.abspath(__file__))
from oracle import Oracle

perf = time.perf_counter

#: p99 limit a rate must meet to count towards max_rate_rps.  A cold
#: cell costs ~25-55 ms alone and ~250-310 ms when two cold cells share
#: a batch (spawned job workers); the limit sits above a lone cold cell
#: and below a spawned pair, so rates that pile cold work up fail.
LATENCY_LIMIT_S = 0.2
#: A request sent this late means the backlog is growing: stop the rate.
OVERLOAD_S = 2.0
#: Client connections: one per core ("nproc").
CONNECTIONS = len(os.sched_getaffinity(0))
#: Store probes: each warm cell read (and written) this many times.
STORE_PROBE_ROUNDS = 3
#: Two-cell cold bursts straight through JobEngine(workers=2).
JOB_BURSTS = 10
#: Latencies are scaled as if a keep-awake block took this many CPU
#: seconds (its median on the reference host).
REFERENCE_BLOCK_S = 0.025


def simulate_cell(task) -> object:
    """Job worker: what the service's own worker does with one cell."""
    from repro.metrics.summary import MetricReport
    from repro.system.simulator import simulate
    from repro.workloads import build_benchmark

    bench, selector, scale, seed = task
    return MetricReport.from_result(
        simulate(build_benchmark(bench, scale=scale), selector, seed=seed))


class Server:
    """A ``repro serve`` child process with its own fresh store, and a
    keep-awake loop on every core while it runs."""

    def __init__(self, root: str) -> None:
        self.root = root
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        cpus = sorted(os.sched_getaffinity(0))
        self.speed_logs = [os.path.join(root, f"awake-{cpu}.log")
                           for cpu in cpus]
        self.awake = [subprocess.Popen(
            [sys.executable, os.path.join(HERE, "awake.py"), str(cpu), log],
            cwd=ROOT) for cpu, log in zip(cpus, self.speed_logs)]
        self.store = os.path.join(root, "store")
        self.log = open(os.path.join(root, "server.log"), "wb")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--store", self.store],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log)
        line = self._first_line(timeout=60)
        match = re.search(rb"serving on http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        # The server gets a core of its own and this process (the client)
        # the rest, so that neither takes the other's core.
        if len(cpus) > 1:
            for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
                os.sched_setaffinity(int(tid), {cpus[-1]})
            os.sched_setaffinity(0, set(cpus[:-1]))

    def host_factor(self, start: float, end: float) -> float:
        """Median CPU seconds of the keep-awake blocks that ended between
        ``start`` and ``end`` (perf_counter, the loops' monotonic clock),
        over REFERENCE_BLOCK_S: above 1 on a slower host."""
        blocks = []
        for path in self.speed_logs:
            with open(path, encoding="ascii") as fh:
                # The last line may still be being written.
                for line in fh.read().split("\n")[:-1]:
                    ended, seconds = map(float, line.split())
                    if start <= ended <= end:
                        blocks.append(seconds)
        return statistics.median(blocks) / REFERENCE_BLOCK_S

    def _first_line(self, timeout: float) -> bytes:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(timeout)
        return box[0] if box else b""

    @property
    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT is the server's clean shutdown; kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        for loop in self.awake:
            loop.kill()
            loop.wait()


@dataclass
class Sent:
    request: inputs.Request
    due: float
    #: When a connection was free for the request (>= due when queued).
    ready: float
    sent: float
    done: float
    status: Optional[int]
    body: dict

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        """How late the generator itself sent (client queueing excluded)."""
        return self.sent - self.ready


def post(client, cell: inputs.Cell):
    bench, selector, scale, seed = cell
    return client.request("POST", "/v1/simulate", {
        "benchmark": bench, "selector": selector, "scale": scale,
        "seed": seed})


def run_phase(port: int, requests: List[inputs.Request]):
    """Send one rate's requests on schedule; returns (sent, aborted,
    start)."""
    from repro.serve import ServiceClient

    results: List[Optional[Sent]] = [None] * len(requests)
    cursor = itertools.count()
    abort = threading.Event()
    start = perf() + 0.05

    def connection() -> None:
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            while not abort.is_set():
                index = next(cursor)
                if index >= len(requests):
                    return
                request = requests[index]
                due = start + request.due
                ready = perf()
                if ready < due:
                    time.sleep(due - ready)
                sent = perf()
                if sent - due > OVERLOAD_S:
                    abort.set()
                    return
                try:
                    status, body = post(client, request.cell)
                except Exception as exc:  # counted as a failed request
                    status, body = None, {"error": repr(exc)}
                results[index] = Sent(request, due, max(due, ready), sent,
                                      perf(), status, body)

    threads = [threading.Thread(target=connection)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None], abort.is_set(), start


class ServeMix:
    name = "serve-mix"

    def __init__(self, seed: int, oracle: Oracle) -> None:
        self.seed = seed
        self.oracle = oracle
        self.warm = inputs.serve_warm(seed)
        #: (spec, report dict) of every 200 response, checked after timing.
        self.outputs = []
        self.details: Dict[str, object] = {"connections": CONNECTIONS}
        self.server: Optional[Server] = None

    def specs_before(self):
        return []

    def setup(self, spans: Optional[Spans] = None) -> None:
        from repro.serve import ServiceClient  # noqa: F401 (import cost)

        self.server = Server(os.path.join(WORK, f"serve-{os.getpid()}"))
        with ServiceClient("127.0.0.1", self.server.port) as client:
            for cell in self.warm:
                status, body = post(client, cell)
                if status != 200:
                    raise RuntimeError(f"warm-set cell {cell}: {status} "
                                       f"{body.get('error')}")
                self.outputs.append(((cell, None), body["report"]))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            shutil.rmtree(self.server.root, ignore_errors=True)
            self.server = None

    def rate(self, out: Outcome, rate: float,
             requests: List[inputs.Request]) -> dict:
        """Offer one rate's requests; every response is kept for checking."""
        sent, aborted, start = run_phase(self.server.port, requests)
        out.attempted += len(sent)
        ok = []
        for item in sent:
            if item.status == 200:
                ok.append(item)
                self.outputs.append(((item.request.cell, None),
                                     item.body["report"]))
            else:
                out.fail(1, f"request {item.request.rid}: {item.status} "
                            f"{item.body.get('error')}")
        phase = summarize(rate, sent, ok, aborted, start)
        phase["host_factor"] = self.server.host_factor(start, perf())
        return phase

    def ladder(self, out: Outcome,
               schedule: inputs.ServeSchedule) -> List[dict]:
        """Visit the offered rates in order until one misses the limit."""
        phases = []
        for index, rate in enumerate(schedule.rates):
            phases.append(self.rate(out, rate, schedule.phase(index)))
            if not phases[-1]["passed"]:
                break
        return phases

    def run(self, seconds: float, out: Outcome, host: HostSpeed) -> None:
        phases = self.ladder(out, inputs.serve_schedule(self.seed, seconds))
        base = phases[0]
        if base["p99_ms"] is None:
            raise RuntimeError("base rate sent too few requests for a p99")
        for name in ("p50_ms", "p99_ms"):
            out.put_host(name, base[name], base[name] / base["host_factor"],
                         "ms")
        out.put("sim_instr_per_s", base["instr_per_s"], "instr/s")
        passed = [phase for phase in phases if phase["passed"]]
        out.put("max_rate_rps", passed[-1]["achieved_rps"] if passed else 0.0,
                "req/s")
        out.put("peak_rss_mb", self.server.peak_rss_mb, "MiB")
        self.details["phases"] = [
            {k: v for k, v in phase.items() if k != "items"}
            for phase in phases]
        self.details["latency_limit_ms"] = LATENCY_LIMIT_S * 1000

    def check(self, out: Outcome) -> None:
        self.oracle.ensure(spec for spec, _ in self.outputs)
        for spec, report in self.outputs:
            if not self.oracle.check(spec, report):
                out.fail(1, f"report differs from oracle: "
                            f"{inputs.cell_id(*spec)}")

    # -- traced run ------------------------------------------------------
    def traced(self, seconds: float, out: Outcome, spans: Spans,
               host: HostSpeed) -> None:
        from repro.serve import ServiceClient

        schedule = inputs.serve_schedule(self.seed, seconds)
        reference = inputs.serve_schedule(self.seed, seconds, "reference")
        with ServiceClient("127.0.0.1", self.server.port) as client:
            before = client.stats()["service"]
            untraced = self.rate(out, reference.rates[0], reference.phase(0))
            phases = self.ladder(out, schedule)
            after = client.stats()["service"]
        items = [item for phase in phases for item in phase["items"]]
        for item in items:
            op = f"request/{item.request.rid}"
            parent = spans.add("request", item.due, item.done, op)
            spans.add("gen.queue", item.due, item.ready, op, parent)
            spans.add("gen.late", item.ready, item.sent, op, parent)
            spans.add("serve.http", item.sent, item.done, op, parent)
        out.put("trace.overhead_pct",
                (phases[0]["p50_ms"] / phases[0]["host_factor"]
                 / (untraced["p50_ms"] / untraced["host_factor"]) - 1.0) * 100,
                "%")
        # Responses carry their own source and elapsed_ms: the untraced
        # rate's count too, so the rarer tiers get enough samples.
        put_serve(out, untraced["items"] + items, before, after)
        out.put("gen.late_p99_ms",
                percentile(spans.durations("gen.late"), 0.99) * 1000, "ms")
        self.probe_store(out, spans)
        self.probe_jobs(out, spans, seconds)

    def probe_store(self, out: Outcome, spans: Spans) -> None:
        """ResultStore.get / put on the warm set, off the live server."""
        from repro.analysis.serialize import report_from_dict
        from repro.config import SystemConfig
        from repro.store import ResultStore, cell_key

        live = ResultStore(self.server.store)
        keys = [cell_key(b, s, scale, seed, SystemConfig())
                for b, s, scale, seed in self.warm]
        reports = [report_from_dict(dict(report))
                   for (cell, _), report in self.outputs[:len(keys)]]
        for round_ in range(STORE_PROBE_ROUNDS):
            fresh = ResultStore(os.path.join(self.server.root,
                                             f"probe-{round_}"))
            for key, report in zip(keys, reports):
                with spans.span("store.get", f"store/{key.digest[:12]}"):
                    if live.get(key) is None:
                        out.fail(1, "warm cell missing from the store")
                with spans.span("store.put", f"store/{key.digest[:12]}"):
                    fresh.put(key, report)
        out.put("store.get_ms", median(spans.durations("store.get")) * 1000,
                "ms")
        out.put("store.put_ms", median(spans.durations("store.put")) * 1000,
                "ms")

    def probe_jobs(self, out: Outcome, spans: Spans, seconds: float) -> None:
        """Dispatch cost of a two-cell cold burst: JobEngine(workers=2)
        wall minus each cell's own simulate time."""
        from repro.jobs.engine import Job, JobEngine

        method = server_start_method()
        self.details["job_start_method"] = method
        context = multiprocessing.get_context(method)
        rng_cells = inputs.serve_schedule(self.seed, seconds,
                                          "jobs").cold_cells
        samples = []
        for burst in range(JOB_BURSTS):
            cells = rng_cells[2 * burst:2 * burst + 2]
            own = []
            for cell in cells:
                with spans.span("jobs.simulate", inputs.cell_id(cell)) as s:
                    simulate_cell(cell)
                own.append(s.seconds)
            engine = JobEngine(simulate_cell, workers=2, mp_context=context)
            with spans.span("jobs.run", f"burst/{burst}") as s:
                engine.run([Job(inputs.cell_id(c), c) for c in cells])
            samples += [s.seconds - t for t in own]
        out.put("jobs.dispatch_ms", median(samples) * 1000, "ms")


def server_start_method() -> str:
    """The start method the server's engine gets: it picks from a worker
    thread, so ask from one here too."""
    from repro.jobs.engine import pick_mp_context

    box: List[str] = []
    thread = threading.Thread(
        target=lambda: box.append(pick_mp_context().get_start_method()))
    thread.start()
    thread.join()
    return box[0]


def summarize(rate, sent: List[Sent], ok: List[Sent], aborted: bool,
              start: float) -> dict:
    latencies = [item.latency for item in sent]
    n = len(latencies)
    try:
        p99 = percentile(latencies, 0.99)
    except RefusedPercentile:
        p99 = None
    quarter = max(len(sent) // 4, 1)
    head = median([i.latency for i in sent[:quarter]]) if quarter >= 20 else 0
    tail = median([i.latency for i in sent[-quarter:]]) if quarter >= 20 else 0
    growing = tail > 2 * head + 0.005
    end = max((item.done for item in sent), default=start)
    instructions = sum(item.body["report"]["total_instructions"]
                       for item in ok)
    return {
        "rate": rate,
        "sent": n,
        "failed": n - len(ok),
        "aborted": aborted,
        "backlog_growing": growing,
        "p50_ms": median(latencies) * 1000 if n >= 20 else None,
        "p99_ms": p99 * 1000 if p99 is not None else None,
        "achieved_rps": n / (end - start) if end > start else 0.0,
        "instr_per_s": instructions / (end - start) if end > start else 0.0,
        "late_p99_ms": percentile([i.late for i in sent], 0.99) * 1000
        if p99 is not None else None,
        "passed": (not aborted and p99 is not None and len(ok) == n
                   and p99 <= LATENCY_LIMIT_S and not growing),
        "items": sent,
    }


def put_serve(out: Outcome, items: List[Sent], before: dict,
              after: dict) -> None:
    """serve.* from each response's source and elapsed_ms plus stats."""
    http = [(i.done - i.sent) * 1000 - i.body["elapsed_ms"]
            for i in items if i.status == 200]
    out.put("serve.http_ms", median(http), "ms")
    ranks = {}
    for source in ("store", "coalesced", "computed"):
        elapsed = [i.body["elapsed_ms"] for i in items
                   if i.status == 200 and i.body["source"] == source]
        for label, q in (("p50", 0.5), ("p99", 0.99)):
            rank = tail_rank(len(elapsed), q)
            value = percentile(elapsed, rank) if len(elapsed) >= 20 else 0.0
            out.put(f"serve.resolve_ms.{source}.{label}", value, "ms")
            ranks[f"{source}.{label}"] = {"samples": len(elapsed),
                                         "rank": rank}
    out.details["serve_resolve_ranks"] = ranks
    delta = {k: after[k] - before[k] for k in after}
    out.put("serve.warm_ratio", delta["warm_hits"] / delta["requests"],
            "ratio")
    out.put("serve.coalesced_ratio", delta["coalesced"] / delta["requests"],
            "ratio")
    out.put("serve.cells_per_batch",
            delta["jobs_launched"] / delta["batches"] if delta["batches"]
            else 0.0, "cells")
    out.details["serve_stats"] = delta


WORKLOADS = {ServeMix.name: ServeMix}
