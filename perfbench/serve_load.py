"""The serve workloads: ``python -m repro serve`` under a closed loop.

``serve_warm`` primes a gateway with 64 specs and replays batches drawn
from them, so every timed spec is a cache hit.  ``serve_cold`` sends
specs the gateway has never seen, so every timed spec executes.  Both
use :data:`CLIENTS` client threads in this process, each posting its
next batch only after the previous response is fully decoded.
"""

from __future__ import annotations

import resource
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.serve import ServerQueueFull, fetch_stats, submit_specs
from repro.runtime import RunSpec

from checkout import ROOT, child_env
from gate import Outcome, Request, fingerprint, local_fingerprints, serve_failures
from specgen import BatchStream, cold_batches, warm_batches, warm_set
from summary import Measure, median, tail_percentiles

#: Gateway worker processes and concurrent clients (the 2-core host's nproc).
JOBS = 2
CLIENTS = 2

#: Gateway start-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Seconds before a stuck gateway fails the run instead of hanging it.
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0

Submit = Callable[[str, List[RunSpec]], List[Any]]


class GatewayProcess:
    """One ``python -m repro serve`` child on a free port."""

    def __init__(self, cache_dir: Path, log_path: Path) -> None:
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> str:
        """Spawn the gateway and block until it prints its url."""
        with self.log_path.open("w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(JOBS), "--cache", str(self.cache_dir)],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        assert self.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"gateway not serving after {READY_TIMEOUT}s")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"gateway exited before serving: {self.log_path.read_text()[-500:]}"
                )
            if line.startswith("serving on "):
                self.url = line.split()[-1]
                return self.url

    def stop(self) -> None:
        """SIGINT (the gateway drains and exits), then kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


def reduce_outcomes(outcomes: List[Any]) -> List[Outcome]:
    """Client outcomes as the gate compares them (see :mod:`gate`)."""
    return [
        Outcome(
            digest=outcome.digest,
            status=outcome.status,
            fingerprint=fingerprint(outcome.result) if outcome.ok else None,
            events=len(outcome.events),
            error=outcome.error,
        )
        for outcome in outcomes
    ]


def send(url: str, specs: List[RunSpec]) -> List[Any]:
    """The public client call every request goes through."""
    return submit_specs(url, specs, timeout=REQUEST_TIMEOUT)


def post(url: str, index: int, specs: List[RunSpec], submit: Submit = send) -> Request:
    """One request, timed from the POST until its last result is decoded."""
    request = Request(index=index, specs=specs)
    started = time.perf_counter()
    try:
        outcomes = submit(url, specs)
    except ServerQueueFull as exc:
        request.error, request.refused = repr(exc), True
        return request
    except Exception as exc:  # noqa: BLE001 - a failed request is a result
        request.error = repr(exc)
        return request
    request.latency = time.perf_counter() - started
    request.outcomes = reduce_outcomes(outcomes)
    return request


def closed_loop(
    url: str,
    stream: BatchStream,
    seconds: float,
    submit: Submit = send,
) -> Tuple[List[Request], float]:
    """Run :data:`CLIENTS` closed-loop clients; return requests and wall time.

    Clients stop taking batches after ``seconds`` or when the stream
    ends; requests already in flight complete and are counted.
    """
    deadline = time.perf_counter() + seconds
    requests: List[Request] = []

    def client() -> None:
        while time.perf_counter() < deadline:
            index, specs = stream.take()
            if index < 0:
                return
            requests.append(post(url, index, specs, submit))

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    requests.sort(key=lambda request: request.index)
    return requests, time.perf_counter() - started


def workload_batches(workload: str, seed: int) -> Tuple[List[RunSpec], Iterator[List[RunSpec]]]:
    """``(priming specs, timed batch stream)`` for a serve workload."""
    if workload == "serve_warm":
        specs = warm_set(seed)
        return specs, warm_batches(seed, specs)
    # Recording stays off while priming: a recorded spec costs several
    # times a plain one, and set-up time should not depend on the seed.
    batches = cold_batches(seed)
    return [spec.with_(record=False) for spec in next(batches)], batches


def check_stats(workload: str, stats: Dict[str, Any], primed: int, timed: int) -> List[str]:
    """Gateway counters that prove the intended workload ran."""
    problems = []
    expected = {"warm_hits": timed if workload == "serve_warm" else 0}
    if workload == "serve_cold":
        expected["completed"] = primed + timed
    for key, want in expected.items():
        if stats.get(key) != want:
            problems.append(f"/stats {key}={stats.get(key)} but expected {want}")
    return problems


def serve_summary(requests: List[Request], elapsed: float) -> Dict[str, Measure]:
    """Throughput and latency of a closed loop, with sample counts."""
    latencies = [r.latency * 1000 for r in requests if r.latency is not None]
    served = sum(
        1 for r in requests for outcome in r.outcomes if outcome.error is None
    )
    rows: Dict[str, Measure] = {
        "specs_per_s": (served / elapsed, "1/s", served),
        "latency_p50_ms": (median(latencies) if latencies else float("nan"), "ms", len(latencies)),
    }
    for name, value in tail_percentiles(latencies).items():
        rows[f"latency_{name}_ms"] = (value, "ms", len(latencies))
    return rows


def run(workload: str, seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    """One untraced serve run: set-ups, the timed loop, and the gate."""
    primer, batches = workload_batches(workload, seed)
    setups: List[float] = []
    gateway: Optional[GatewayProcess] = None
    requests: List[Request] = []
    try:
        for attempt in range(SETUPS):
            if gateway is not None:
                gateway.stop()
            gateway = GatewayProcess(work / f"cache-{attempt}", work / f"gateway-{attempt}.log")
            started = time.perf_counter()
            url = gateway.start()
            priming = post(url, -1, primer)
            setups.append(time.perf_counter() - started)
        requests, elapsed = closed_loop(url, BatchStream(batches), seconds)
        stats = fetch_stats(url)
    finally:
        if gateway is not None:
            gateway.stop()
    # Every gateway process and its pool workers have been reaped.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    timed = sum(len(r.specs) for r in requests if r.error is None)
    problems = check_stats(workload, stats, len(primer), timed)
    gated = [priming] + requests
    local = local_fingerprints([spec for r in gated for spec in r.specs])
    failed, reasons = serve_failures(gated, local)
    attempted = sum(len(r.specs) for r in gated)
    rows = serve_summary(requests, elapsed)
    rows["setup_s"] = (median(setups), "s", len(setups))
    rows["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    rows["failed_frac"] = (failed / attempted, "ratio", attempted)
    rows["refused"] = (sum(r.refused for r in requests), "count", len(requests))
    return {
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + reasons,
    }
