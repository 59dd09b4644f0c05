"""End-to-end tests for ``repro.serve`` — the PR 8 tentpole.

Everything here exercises the real stack: a live asyncio HTTP server on
a background thread (:class:`ServerThread`), the stdlib blocking client,
and a shared :class:`SqliteResultCache`.  The acceptance criteria under
test, verbatim from the issue:

* a RunSpec batch submitted over HTTP returns results byte-identical
  (pickle-equal) to local ``Runner.run_specs`` on the same specs;
* warm cache entries are answered without executing anything;
* queue-full returns 429 with a Retry-After;
* per-run failures come back as per-run errors, never poison the cache,
  and never hide their batchmates' results;
* a cold digest in flight is shared by every request that names it;
* a killed pool worker fails only the runs in flight, within a bounded
  time, and the gateway keeps serving on a fresh pool.
"""

from __future__ import annotations

import asyncio
import base64
import http.client
import json
import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

import repro.serve.client as serve_client
from repro.core import RingConfiguration
from repro.core.tracing import RunResult
from repro.obs.export import event_to_json
from repro.runtime import ResultCache, Runner, RunSpec, SqliteResultCache, execute
from repro.serve import (
    Gateway,
    ServeClientError,
    ServerQueueFull,
    ServerThread,
    check_health,
    fetch_stats,
    submit_specs,
)


def _spec(bits, engine="sync", **kwargs) -> RunSpec:
    return RunSpec.make(
        engine=engine,
        ring=RingConfiguration.oriented(tuple(bits)),
        algorithm="sync-and",
        **kwargs,
    )


def _raw_post(url: str, body: bytes, content_type="application/json"):
    """POST raw bytes to /runs, return (status, headers, body)."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("POST", "/runs", body, {"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture
def server(tmp_path):
    with ServerThread(cache=SqliteResultCache(tmp_path)) as srv:
        yield srv


class TestRoundTrip:
    def test_results_pickle_equal_to_local_runner(self, server, tmp_path):
        specs = [
            _spec((1, 1, 0, 1)),
            _spec((1, 1, 1, 1)),
            _spec((0, 1, 0, 1, 1), engine="sync-batch"),
            RunSpec.make(
                engine="async",
                ring=RingConfiguration.oriented((1, 1, 0, 1)),
                algorithm="and",
                scheduler="random",
                scheduler_seed=3,
            ),
        ]
        outcomes = submit_specs(server.url, specs)
        local = Runner().run_specs(specs)
        assert [o.status for o in outcomes] == ["done"] * len(specs)
        assert [o.index for o in outcomes] == list(range(len(specs)))
        for outcome, spec, expected in zip(outcomes, specs, local):
            assert outcome.digest == spec.digest()
            assert pickle.dumps(outcome.result) == pickle.dumps(expected)

    def test_warm_entries_answered_without_executing(self, server):
        specs = [_spec((1, 1, 0, 1)), _spec((1, 1, 1, 1))]
        first = submit_specs(server.url, specs)
        assert [o.status for o in first] == ["done", "done"]
        executed_after_first = server.gateway.runner.executed
        assert executed_after_first == 2

        second = submit_specs(server.url, specs)
        assert [o.status for o in second] == ["cached", "cached"]
        assert server.gateway.runner.executed == executed_after_first
        assert pickle.dumps(second[0].result) == pickle.dumps(first[0].result)

        stats = fetch_stats(server.url)
        assert stats["warm_hits"] == 2
        assert stats["completed"] == 2

    def test_in_batch_duplicates_execute_once(self, server):
        spec = _spec((1, 0, 1))
        outcomes = submit_specs(server.url, [spec, spec, spec])
        assert [o.status for o in outcomes] == ["done"] * 3
        assert server.gateway.runner.executed == 1
        payloads = {pickle.dumps(o.result) for o in outcomes}
        assert len(payloads) == 1

    def test_recorded_runs_stream_their_events(self, server):
        plain = _spec((1, 1, 0))
        recorded = _spec((1, 1, 0), record=True)
        outcomes = submit_specs(server.url, [plain, recorded])
        assert not outcomes[0].events
        assert outcomes[1].events
        for event in outcomes[1].events:
            assert isinstance(event, dict) and "kind" in event


class TestWireBytes:
    """Every NDJSON line of a mixed batch, byte for byte against local runs."""

    def test_lines_match_local_execution(self, server):
        plain = _spec((1, 1, 0, 1))
        recorded = RunSpec.make(
            engine="async",
            ring=RingConfiguration.oriented((1, 0, 1, 1)),
            algorithm="input-distribution",
            scheduler="random",
            scheduler_seed=5,
            record=True,
        )
        warm = _spec((0, 1, 1, 0, 1), engine="sync-batch")
        failing = _spec((1, 1, 1, 1), budget=1)
        assert submit_specs(server.url, [warm])[0].status == "done"
        specs = [plain, recorded, recorded, warm, failing]

        status, _, body = _raw_post(
            server.url,
            json.dumps({"specs": [spec.to_json_dict() for spec in specs]}).encode(),
        )
        assert status == 200
        assert body.endswith(b"\n")
        lines = body.split(b"\n")[:-1]
        assert json.loads(lines[0]) == {
            "type": "accepted", "runs": 5, "cached": 1, "queued": 4,
        }
        assert json.loads(lines[-1]) == {"type": "done", "runs": 5, "failed": 1}

        local = {
            index: execute(spec) for index, spec in enumerate(specs) if spec is not failing
        }
        runs = {}
        position = 1
        while position < len(lines) - 1:
            line = json.loads(lines[position])
            assert line["type"] == "run"
            index = line["index"]
            assert index not in runs
            assert line["digest"] == specs[index].digest()
            runs[index] = line["status"]
            position += 1
            if index not in local:
                assert line["status"] == "error"
                assert "NonTerminationError" in line["error"]
                continue
            expected = local[index]
            assert line["summary"] == {
                "n": expected.n,
                "messages": expected.stats.messages,
                "bits": expected.stats.bits,
                "cycles": expected.cycles,
            }
            served = pickle.loads(base64.b64decode(line["result_pickle"]))
            assert pickle.dumps(served) == pickle.dumps(expected)
            for event in expected.events or ():
                assert lines[position] == json.dumps(
                    {"type": "event", "index": index, "event": event_to_json(event)}
                ).encode()
                position += 1
        assert runs == {
            0: "done", 1: "done", 2: "done", 3: "cached", 4: "error",
        }
        assert len(local[1].events) > 50
        assert [event.seq for event in local[1].events] == sorted(
            event.seq for event in local[1].events
        )

    def test_client_reassembles_lines_split_across_reads(self, server, monkeypatch):
        specs = [_spec((1, 1, 0, 1)), _spec((1, 0, 1), record=True)]
        whole = submit_specs(server.url, specs)
        monkeypatch.setattr(serve_client, "READ_BLOCK", 7)
        pieces = submit_specs(server.url, specs)
        assert [o.status for o in pieces] == ["cached", "cached"]
        for a, b in zip(whole, pieces):
            assert pickle.dumps(a.result) == pickle.dumps(b.result)
            assert a.events == b.events
        assert pieces[1].events

    @pytest.mark.parametrize("backend", [ResultCache, SqliteResultCache])
    def test_gateway_entries_load_as_plain_results(self, tmp_path, backend):
        specs = [_spec((1, 1, 0, 1)), _spec((1, 0, 1, 1), record=True)]
        with ServerThread(cache=backend(tmp_path), jobs=2) as srv:
            assert [o.status for o in submit_specs(srv.url, specs)] == ["done", "done"]
        runner = Runner(cache=backend(tmp_path))
        results = runner.run_specs(specs)
        assert runner.executed == 0
        for spec, result in zip(specs, results):
            assert type(result) is RunResult
            assert pickle.dumps(result) == pickle.dumps(execute(spec))


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        specs = [_spec((1, 1, 0, 1)), _spec((1, 1, 1, 1)), _spec((1, 0, 0, 1))]
        with ServerThread(cache=SqliteResultCache(tmp_path), queue_limit=2) as srv:
            with pytest.raises(ServerQueueFull) as excinfo:
                submit_specs(srv.url, specs)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            # All-or-nothing: the rejected batch queued nothing.
            assert fetch_stats(srv.url)["queue"]["pending"] == 0
            assert fetch_stats(srv.url)["rejected"] == 1
            # A batch that fits is accepted afterwards.
            ok = submit_specs(srv.url, specs[:2])
            assert [o.status for o in ok] == ["done", "done"]

    def test_warm_specs_bypass_the_queue(self, tmp_path):
        """Backpressure counts cold specs only — warm answers always fit."""
        warm = [_spec((1, 1, 0, 1)), _spec((1, 1, 1, 1))]
        with ServerThread(cache=SqliteResultCache(tmp_path), queue_limit=2) as srv:
            submit_specs(srv.url, warm)  # populate the cache
            # 2 warm + 2 cold fits a limit of 2: only cold specs queue.
            batch = warm + [_spec((0, 0, 1)), _spec((0, 1, 1))]
            outcomes = submit_specs(srv.url, batch)
            assert [o.status for o in outcomes] == ["cached", "cached", "done", "done"]


class TestErrorIsolation:
    def test_failing_spec_reports_error_without_hiding_batchmates(self, server):
        good = _spec((1, 1, 0, 1))
        bad = _spec((1, 1, 1, 1), budget=1)  # NonTerminationError at run time
        tail = _spec((0, 1, 1))
        outcomes = submit_specs(server.url, [good, bad, tail])
        assert [o.status for o in outcomes] == ["done", "error", "done"]
        assert "NonTerminationError" in outcomes[1].error
        assert outcomes[1].result is None
        assert outcomes[0].ok and outcomes[2].ok

    def test_errors_are_never_cached(self, server):
        bad = _spec((1, 1, 1, 1), budget=1)
        first = submit_specs(server.url, [bad])
        second = submit_specs(server.url, [bad])
        # Still "error", not "cached": the failure never took the slot.
        assert first[0].status == "error"
        assert second[0].status == "error"
        assert server.gateway.runner.executed == 2
        assert fetch_stats(server.url)["failed"] == 2


class TestHttpSurface:
    def test_health_and_stats(self, server):
        assert check_health(server.url)
        stats = fetch_stats(server.url)
        assert stats["queue"] == {"pending": 0, "limit": 256}
        assert stats["cache"]["backend"] == "sqlite"
        assert stats["runner"]["jobs"] == 1

    def test_malformed_json_is_400(self, server):
        status, _, body = _raw_post(server.url, b"{not json")
        assert status == 400
        assert b"json" in body.lower()

    def test_invalid_spec_is_400_with_position(self, server):
        good = _spec((1, 1, 0)).to_json_dict()
        bad = dict(good)
        bad["engine"] = "warp-drive"
        payload = json.dumps({"specs": [good, bad]}).encode()
        status, _, body = _raw_post(server.url, payload)
        assert status == 400
        message = body.decode()
        assert "1" in message  # names the offending position
        # Nothing was admitted for the valid half.
        assert fetch_stats(server.url)["submitted"] == 0

    @pytest.mark.parametrize("length", ["abc", "1.5", "-5"])
    def test_malformed_content_length_is_400(self, server, length):
        parts = urlsplit(server.url)
        request = (
            f"POST /runs HTTP/1.1\r\nHost: {parts.hostname}\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode()
        with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
            sock.sendall(request)
            reply = b""
            while True:
                data = sock.recv(4096)
                if not data:
                    break
                reply += data
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n"), reply[:80]
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]

    def test_specs_must_be_a_list(self, server):
        status, _, _ = _raw_post(server.url, json.dumps({"specs": "nope"}).encode())
        assert status == 400

    def test_unknown_path_and_method(self, server):
        parts = urlsplit(server.url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            conn.request("DELETE", "/runs")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http://host:port"):
            submit_specs("ftp://nope", [_spec((1, 0))])


class TestLifecycle:
    def test_cache_survives_server_restarts(self, tmp_path):
        spec = _spec((1, 1, 0, 1))
        with ServerThread(cache=SqliteResultCache(tmp_path)) as srv:
            assert submit_specs(srv.url, [spec])[0].status == "done"
        with ServerThread(cache=SqliteResultCache(tmp_path)) as srv:
            outcome = submit_specs(srv.url, [spec])[0]
            assert outcome.status == "cached"
            assert srv.gateway.runner.executed == 0

    def test_pool_path_matches_in_process(self, tmp_path):
        specs = [_spec((1, 1, 0, 1)), _spec((1, 1, 1, 1)), _spec((0, 1, 1))]
        with ServerThread(cache=SqliteResultCache(tmp_path / "a"), jobs=2) as srv:
            pooled = submit_specs(srv.url, specs)
        local = Runner().run_specs(specs)
        for outcome, expected in zip(pooled, local):
            assert pickle.dumps(outcome.result) == pickle.dumps(expected)


def _slow_spec(n: int) -> RunSpec:
    """An async §4.1 input distribution: n(n−1) deliveries, slow at large n."""
    return RunSpec.make(
        engine="async",
        ring=RingConfiguration.oriented((1,) * n),
        algorithm="input-distribution",
    )


class TestSharedInflightJobs:
    def test_one_digest_in_two_batches_is_one_job(self, tmp_path):
        spec = _spec((1, 0, 1, 1))

        async def scenario():
            gateway = Gateway(cache=SqliteResultCache(tmp_path), queue_limit=1)
            first = gateway.submit([spec])
            # The shared job counts once against the limit of 1.
            second = gateway.submit([spec, spec])
            assert first[0].future is second[0].future is second[1].future
            assert gateway.stats()["queue"]["pending"] == 1
            run = await first[0].future
            await gateway.close()
            return gateway, run

        gateway, run = asyncio.run(scenario())
        assert gateway.runner.executed == 1
        assert gateway.stats()["queue"]["pending"] == 0
        assert gateway.completed == 1
        # The job resolves to the run's wire form; its bytes decode to
        # the local result.
        result = pickle.loads(run.pickled)
        assert pickle.dumps(result) == pickle.dumps(Runner().run_specs([spec])[0])

    def test_concurrent_requests_for_one_cold_spec_run_it_once(self, tmp_path):
        spec = _slow_spec(300)  # long enough for both requests to overlap
        with ServerThread(cache=SqliteResultCache(tmp_path), jobs=2) as srv:
            barrier = threading.Barrier(2)
            outcomes = [None, None]

            def client(slot: int) -> None:
                barrier.wait()
                outcomes[slot] = submit_specs(srv.url, [spec], timeout=120)[0]

            threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert [o.status for o in outcomes] == ["done", "done"]
            assert pickle.dumps(outcomes[0].result) == pickle.dumps(outcomes[1].result)
            assert srv.gateway.runner.executed == 1
            assert fetch_stats(srv.url)["completed"] == 1


class TestWorkerDeath:
    def test_killed_worker_fails_its_runs_and_the_pool_recovers(self, tmp_path):
        slow = _slow_spec(1000)  # seconds of work: still running when killed
        before = {child.pid for child in multiprocessing.active_children()}
        cache = SqliteResultCache(tmp_path)
        with ServerThread(cache=cache, jobs=2) as srv:
            box = {}
            request = threading.Thread(
                target=lambda: box.update(out=submit_specs(srv.url, [slow], timeout=60)),
                daemon=True,
            )
            started = time.monotonic()
            request.start()
            workers = []
            while len(workers) < 2 and time.monotonic() - started < 10:
                time.sleep(0.05)
                workers = [
                    child for child in multiprocessing.active_children()
                    if child.pid not in before
                ]
            assert len(workers) == 2, "the gateway's pool never started"
            time.sleep(0.3)
            assert fetch_stats(srv.url)["queue"]["pending"] == 1
            os.kill(workers[0].pid, signal.SIGKILL)
            request.join(30)
            assert not request.is_alive(), "request hung after a worker was killed"
            assert time.monotonic() - started < 30

            [outcome] = box["out"]
            assert outcome.status == "error"
            assert "BrokenProcessPool" in outcome.error
            assert cache.get(slow.digest()) == (False, None)
            stats = fetch_stats(srv.url)
            assert stats["failed"] == 1
            assert stats["queue"]["pending"] == 0

            # The next request runs on a rebuilt pool.
            after = submit_specs(srv.url, [_spec((1, 1, 0, 1))])
            assert [o.status for o in after] == ["done"]
