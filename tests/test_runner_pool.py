"""The Runner's long-lived worker pool: reuse, release, and worker death.

``Runner(jobs > 1)`` keeps one process pool from its first parallel batch
until :meth:`Runner.close`.  These tests pin the three outcomes that
matter for a long-lived pool: batches reuse the same workers, closing
leaves no worker process behind, and a worker killed mid-batch makes the
batch raise within a bounded time (never hang) and the next batch run on
a fresh pool.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.runtime import Runner, TaskCall

ROOT = Path(__file__).resolve().parent.parent

#: Upper bound on how long a killed worker may keep a batch waiting.
KILL_DEADLINE = 30.0


def _getpid_calls(count: int):
    return [TaskCall(func="os:getpid") for _ in range(count)]


class TestPoolReuse:
    def test_batches_share_the_same_workers(self):
        with Runner(jobs=2) as runner:
            first = set(runner.map(_getpid_calls(6)))
            second = set(runner.map(_getpid_calls(6)))
        assert os.getpid() not in first
        assert len(first | second) <= 2, "a second batch started new workers"

    def test_single_call_batches_run_on_the_pool(self):
        with Runner(jobs=2) as runner:
            [pid] = runner.map(_getpid_calls(1))
        assert pid != os.getpid()

    def test_close_is_idempotent_and_the_runner_stays_usable(self):
        runner = Runner(jobs=2)
        runner.close()  # no pool yet
        assert runner.map([TaskCall(func="operator:add", args=(1, 2))]) == [3]
        runner.close()
        runner.close()
        assert runner.map([TaskCall(func="operator:add", args=(3, 4))]) == [7]
        runner.close()


class TestConcurrentMaps:
    def test_threads_share_one_pool_and_lose_no_telemetry(self):
        """More mapping threads than cores, switching threads very often."""
        threads, batches, size = 8, 5, 3
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Runner(jobs=2) as runner:
                pids = []

                def client() -> None:
                    for _ in range(batches):
                        pids.extend(runner.map(_getpid_calls(size)))

                workers = [threading.Thread(target=client) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(60)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(previous)
        assert runner.executed == threads * batches * size
        assert len(runner.batches) == threads * batches
        assert len(set(pids)) <= 2, "concurrent first use started two pools"


class TestWorkerDeath:
    def test_killed_worker_fails_the_batch_instead_of_hanging(self):
        with Runner(jobs=2) as runner:
            victims = set(runner.map(_getpid_calls(4)))
            outcome = {}

            def run_batch() -> None:
                try:
                    outcome["value"] = runner.map(
                        [TaskCall(func="time:sleep", args=(60,)) for _ in range(2)]
                    )
                except BaseException as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc

            thread = threading.Thread(target=run_batch, daemon=True)
            thread.start()
            time.sleep(0.5)  # both workers are inside time.sleep by now
            os.kill(next(iter(victims)), signal.SIGKILL)
            thread.join(KILL_DEADLINE)
            assert not thread.is_alive(), "map hung after a worker was killed"
            assert isinstance(outcome.get("error"), BrokenProcessPool)

            # The partial batch is recorded, annotated with the error.
            record = runner.batches[-1]
            assert record["tasks"] == 2
            assert "BrokenProcessPool" in record["error"]

            # The next batch starts a fresh pool and succeeds.
            fresh = set(runner.map(_getpid_calls(4)))
            assert not fresh & victims
            assert runner.map([TaskCall(func="operator:add", args=(2, 3))]) == [5]


    def test_a_worker_killed_between_batches_costs_no_batch(self):
        with Runner(jobs=2) as runner:
            victim = runner.map(_getpid_calls(1))[0]
            os.kill(victim, signal.SIGKILL)
            # The pool reaps its workers once it has marked itself broken.
            deadline = time.monotonic() + KILL_DEADLINE
            while time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("the killed worker was never reaped")
            assert runner.map([TaskCall(func="operator:add", args=(2, 3))]) == [5]
            assert "error" not in runner.batches[-1]


_KILLED_PARENT_SCRIPT = r"""
import time
from repro.runtime import Runner, TaskCall

runner = Runner(jobs=2)
pids = sorted(set(runner.map([TaskCall(func="os:getpid") for _ in range(8)])))
print(*pids, flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed(subprocess_env):
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=subprocess_env,
    )
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert workers and all(_running(pid) for pid in workers)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + KILL_DEADLINE
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(_running(pid) for pid in workers), "orphaned pool workers"


# Run in a fresh interpreter: the check is that *no* child process is
# left, which other tests' short-lived runners in this process could
# blur while their pools wind down.
_NO_CHILDREN_SCRIPT = r"""
import multiprocessing
import sys
from pathlib import Path

from repro.__main__ import main
from repro.core import RingConfiguration
from repro.runtime import Runner, RunSpec, TaskCall
from repro.serve import ServerThread, submit_specs

out = Path(sys.argv[1])

def check(label):
    left = multiprocessing.active_children()
    assert not left, f"{label}: {len(left)} worker processes left"

with Runner(jobs=2) as runner:
    runner.map([TaskCall(func="os:getpid") for _ in range(4)])
check("with Runner(jobs=2)")

spec = RunSpec.make(
    engine="sync", ring=RingConfiguration.oriented((1, 1, 0, 1)), algorithm="sync-and"
)
with ServerThread(jobs=2) as server:
    assert submit_specs(server.url, [spec])[0].status == "done"
check("ServerThread(jobs=2)")

for argv in (
    ["report", "--quick", "--jobs", "2", "--output", str(out / "EXPERIMENTS.md")],
    ["bench", "--quick", "--jobs", "2", "--output", str(out / "BENCH.json")],
    ["fuzz", "--quick", "--jobs", "2", "--output", str(out / "FUZZ.json")],
):
    assert main(argv) == 0, argv
    check(argv[0])
print("no children left")
"""


def test_no_worker_outlives_a_runner_a_gateway_or_a_cli_command(tmp_path, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_CHILDREN_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "no children left" in proc.stdout


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_results_match_in_process(jobs):
    calls = [TaskCall(func="operator:mul", args=(value, 7)) for value in range(10)]
    with Runner(jobs=jobs) as runner:
        assert runner.map(calls) == [value * 7 for value in range(10)]
