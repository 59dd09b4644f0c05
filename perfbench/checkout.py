"""Where the program under test lives, and how children are started.

The benchmark runs from the root of a source checkout.  It imports the
program from ``src/`` and starts every child with the same path and an
environment scrubbed of the result-cache variables: an inherited warm
cache makes ``report`` near-instant and turns ``serve_cold`` warm.
Every process started below the benchmark is waited for before it exits
(:func:`adopt_orphans`, :func:`reap_children`).
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Dict, Iterator, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

#: Variables that would point a child at a shared or warm cache.
CACHE_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_BACKEND")

#: Scratch space inside the checkout; removed after every run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Linux prctl option: orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def missing_program() -> str:
    """Why the checkout cannot be benchmarked, or ``""`` when it can."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program at {SRC / 'repro'}"
    if not EXPERIMENTS.is_file():
        return f"no {EXPERIMENTS.name} to check the report against"
    return ""


def use_program() -> None:
    """Make ``import repro`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in CACHE_ENV:
        os.environ.pop(name, None)


def child_env() -> Dict[str, str]:
    """The environment every child process of the benchmark gets."""
    env = dict(os.environ)  # use_program() already dropped CACHE_ENV
    env["PYTHONPATH"] = str(SRC)
    return env


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts.

    A grandchild whose parent dies first (a pool worker of a gateway
    killed after a hung shutdown, or of a timed-out ``report``) is then
    re-parented here instead of to init, so :func:`reap_children` can
    stop it and wait for it.  Elsewhere than Linux this does nothing.
    """
    with suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children() -> List[int]:
    """Pids of the live or unreaped processes whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").glob("[0-9]*"):
        with suppress(OSError, IndexError, ValueError):
            # The command name in field 2 may hold spaces and parentheses.
            if int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1]) == me:
                pids.append(int(entry.name))
    return pids


def reap_children(timeout: float = 30.0) -> None:
    """Kill whatever is still below this process and wait for each to end.

    Called last: every child the benchmark started has been waited for
    by then, so anything left was orphaned on a failure path.  Gives up
    after ``timeout`` seconds rather than hang the run.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for pid in children():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if not pid:
            time.sleep(0.01)


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh scratch directory under the checkout, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
