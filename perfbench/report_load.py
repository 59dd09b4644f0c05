"""The report workload: ``python -m repro report`` sweeps, back to back.

Each sweep runs in a fresh interpreter with no result cache and writes
over a copy of the committed EXPERIMENTS.md (``write_markdown`` keeps an
existing preamble, so a fresh path would differ at line 1).  The copy
must come back byte-identical.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from checkout import EXPERIMENTS, ROOT, child_env
from gate import experiment_ids, report_failures
from summary import Measure, median

#: Worker processes of every sweep.
JOBS = 2

#: Interpreter start-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Sweeps per run at the least, so a slow host cannot leave a run with
#: a median of two.
MIN_SWEEPS = 3

#: Seconds before a stuck sweep fails the run instead of hanging it.
SWEEP_TIMEOUT = 60.0


def import_seconds() -> float:
    """Wall time from interpreter start until ``repro`` is imported."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        capture_output=True,
        timeout=SWEEP_TIMEOUT,
    )
    return time.perf_counter() - started


def sweep(work: Path, index: int, metrics: Optional[Path] = None) -> Tuple[float, str, str]:
    """One ``report`` run: ``(seconds, output text, error or "")``."""
    output = work / f"EXPERIMENTS-{index}.md"
    shutil.copyfile(EXPERIMENTS, output)
    command = [sys.executable, "-m", "repro", "report", "--jobs", str(JOBS),
               "--output", str(output)]
    if metrics is not None:
        command += ["--metrics", str(metrics)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SWEEP_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, "", f"sweep exceeded {SWEEP_TIMEOUT}s"
    seconds = time.perf_counter() - started
    error = "" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-300:]}"
    return seconds, output.read_text(encoding="utf-8"), error


def run(seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    """Untraced sweeps until ``seconds`` have passed and at least
    :data:`MIN_SWEEPS` have run."""
    del seed  # the sweep is fixed; the seed only stamps the result set
    setups = [import_seconds() for _ in range(SETUPS)]
    expected = EXPERIMENTS.read_text(encoding="utf-8")
    experiments = len(experiment_ids(expected))
    durations: List[float] = []
    failed = 0
    problems: List[str] = []
    started = time.perf_counter()
    while len(durations) < MIN_SWEEPS or time.perf_counter() - started < seconds:
        took, text, error = sweep(work, len(durations))
        durations.append(took)
        bad = report_failures(expected, text)
        if error:
            problems.append(error)
            bad = max(bad, 1)
        elif bad:
            problems.append(f"sweep {len(durations)}: {bad} experiments differ")
        failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    attempted = experiments * len(durations)
    rows: Dict[str, Measure] = {
        "sweep_s": (median(durations), "s", len(durations)),
        "experiments_per_s": (attempted / sum(durations), "1/s", len(durations)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_frac": (failed / attempted, "ratio", attempted),
    }
    return {
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
