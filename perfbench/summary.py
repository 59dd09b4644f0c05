"""Summarising measurements: percentiles, provenance, the result lines."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``0 < q < 100``).

    Refuses (``ValueError``) unless at least ten samples lie beyond it:
    a tail read from fewer samples is noise, not a percentile.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; need 10"
        )
    return ordered[rank - 1]


def tail_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """``{"p90": ..., "p99": ...}`` for whichever the sample supports."""
    out = {}
    for q in (90, 99):
        try:
            out[f"p{q}"] = percentile(values, q)
        except ValueError:
            pass
    return out


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """Content hash of the program's sources (checkouts may lack git)."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def provenance(root: Path, src: Path, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Where a result set came from: code, seed, host, interpreter."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


#: One printed measurement: ``(value, unit, sample count)``.
Measure = Tuple[float, str, int]


def print_table(workload: str, title: str, rows: Dict[str, Measure]) -> None:
    """Human-readable lines: name, value, unit and the samples behind it."""
    print(f"# {title}")
    for name, (value, unit, samples) in rows.items():
        print(f"{workload:<11} {name:<40} {value:>14.6g} {unit:<6} n={samples}")


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Measure]
) -> str:
    """The final JSON line the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _samples) in metrics.items()
            },
        }
    )
