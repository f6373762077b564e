"""Shared plumbing: checkout paths, child processes, statistics, checks.

Everything the harness runs is a child process on the checkout's own
``src/`` tree (``PYTHONPATH=src``), one process at a time, with the
numeric libraries held to one thread so a run measures the program and
not the scheduler. Child wall time and peak RSS come from ``os.wait4``
on the child itself, so the harness's own memory never leaks into the
figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space (caches, scenario files, captured output) — wiped per run.
WORK = ROOT / ".perfbench" / "work"
#: Span dumps from traced runs — kept after the run for reading.
TRACES = ROOT / ".perfbench" / "traces"

#: No single child may outlive this; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "cli.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_PERM_CACHE_MAX_ELEMENTS", None)
    return env


@dataclass
class ChildRun:
    """One finished child process: exit code, wall time, peak RSS, output."""

    argv: list[str]
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_child(argv: list[str], tag: str, timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` from the checkout root; time it and read its rusage.

    Output goes to files under :data:`WORK` (no pipe can fill up and
    stall the child). A child still running after ``timeout_s`` is
    killed and reported with a non-zero exit code.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, _kill, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        argv=argv,
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def python(*args: str) -> list[str]:
    """argv for the interpreter running the harness."""
    return [sys.executable, *args]


def repro(*args: str) -> list[str]:
    """argv for ``python -m repro ARGS``."""
    return python("-m", "repro", *args)


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` (creating it) and return it."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics -----------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    Below 110 samples that rank falls under p90, which is no tail at
    all; the nearest-rank p90 is reported instead (for ten samples or
    fewer, the maximum).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    p90_rank = math.ceil(0.9 * n) - 1
    return ordered[max(n - 11, p90_rank)]


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output checks ---------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed, with the reason for each failure.

    ``failed_frac`` is ``failed / attempted``: an operation (a cell or
    a query) counts as failed when it errored unexpectedly or one of
    its output checks did not hold.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, n: int, reason: str) -> None:
        self.failed += n
        self.reasons.append(f"{n} failed: {reason}")

    def expect(self, ok: bool, n: int, reason: str) -> bool:
        """Record ``n`` failures unless ``ok``; returns ``ok``."""
        if not ok:
            self.fail(n, reason)
        return ok

    @property
    def failed_frac(self) -> float:
        return min(self.failed, self.attempted) / self.attempted if self.attempted else 1.0
