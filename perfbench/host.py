"""The host record and the host calibration.

The record (an annotation, not a metric) names the interpreter, numpy
and numba. The calibration is a fixed numpy plus pure-Python program,
timed before every timed operation of a run; its median wall is printed
with the record, and :class:`HostClock` uses its lower quartile to report
every time at one reference host speed.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics

from common import ChildRun, python, run_child

#: A fixed program of the same kind as the benchmarked one: interpreter
#: start, ``import numpy``, a permutation gather and argsort over arrays
#: of paper-quick size, and a pure-Python loop.
CALIBRATION = """
import numpy as np
rng = np.random.default_rng(0)
ids = rng.permutation(1_000_000)
sizes = rng.random(1_000_000)
for _ in range(3):
    sizes[ids].sum()
    np.argsort(ids[:250_000], kind="stable")
total = 0
for i in range(200_000):
    total += i * i
"""


#: The calibration's wall time at the reference speed (an idle 2-vCPU x86-64
#: VM, Python 3.11, numpy 2.4). Normalized figures are expressed at that speed.
REFERENCE_S = 0.30


class HostClock:
    """Calibration samples interleaved with a run's timed operations.

    The host is shared: its speed drifts by tens of percent over
    minutes. A calibration runs before every timed operation, and once
    after the last (:meth:`finish`). The run's *slowdown* is the lower
    quartile of all its calibration walls over :data:`REFERENCE_S`.
    Dividing a wall time by it reports that time at the reference
    speed: a slower program still reads slower, a slower host does not.

    One factor serves the whole run, and it is a low quantile, because
    single calibrations sit on a floor with frequent transient spikes of
    up to 60% while the workloads' walls stay steady within a run. A
    per-operation median of a few nearby samples followed the spikes:
    it spread paper-scale's sweep rate 22% over five seeds where the raw
    sweep walls spread 10%, and the lower quartile 8%.
    """

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.samples: list[float] = []

    def sample(self) -> float:
        run = run_child(python("-c", CALIBRATION), f"calibrate-{self.tag}-{len(self.samples)}")
        if not run.ok:
            raise RuntimeError(f"calibration failed:\n{run.stderr}")
        self.samples.append(run.wall_s)
        return run.wall_s

    def finish(self) -> None:
        """Calibrate after the last timed operation."""
        self.sample()

    def slowdown(self) -> float:
        """The host's slowdown over the run so far."""
        if len(self.samples) < 2:
            return min(self.samples) / REFERENCE_S
        return statistics.quantiles(self.samples, n=4)[0] / REFERENCE_S

    def normalized(self, wall_s: float) -> float:
        """``wall_s`` at the reference host speed."""
        return wall_s / self.slowdown()

    def run(self, argv: list[str], tag: str) -> ChildRun:
        """Calibrate, then run a timed child."""
        self.sample()
        return run_child(argv, tag)


def host_record() -> dict:
    """What a reader needs to tell a slower host from a regression."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
