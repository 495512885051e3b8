"""Host-speed probe, so that runs taken minutes apart on a shared host compare.

On a shared 2-core Xeon VM the same momtail job ran up to 30% slower in one
five-second window than in the next. The process's CPU time slowed with its
wall time, so the host, not the scheduler, set the pace. A scipy-bound
transform and a pure-Python solve, timed alternately, slowed together: the
correlation of their five-second means was 0.99.

The probe is a fixed mix of interpreter and scipy work that does not touch
momtail. The benchmark runs it between jobs, spread evenly over the job
time, and multiplies every time it reports by ``REFERENCE_S / mean(probe)``.
The reported times are seconds on a host that runs the probe in
``REFERENCE_S``. A change to momtail moves the jobs and not the probe, so it
shows at full size.

The host's speed also drifts within one run (the mean probe time of
20-second windows varied by 13%), so each job's time is scaled by the
probes taken just before and after it (``job_scales``). Set-up time and
the traced run are scaled by the run's mean. In ten 8-second repeats of one
solve_sweep input, scaling each job by its nearest 4 to 16 probes cut the
spread of the median job time from 0.061 to 0.041-0.052.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.special import spherical_jn

REFERENCE_S = 0.009
_W = np.linspace(0.0, 50.0, 200)


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 20001):
        x = i * 1e-3
        total += math.sqrt(x) * math.exp(-x) + x * x / (1.0 + x)
    for k in range(30):
        total += float(spherical_jn(k, _W)[-1])
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken between jobs, one per ``every`` seconds of job time."""

    def __init__(self, every: float = 0.25, warm: int = 3):
        self.every = every
        self.samples = [probe() for _ in range(warm)]
        self._since = 0.0
        self._marks: list[int] = []    # probes taken before each job ended

    def after_job(self, seconds: float) -> None:
        self._marks.append(len(self.samples))
        self._since += seconds
        while self._since >= self.every:
            self._since -= self.every
            self.samples.append(probe())

    def job_scales(self, half: int = 3) -> list[float]:
        """Per job, in order: the scale from the ``half`` probes before it
        and the ``half`` after it (fewer at the ends of the run)."""
        return [REFERENCE_S / statistics.fmean(self.samples[max(0, k - half):k + half])
                for k in self._marks]

    @property
    def scale(self) -> float:
        """Multiply a measured time by this to get reference-host seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
