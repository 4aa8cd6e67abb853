"""Machine-speed calibration: time a fixed pure-Python reference loop.

The hosts this benchmark runs on are shared virtual machines whose
speed drifts: the same loop took 57-83 ms within two seconds, and a
whole workload ran 35% faster a few minutes later, with process CPU
time tracking wall time (the CPU is slower, not taken away). Every
timing metric is therefore reported *reference-normalized*: the measured
time multiplied by ``NOMINAL_SECONDS`` over the median time of the
reference loop sampled during the same phase. A program change moves
the metrics as before; a slow drift of the machine moves the reference
too and cancels out. Fast fluctuations do not: op by op, the reference
and a simulated pair correlate weakly, so ops are not normalized one by
one, and only medians over many ops are steady. The raw times and the
factor are kept in each run's record.

Sampling happens between ops, at most every ``CADENCE_SECONDS``, in the
process that runs them, when nothing else competes for the CPU (for
``serve_mix``, in the client between jobs, while the server is idle). A
sampler process running alongside the workload measured the workload's
own CPU use instead (4x "slowdowns"), and samples taken only before and
after a phase missed drift inside it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Reference-loop time that defines a normalized second (its median on
#: a 2-CPU x86-64 container with Python 3.11 when the host was quiet).
NOMINAL_SECONDS = 0.010
#: Minimum spacing of samples taken between ops.
CADENCE_SECONDS = 0.25


def reference() -> float:
    """Run the fixed reference loop once; returns its duration in seconds.

    Dict updates and tuple hashing over ~8,600 keys: the kind of
    interpreter work the simulator does per cycle. The cyclic garbage
    collector is off meanwhile: the loop's own allocations would start
    collections whose cost grows with the sampling process's heap, not
    with the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(14000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
            acc ^= hash(key) & 0xFFFF
        items = sorted(table.items())
        acc += len(items) + items[-1][1]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Reference-loop samples taken over one measured phase."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        self.samples.append(reference())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if the last sample is at least a cadence old."""
        if time.perf_counter() - self._last >= CADENCE_SECONDS:
            self.sample()

    def factor(self) -> float:
        """How much slower than nominal the machine ran (median sample)."""
        return statistics.median(self.samples) / NOMINAL_SECONDS
