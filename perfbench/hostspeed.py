"""Host-speed sampler: a fixed slice of work timed inside the measured process.

The benchmark's host is a virtual machine whose cores are shared with other
tenants, and the CPU time one piece of work takes there moves by up to
1.7x over minutes (see README.md, "Noise").  The sampler measures that
speed while the workload runs: every :data:`INTERVAL_S` a ``SIGALRM``
handler runs one probe slice (dictionary, string and method-call work in
the interpreter, a random gather from a 4 MiB array, a small matrix
product) and records its CPU time.  The probe's own CPU and wall time are
left out of the workload's, and :meth:`SpeedSampler.speed` is the
reference slice time over the mean slice time, so ``cpu_s * speed`` is
the workload's CPU time at the reference speed.

A slice never runs inside a timed request: :meth:`SpeedSampler.hold`
defers a slice that falls due there until the request has returned.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Any, Iterator, List

import numpy as np

#: Seconds between probe slices.
INTERVAL_S = 0.2
#: CPU seconds of one probe slice at the reference speed: about the mean
#: slice over five runs per workload on the 2-vCPU host the benchmark was
#: written on.
REFERENCE_SLICE_S = 5.0e-3


class SpeedSampler:
    """Times one fixed probe slice every :data:`INTERVAL_S` while started."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.standard_normal(1 << 19)
        self._index = rng.integers(0, 1 << 19, 60_000)
        self._matrix = rng.standard_normal((80, 80))
        # Output buffers: a slice allocates no arrays and no objects the
        # cyclic garbage collector tracks, so it moves neither the
        # allocator's state nor the collector's schedule, and with them
        # the workload's peak memory.
        self._gathered = np.empty(len(self._index))
        self._product = np.empty_like(self._matrix)
        self._table = {i: 3 * i for i in range(30_000)}
        self._keys = [int(k) for k in rng.integers(0, 30_000, 3_000)]
        self.slices_s: List[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._held = False
        self._pending = False

    def probe(self) -> None:
        """Run one slice and record its CPU time."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        total = 0
        for key in self._keys:
            total += self._table[key] + len(str(key * total))
        # Method calls: with them the slice's time tracks the workloads'
        # slowdowns more closely (see README.md, "Noise").
        for i in range(7_000):
            total = self._step(i, total)
        np.take(self._array, self._index, out=self._gathered).sum()
        np.matmul(self._matrix, self._matrix, out=self._product)
        cpu = time.process_time() - cpu0
        self.slices_s.append(cpu)
        self.cpu_s += cpu
        self.wall_s += time.perf_counter() - wall0

    def _step(self, i: int, total: int) -> int:
        return (i * len(self._keys) + total) & 0xFFFF

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._held:
            self._pending = True
        else:
            self.probe()

    @contextlib.contextmanager
    def hold(self) -> Iterator[None]:
        """Defer slices that fall due inside the block until it ends."""
        self._held = True
        try:
            yield
        finally:
            self._held = False
            if self._pending:
                self._pending = False
                self.probe()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slices_s:  # a timed phase shorter than one interval
            self.probe()

    def speed(self) -> float:
        """Reference slice time over the mean slice time of this run.

        The mean, not the median: the workload's CPU time is a sum over
        the same stretch the slices sample, slow stretches included.
        """
        return REFERENCE_SLICE_S / statistics.fmean(self.slices_s)
