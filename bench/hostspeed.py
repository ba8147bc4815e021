"""Host speed sampled during a timed region, to scale its time to a fixed speed.

A shared host does not run a process at one speed: another tenant's work on
the same physical core slows a fixed piece of numpy code by up to a factor
of two, in spells of seconds to tens of seconds, and each CPU of the sandbox
has spells of its own.  No run length averages that away, so every timed
region of the benchmark is sampled from inside its own thread:

    with HostSpeed() as hs:
        operation()
    hs.scaled_s    # seconds the operation would take at the reference speed

An interval timer (``SIGALRM``, every ``INTERVAL_S`` of wall time) runs a
fixed reference kernel in the main thread, between the operation's own
Python bytecodes, and records how long it took.  The kernel mixes the kinds
of work the package does (Python loops, numpy calls on tiny arrays, batched
Cholesky factorisations and inverses of 10x10 and 50x50 matrices, a small
matrix product), so that a slow spell stretches it about as much as the
operation.  Then

    net_s    = elapsed time - time spent in the kernel
    speed    = mean over samples of REFERENCE_S / sample time
    scaled_s = net_s * speed

``speed`` is the time-average of the host's speed relative to the reference,
and ``scaled_s`` is the operation's time at that reference speed: the
seconds a user would wait on this host when it runs at full speed.  The
kernel costs about 2.5% of the region; it depends on numpy alone, never on
the package, so a change to the package cannot move it.

A region that runs in another process, such as a child started and awaited,
cannot be sampled from inside: a kernel run would share the CPU with the
child.  ``burst`` runs the kernel back to back just before and just after
such a region instead, and ``speed_of`` turns those times into a speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# about the kernel's time on the 2-core reference host (Xeon, OpenBLAS 0.3.31
# on one thread) at full speed; only the unit of scaled_s hangs on it
REFERENCE_S = 0.0014


class HostSpeed:
    """Context manager that samples the host's speed while its body runs."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        rng = np.random.default_rng(20250301)
        self._batches = []
        for d, rows in ((10, 32), (50, 4)):
            b = rng.standard_normal((d, d))
            self._batches.append((
                np.linalg.inv(b @ b.T / d + np.eye(d)),
                0.3 * rng.standard_normal((rows, d)),
                np.full(rows, 0.5),
            ))
        self._tiny = rng.standard_normal(10)
        self._square = rng.standard_normal((120, 120))
        self._busy = False
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.elapsed_s = 0.0

    def kernel(self) -> None:
        """The fixed reference work, about 2 ms at full speed."""
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        for _ in range(50):
            (np.exp(self._tiny) + 2.0 * self._tiny).sum()
        for sigma_inv, m, log_c in self._batches:
            d = m.shape[-1]
            idx = np.arange(d)
            for _ in range(2):
                lam = np.exp(np.minimum(log_c[:, None] + m, 30.0))
                a = np.broadcast_to(sigma_inv, m.shape + (d,)).copy()
                a[:, idx, idx] += lam
                lower = np.linalg.cholesky(a)
                s = np.linalg.inv(a)
                np.log(np.einsum("...jj->...j", lower)).sum(axis=-1)
                m = m - 0.01 * np.einsum("nij,nj->ni", s, lam)
        for _ in range(3):
            self._square @ self._square

    def burst(self, n: int) -> list[float]:
        """Run the kernel ``n`` times now; returns the time of each run."""
        times = []
        for _ in range(n):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return times

    @staticmethod
    def speed_of(samples: list[float]) -> float:
        """Mean host speed over kernel times, relative to the reference."""
        return statistics.fmean(REFERENCE_S / t for t in samples)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late signal while the kernel still runs
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.kernel()
            took = time.perf_counter() - start
        finally:
            self._busy = False
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # too short to be sampled: measure once now
            self.samples = self.burst(1)

    @property
    def net_s(self) -> float:
        """Elapsed time less the time the kernel took."""
        return self.elapsed_s - self.spent_s

    @property
    def speed(self) -> float:
        """Mean host speed over the region, relative to the reference."""
        return self.speed_of(self.samples)

    @property
    def scaled_s(self) -> float:
        """The region's time at the reference speed."""
        return self.net_s * self.speed
