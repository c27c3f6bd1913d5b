"""The machine's speed while an interval runs, from a fixed calibration kernel.

The CPU speed of a small shared VM moves by up to 1.6x over spans of seconds
to minutes (neighbours on the host; CPU time moves with wall time, so the
process is not waiting, it is computing slower), and its vCPUs move
independently of each other. `run.py` pins the benchmark to one CPU, and
`Probe` samples the speed of that CPU while an op runs: a short kernel just
before the op, every SAMPLE_INTERVAL_S during it (from a SIGALRM handler, so
in the same thread, between the op's bytecodes or while it waits for a child
process on the same CPU), and just after it. The op's seconds are then
reported at the reference speed:

    seconds * REFERENCE_KERNEL_S / median(kernel seconds sampled)

The kernel mixes what kittensim spends its time on: numpy element-wise maths,
small dense products and an interpreted Python loop. It calls nothing from
kittensim, so a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the reference machine (see README), so that there a
# reported second is about a measured second.
REFERENCE_KERNEL_S = 0.0016
BRACKET_REPEATS = 5       # kernels just before and just after the interval
SAMPLE_INTERVAL_S = 0.2   # about 1 % of the interval goes to the kernel

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(20_000)
_M = _rng.standard_normal((96, 96)) / 10


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    np.exp(-0.5 * _X * _X).dot(np.cos(_X))
    for _ in range(10):
        _M @ _M
    acc = 0.0
    for i in range(6_000):
        acc += i * 0.5
    return time.perf_counter() - t0


class Probe:
    """Samples the kernel around and during a `with` block.

    After the block, `scale` turns its seconds into seconds at the reference
    speed, and `spent` is the time the samples taken during the block used,
    which the caller takes off the block's wall and CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self.samples = [kernel_seconds() for _ in range(BRACKET_REPEATS)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [kernel_seconds() for _ in range(BRACKET_REPEATS)]

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
