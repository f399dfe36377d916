"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same work can take 1.8 times as long from one half
minute to the next, and the speed changes within a single call. The
slowdown affects the program and this kernel alike. So the benchmark times
short kernel passes every ``INTERVAL_S`` seconds while a call runs, and
rescales the call's time to the speed at which one pass takes
``NOMINAL_S``. The kernel mixes the three kinds of work the program does:
interpreted Python loops, many numpy calls on tiny arrays, and BLAS matrix
products. It uses no code of the program, so a change to the program moves
the rescaled times and leaves the kernel alone.
"""

import functools
import signal
import statistics
from time import perf_counter

# Mean time of one pass on the two-vCPU machine the baseline was measured
# on. Any fixed value works; this one keeps rescaled seconds close to raw
# seconds there.
NOMINAL_S = 0.005
# Sampling period while a call runs: each pass costs about 2 % of it.
INTERVAL_S = 0.2
# Passes timed right after a set-up, which is too short to sample during.
SETUP_PASSES = 20


@functools.cache
def _operands():
    # numpy is imported on first use, so that importing this module does
    # not load it ahead of the timed set-up.
    import numpy as np
    rng = np.random.default_rng(12345)
    return np, rng.standard_normal((128, 128)), rng.standard_normal((128, 128)), \
        rng.standard_normal(8)


def _kernel():
    np, a, b, x = _operands()
    s = 0
    for i in range(15_000):
        s += i * i % 7
    for _ in range(400):
        s += float(np.sqrt(x * x + 1.0).sum())
    for _ in range(8):
        s += float((a @ b)[0, 0])
    return s


def _timed_pass():
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def seconds() -> float:
    """Mean time of SETUP_PASSES kernel passes, in seconds."""
    _operands()
    return statistics.fmean(_timed_pass() for _ in range(SETUP_PASSES))


def rescale(seconds_taken: float, ref_s: float) -> float:
    """`seconds_taken`, measured while a kernel pass took `ref_s`, at the
    nominal speed."""
    return seconds_taken * NOMINAL_S / ref_s


class Sampler:
    """Times one kernel pass every INTERVAL_S seconds from a SIGALRM
    handler, and on demand between calls. The handler runs between
    bytecodes of the main thread, so it samples the speed while the
    program runs; `clock` leaves the handler's time out."""

    def __init__(self):
        self.samples = []
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def sample(self):
        self._busy = True
        taken = _timed_pass()
        self.samples.append(taken)
        self._paused += taken
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # a pass never times another nested in it
            self.sample()

    def clock(self) -> float:
        """perf_counter() without the time spent in kernel passes."""
        return perf_counter() - self._paused

    def __enter__(self):
        _operands()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
