"""The calibration kernel that puts the benchmark's times on one scale.

The machine the benchmark was built on (2 vCPUs shared with other
tenants) changes speed by up to ~2x for seconds to minutes at a time,
with no CPU time stolen from the process: everything it runs just goes
slower. A run-to-run spread of that size hides any regression bound, and
no estimator over one run's samples removes a slow phase longer than the
run.

So the benchmark samples the machine's speed with a fixed piece of
interpreter and big-integer work (the kinds of work legfam does), the
kernel, right before and right after each timed call and, through a
timer signal, every PROBE_PERIOD_S while the call runs. The call's time
(less the time spent in the kernel) is then scaled to the speed at which
one kernel takes KERNEL_REF_S:

    scaled = elapsed * KERNEL_REF_S / mean(kernel samples)

Set-up time is mostly process start and imports (exec, page faults,
loading numpy's extension modules), whose speed does not follow the
kernel's. Its yardstick is instead a bare interpreter (BARE_START) spawned
right before and right after each set-up sample:

    scaled = setup * BARE_START_REF_S / mean(bare start-ups)

Both yardsticks are the benchmark's own code, so a change to legfam moves
the scaled times exactly as it moves the raw ones, while a change of
machine speed moves the yardstick too and cancels. Raw times are kept next to the
scaled ones in every result.
"""

from __future__ import annotations

import signal
import time

# The kernel's time on the machine the benchmark was built on when it ran
# fast (Intel Xeon, Python 3.11), so scaled times read as seconds there.
KERNEL_REF_S = 0.00125
# Start-up of a bare interpreter on that machine, and the program that
# measures it: it prints the READY line the benchmark's workers print.
BARE_START_REF_S = 0.05
BARE_START = "import time; print(f'READY {time.monotonic():.9f}')"
# kernel samples on each side of a timed call
BRACKET = 4
PROBE_PERIOD_S = 0.05

_BIG = 3 ** 20000  # ~31,700 bits


def kernel_s() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    x = _BIG
    for _ in range(2):
        x = (x * _BIG) >> 31000
    return time.perf_counter() - t0


def bracket() -> list[float]:
    return [kernel_s() for _ in range(BRACKET)]


def scaled(elapsed: float, samples: list[float]) -> float:
    """elapsed, put on the scale where the kernel takes KERNEL_REF_S."""
    return elapsed * KERNEL_REF_S * len(samples) / sum(samples)


class Probe:
    """Runs the kernel every PROBE_PERIOD_S of wall time while active, on
    SIGALRM in the main thread (between bytecodes, so a long call into
    numpy delays the sample until it returns)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)

    def _tick(self, signum, frame) -> None:
        dt = kernel_s()
        self.samples.append((time.perf_counter(), dt))

    def __enter__(self) -> "Probe":
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed(fn):
    """Call fn(); return (its result, elapsed seconds less the probe's
    time, kernel samples: the brackets and those taken during the call)."""
    before = bracket()
    with Probe() as probe:
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
    inside = [dt for end, dt in probe.samples if end <= t1]
    return result, t1 - t0 - sum(inside), before + inside + bracket()
