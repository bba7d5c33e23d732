"""Times at a reference machine speed.

The machine this benchmark was built on shares its CPUs with other
virtual machines, and a single-threaded pass there ran up to 2.7 times
slower from one second to the next.  Raw times spread by 20-40% between
runs, more than any bound worth having.  So while a one-process pass runs,
a timer interrupts it every INTERVAL_S seconds and times a fixed piece of
pure-Python integer work that shares no code with critnum.  Each stretch of
the pass is scaled by REFERENCE_S / (that work's time nearby), and the
calibration time itself is left out.  A reported time is therefore the time
the pass would take on a machine where the calibration takes REFERENCE_S;
a change in the program moves it in the same proportion as the raw time.

Passes with pool workers (verify_sweep) are not scaled: the calibration
would compete with the workers for the CPUs and read the pass's own load
as a slow machine; measured that way, verify_sweep spread more than
unscaled.  Set-up time, which no timer can sample, is scaled by
`current_factor` taken right after set-up in the same process.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

INTERVAL_S = 0.05
REFERENCE_S = 100e-6

# The calibration mirrors the oracle's inner loop (subset masks from
# combinations, translates by shift-and-mask, sumset union) on its own
# table for the cyclic group of order 20, so contention that slows that
# kind of code slows the calibration alike.
_ORDER = 20
_FULL = (1 << _ORDER) - 1
_SHIFTS = tuple(
    (_FULL >> c, _FULL ^ (_FULL >> c), c, _ORDER - c) for c in range(_ORDER)
)
_SUBSETS = 40


def _calibration_work() -> int:
    seen = 0
    for combo in itertools.islice(itertools.combinations(range(_ORDER), 6), _SUBSETS):
        bits = 0
        for i in combo:
            bits |= 1 << i
        acc = 0
        x = bits
        while x:
            lowbit = x & -x
            x ^= lowbit
            low, high, up, down = _SHIFTS[lowbit.bit_length() - 1]
            acc |= ((bits & low) << up) | ((bits & high) >> down)
        seen ^= acc
    return seen


class SpeedSampler:
    """Samples machine speed during a pass; converts raw times to reference times.

    Use as a context manager around the pass, then call `scaled`.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._prefix: list[float] | None = None
        self._factors: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _calibration_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _at(self, t: float) -> float:
        """Reference time elapsed from the first sample to perf_counter value t."""
        if self._prefix is None:
            self._factors = [REFERENCE_S / (e - s) for s, e in zip(self.starts, self.ends)]
            prefix = [0.0, 0.0]
            for i in range(1, len(self.starts)):
                prefix.append(prefix[-1] + (self.starts[i] - self.ends[i - 1]) * self._factors[i])
            self._prefix = prefix
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            return (t - self.starts[0]) * self._factors[0]
        last_end = self.ends[i - 1]
        if t <= last_end:
            return self._prefix[i]
        factor = self._factors[min(i, len(self._factors) - 1)]
        return self._prefix[i] + (t - last_end) * factor

    def scaled(self, start: float, end: float) -> float:
        """Reference time of the stretch [start, end] of perf_counter values."""
        if not self.starts:
            return end - start
        return self._at(end) - self._at(start)


def current_factor(repeats: int = 5) -> float:
    """REFERENCE_S over the calibration's median time now (1.0 at reference speed)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    times.sort()
    return REFERENCE_S / times[len(times) // 2]
