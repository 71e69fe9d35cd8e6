"""Machine-speed calibration of operation times.

The shared machines this benchmark runs on change speed under it: the same
operation takes 0.6x to 1.1x of its median from one second to the next, and
whole minutes run 30-40% slower than others. A raw time then measures the
neighbours as much as the program. A fixed pure-Python reference loop slows
down by the same factor, so while operations run, a sampler thread runs the
reference every INTERVAL_S and records its CPU time. Each operation's wall
time, less the CPU time the sampler took inside it, is scaled by the mean
reference time around it. A calibrated second is a second on a machine where
one reference call takes REF_NOMINAL_S. The reference shares no code with
ncquad, so a change to the program cannot move it.
"""

import bisect
import heapq
import threading
import time
from fractions import Fraction

REF_NOMINAL_S = 0.005
INTERVAL_S = 0.05


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 1000003

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


def reference():
    """About 5 ms of the program's kind of work: Fraction arithmetic on
    growing integers, small slotted objects, tuple-keyed dicts, tuple slices
    and a heap."""
    acc = Fraction(1, 3)
    r = _Residue(7)
    table = {}
    heap = []
    word = tuple(range(24))
    for i in range(500):
        acc = acc * Fraction(i % 13 + 1, i % 11 + 2) + 1
        if acc.denominator.bit_length() > 256:
            acc = Fraction(1, 3)
        r = r * _Residue(i + 3) + _Residue(i)
        key = word[i % 16 : i % 16 + 6] + word[:2]
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (-(i * 7919 % 101), key))
        if len(heap) > 32:
            heapq.heappop(heap)
    return acc, r.v, len(table), heap[0]


def sample():
    """CPU seconds one reference call takes now, in this thread."""
    t0 = time.thread_time()
    reference()
    return time.thread_time() - t0


class SpeedSampler:
    """Runs the reference every INTERVAL_S in a thread while the operations
    run. The reference's CPU time is measured with the thread's own clock, so
    waiting for the interpreter lock does not count."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, CPU seconds), appended atomically
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            cpu = sample()
            self.samples.append((time.perf_counter(), cpu))

    def _wait_for(self, count):
        while len(self.samples) < count and self._thread.is_alive():
            time.sleep(INTERVAL_S / 5)

    def __enter__(self):
        self._thread.start()
        self._wait_for(1)
        return self

    def __exit__(self, *exc):
        # one more sample after the last operation ends, then stop
        self._wait_for(len(self.samples) + 1)
        self._stop.set()
        self._thread.join(timeout=10)
        return False

    def reference_during(self, start, end):
        """Median reference CPU seconds sampled between start and end."""
        inside = sorted(c for t, c in self.samples if start <= t <= end)
        return inside[len(inside) // 2] if inside else None

    def calibrate(self, windows):
        """Calibrated seconds for each (start, end) operation window."""
        samples = list(self.samples)
        ends = [t for t, _ in samples]
        out = []
        for start, end in windows:
            lo = bisect.bisect_right(ends, start)
            hi = bisect.bisect_right(ends, end)
            stolen = sum(c for _, c in samples[lo:hi])
            around = samples[max(lo - 1, 0) : min(hi + 1, len(samples))]
            ref = sum(c for _, c in around) / len(around)
            out.append((end - start - stolen) * REF_NOMINAL_S / ref)
        return out
