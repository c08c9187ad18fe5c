"""Host-speed calibration, so that timings compare across a drifting host.

On the shared 2-core host this benchmark was built on, the speed of pure
Python code switches between states about 1.8x apart that last for seconds
(a fixed loop timed each second read 2.0-3.9 ms). Medians over a 25 s run
cannot remove a slow state that covers most of the run. The time of a fixed
calibration kernel tracked those swings: the ratio of a served call's time to
the kernel's time stayed within a few percent while both doubled.

So every timing the benchmark reports is scaled to a reference host speed.
A `Sampler` runs the kernel every CAL_EVERY_S from a SIGALRM handler. The
handler runs in the main thread between two bytecodes, so it also samples
inside calls that take longer than the interval, and no thread is started.
An operation's scaled time is its wall time minus the handler time inside it,
times REF_NS / (mean kernel time of the samples inside it and of the nearest
sample on each side). It is the time the operation would have taken on a host
where the kernel takes REF_NS. The kernel uses only the standard library and
no code of the package, so a change to the package moves the scaled times as
it would move wall time at a fixed host speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import signal
import time
from typing import List, Sequence, Tuple

# kernel time of the fast state on the host this was tuned on
REF_NS = 600_000
CAL_EVERY_S = 0.1

_KEY = (5).to_bytes(16, "little")


def _kernel() -> int:
    """Dict, set, tuple, repr, hashing and sort work of the kinds the
    package does."""
    named = []
    for i in range(150):
        name = (("v", i % 17), ("w", i, i % 7))
        h = hashlib.blake2b(repr(name).encode(), digest_size=8, key=_KEY)
        named.append((h.digest(), name))
    named.sort()
    adj: dict = {}
    edges = []
    for i in range(600):
        u, v = (i * 7919) % 211, (i * 104729) % 197 + 211
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None
        edges.append((u, v))
    matched = set()
    for u, v in sorted(edges, key=lambda e: (e[1] * 31 + e[0]) % 1009):
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
    return len(matched) + len(named) + sum(len(a) for a in adj.values())


def measure() -> int:
    """Kernel time in ns, median of three back-to-back runs. The garbage
    collector is off while the kernel runs: its collections would cost more
    when the package holds many objects, and part of an allocation
    regression would then be scaled away."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter_ns()
            _kernel()
            times.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


class Sampler:
    """Kernel samples taken on a timer while `running()` is active."""

    def __init__(self):
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.kernel: List[int] = []
        self._busy = False

    def _sample(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a late alarm arriving inside a sample: skip it
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        k = measure()
        self.starts.append(t0)
        self.kernel.append(k)
        self.ends.append(time.perf_counter_ns())
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample now, every CAL_EVERY_S while the block runs, and at its
        end. Must be used from the main thread."""
        self._sample()
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
            self._sample()

    def scaled(self, spans: Sequence[Tuple[int, int]]) -> List[float]:
        """Scaled duration in ns of each timed operation (start, end); the
        operations must be in time order and within `running()`."""
        out: List[float] = []
        s, e, k = self.starts, self.ends, self.kernel
        n = len(s)
        j = 0
        for a, b in spans:
            while j < n and s[j] < a:
                j += 1
            # samples j..i-1 ran inside the operation
            i, busy, ksum = j, 0, 0
            while i < n and s[i] < b:
                busy += e[i] - s[i]
                ksum += k[i]
                i += 1
            count = i - j
            if j > 0:
                ksum += k[j - 1]
                count += 1
            if i < n:
                ksum += k[i]
                count += 1
            out.append((b - a - busy) * REF_NS * count / ksum)
        return out
