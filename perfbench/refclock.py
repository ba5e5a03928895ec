"""A clock in reference seconds, steady on a machine whose speed drifts.

On a shared host the speed of this kind of work (small Python objects,
tuples, dicts and bitmask loops) drifts by a factor of two or more within
minutes, while a plain arithmetic loop hardly moves. So the clock samples
a fixed kernel of the same kind every ``period`` seconds while the pass
runs (from a SIGALRM handler, between the program's bytecodes), and
scales the wall time after each sample by ``REF_KERNEL_S / kernel time``.
A reading therefore counts the seconds the work would take on a machine
where the kernel takes ``REF_KERNEL_S``. Kernel time is excluded from
both the raw and the reference readings.

The kernel is the benchmark's own code, not paraposet's, so a change to
the program does not move the scale. It canonicalises small relations by
brute force over permutations, the shape of the program's hot loops.
"""

from __future__ import annotations

import gc
import signal
from itertools import permutations
from time import perf_counter

REF_KERNEL_S = 0.004       # kernel time that defines one reference second
KERNEL_REPS = 8


class _Node:
    def __init__(self, rows, name):
        self.rows = rows
        self.name = name
        self.cache = {}


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kernel() -> int:
    seen, nodes = {}, []
    for r in range(KERNEL_REPS):
        up = tuple(((r * 2654435761 >> (3 * i)) & 0x1F) & ~(1 << i) for i in range(5))
        best = None
        for perm in permutations(range(5)):
            rel = [0] * 5
            for i in range(5):
                row = 0
                for j in _bits(up[i]):
                    row |= 1 << perm[j]
                rel[perm[i]] = row
            key = tuple(rel)
            if best is None or key < best:
                best = key
        seen[best] = seen.get(best, 0) + 1
        nodes.append(_Node(best, f"n{r}"))
    return len(seen) + len(nodes)


def kernel_seconds() -> float:
    """One timed kernel run, with the collector held off so that the
    program's garbage is not collected on the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """``read()`` gives (raw seconds, reference seconds), both without the
    kernel's own time. With ``period=None`` nothing is sampled and both
    readings are plain wall time."""

    def __init__(self, period=None):
        self.period = period
        self.paused = 0.0
        self.ref = 0.0
        self.mark = perf_counter()
        self.scale = 1.0
        self.samples = []

    def read(self):
        t = perf_counter()
        return t - self.paused, self.ref + (t - self.mark) * self.scale

    def sample(self, *_):
        t0 = perf_counter()
        self.ref += (t0 - self.mark) * self.scale
        k = kernel_seconds()
        self.samples.append(k)
        self.scale = REF_KERNEL_S / k
        self.mark = perf_counter()
        self.paused += self.mark - t0

    def __enter__(self):
        if self.period is not None:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
