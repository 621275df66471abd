"""The machine's speed, sampled while a workload runs, to rescale its times.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same repetition can take anywhere from 1x to 1.75x its quiet time,
in phases that last seconds to minutes.  More repetitions in a run
cannot average that out, since a whole run can sit in one phase.

So the benchmark times a fixed reference slice of pure Python next to
the workload: big-integer bit operations on 1500-bit rows and
small-tuple/dict work, the two kinds of work the program does.  A
SIGALRM every ``PERIOD_S`` runs the slice and times it.  The stretch of
workload time since the previous sample is rescaled by ``REF_S`` over
the mean time of the samples at its two ends: the time the stretch
would have taken at the speed at which one slice takes ``REF_S``.  The
ratio of rescaled to raw time over the call is the speed factor of the
repetition.  Rescaled times are in seconds at that reference speed.

The slice is fixed code of the benchmark: it imports nothing from the
program, so a change to the program changes the rescaled times exactly
as it changes the raw ones at a steady machine speed.
"""

from __future__ import annotations

import itertools
import mmap
import os
import signal
import struct
import time

REF_S = 0.004  # about the slice's time on a quiet 2.1 GHz Xeon core
PERIOD_S = 0.25

_ROWS = [((1 << 1500) - 1) ^ (i * 0x9E3779B97F4A7C15) for i in range(96)]
_PERMS = list(itertools.islice(itertools.permutations(range(7)), 3000))


def reference_slice():
    acc = 0
    rows = _ROWS
    for i in range(96):
        row = rows[i]
        for j in range(i + 1, 96):
            acc += (row & rows[j]).bit_count()
    for perm in _PERMS:
        seen = {}
        for i, p in enumerate(perm):
            seen[p] = seen.get(p, 0) + i
        acc += len(sorted(seen.values()))
    return acc


def time_slice():
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


def median_slice(samples):
    """Median time of a few slices (an odd number)."""
    return sorted(time_slice() for _ in range(samples))[samples // 2]


class SpeedSampler:
    """Samples the speed in the processes that run the workload.

    By default the timer runs in this process.  With ``in_children`` it
    runs instead in every process forked while the sampler is active
    (the worker pool of a ``jobs > 1`` scan), so that no sample competes
    with the workers for a core; each worker writes its sums to a slot
    of a shared anonymous mapping.  Use it as a context manager around
    the timed call; ``result()`` then gives the sums.
    """

    SLOTS = 16
    _FMT = "ddd"  # raw stretch s, rescaled stretch s, slice s
    _SIZE = struct.calcsize(_FMT)

    def __init__(self, in_children=False):
        self.in_children = in_children
        self.shared = mmap.mmap(-1, self.SLOTS * self._SIZE)
        self.slot = 0
        self.forks = 0
        self.active = False
        self.sums = [0.0, 0.0, 0.0]
        if in_children:
            os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self):
        if self.active:
            self.forks += 1

    def _in_child(self):
        if self.active and self.forks < self.SLOTS:
            self.slot = self.forks
            self._arm()

    def _arm(self):
        self.last_slice = time_slice()
        self.sums = [0.0, 0.0, self.last_slice]
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        s = time_slice()
        stretch = t0 - self.last
        sums = self.sums
        sums[0] += stretch
        sums[1] += stretch * 2 * REF_S / (self.last_slice + s)
        sums[2] += s
        self.last_slice = s
        self.last = time.perf_counter()
        if self.slot:
            struct.pack_into(self._FMT, self.shared, self.slot * self._SIZE, *sums)

    def clock(self):
        """perf_counter less the slices this process has run, so that a
        span timed with it does not count the samples taken inside it."""
        while True:
            sampled = self.sums[2]
            now = time.perf_counter()
            if self.sums[2] == sampled:
                return now - sampled

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.active = True
        if not self.in_children:
            self._arm()
        return self

    def __exit__(self, *exc):
        self.active = False
        if not self.in_children:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._tick()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def result(self):
        """(speed factor, slice seconds run in this process, in its children).

        The factor is None when no stretch was sampled.
        """
        if self.in_children:
            slots = [
                struct.unpack_from(self._FMT, self.shared, k * self._SIZE)
                for k in range(1, self.SLOTS)
            ]
            raw = sum(s[0] for s in slots)
            rescaled = sum(s[1] for s in slots)
            return (rescaled / raw if raw else None), 0.0, sum(s[2] for s in slots)
        raw, rescaled, slices = self.sums
        return (rescaled / raw if raw else None), slices, 0.0
