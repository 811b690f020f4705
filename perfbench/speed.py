"""Wall time in reference seconds.

On a virtual machine that shares its host, the same work takes from 1x to
1.9x as long, in slow episodes that last from seconds to minutes.  On the
2-core VM this benchmark was written on, the closed-loop time of a 30 s run
spread by 0.14 to 0.38 (interquartile range over median, ten runs), and the
median of ten runs moved by 40% between two sets a few minutes apart.

So every timed segment is bracketed by a fixed reference kernel, work shaped
like the package's inner loops (small dense LU solves with Python arithmetic
between them) that imports nothing from `hiermpc`.  A segment's wall time is
scaled by REF_SECONDS / r, where r is the mean time of the two kernels on
either side of it: the result is the segment's time at the speed at which
the kernel takes REF_SECONDS.  A change to the package cannot change the
kernel, so the scaled time moves with the package's own cost and not with
the host's load: over eight 30 s windows its median spread by 0.02 where the
raw wall time spread by 0.14.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

# The kernel's time on the reference machine (the 2-core Intel Xeon VM of
# the measurements above) when its host was quiet.
REF_SECONDS = 0.0075
_SIZE = 30
_STEPS = 400


def reference_seconds() -> float:
    """Time one run of the reference kernel."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((_SIZE, _SIZE))
    lu = scipy.linalg.lu_factor(m @ m.T + _SIZE * np.eye(_SIZE))
    x = np.zeros(_SIZE)
    start = perf_counter()
    for _ in range(_STEPS):
        y = scipy.linalg.lu_solve(lu, x + 1.0)
        x = 0.5 * y / (1.0 + float(np.linalg.norm(y)))
        total = 0.0
        for v in x[:10]:
            total += float(v)
    return perf_counter() - start


class Clock:
    """Times consecutive segments of work, each bracketed by the kernel."""

    def __init__(self):
        self.raw = defaultdict(list)     # segment name -> wall seconds
        self.scaled = defaultdict(list)  # segment name -> reference seconds
        self._ref = reference_seconds()

    @contextmanager
    def segment(self, name: str):
        start = perf_counter()
        yield
        raw = perf_counter() - start
        ref = reference_seconds()
        self.raw[name].append(raw)
        self.scaled[name].append(raw * 2.0 * REF_SECONDS / (self._ref + ref))
        self._ref = ref
