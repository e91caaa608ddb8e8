"""A fixed reference workload, timed between requests to follow host speed.

On a shared virtual machine the CPU time of the same work drifts by 10-50%
within seconds (other tenants share the physical cores and the guest sees no
steal time).  Timing this probe after every request and scaling each request
by REFERENCE_S over the mean of the probes just before and after it turns
request times into times at one reference speed.  On two minutes of a fixed
request cycle this cut the pass-to-pass spread from 13-15% to 2-4% on both
the exact and the float workloads.

The probe does the two kinds of work the program does, exact rational
elimination in pure Python and small batched complex numpy products, and
calls no epkit code, so a change to the program cannot change the probe.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import process_time

import numpy as np

from gate import _rank

# Probe CPU time at the reference speed: about its median on a quiet 2-core
# x86_64 VM (Python 3.11, numpy 2.4), where scaled and raw times coincide.
REFERENCE_S = 0.0017


class Probe:
    def __init__(self):
        rng = random.Random(5)
        self.rows = [[(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                      for _ in range(6)] for _ in range(4)]
        self.batch = np.random.default_rng(1).standard_normal((128, 4, 4)) * (0.3 + 0.1j)

    def __call__(self) -> float:
        """CPU seconds of one pass of the reference work."""
        c0 = process_time()
        _rank(self.rows)
        x = self.batch
        for _ in range(10):
            x = x @ self.batch
            x = x / np.abs(x).sum(axis=(1, 2), keepdims=True)
        return process_time() - c0
