"""A fixed reference computation that measures how fast the host runs at
the moment, independently of greyvar.

The host the benchmark was built on is shared: its speed drifts by a
third over minutes as other tenants' load comes and goes, and the drift
moves whole runs.  Every job times this kernel right after its run, and
run.py scales the job's times by ``REFERENCE_S / calib_s``.  The kernel
uses only numpy and scipy, never greyvar, so a change to the package
moves the job's times and not the kernel's.

The kernel is the Monte Carlo inner loop of mc-indicator-d3 on fixed
inputs: a sum of squares and a square root over a (23000, 40) array of
radii, then cubic-spline evaluation of those in a band.  Of the three
kernels tried, its time followed the jobs' run times most closely
(README.md gives the figures).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import CubicSpline

# calib_s on a 2-core Sapphire Rapids KVM guest in a typical state, so
# scaled times read about as that host's wall times do
REFERENCE_S = 0.8
# calls per measurement: about 0.8 s on that host, long enough to average
# over the host's sub-second swings in speed
_CALLS = 13


def _kernel():
    rng = np.random.default_rng(12345)
    knots = np.linspace(0.9, 1.1, 1025)
    spline = CubicSpline(knots, np.tanh((knots - 1.0) * 20.0))
    base = rng.uniform(-1.1, 1.1, (23000, 3))
    offsets = rng.uniform(-0.05, 0.05, (40, 3))

    def kernel():
        rsq = np.zeros((len(base), len(offsets)))
        for j in range(3):
            rsq += (base[:, j, None] + offsets[None, :, j]) ** 2
        r = np.sqrt(rsq)
        mid = (r > 0.9) & (r < 1.1)
        out = np.zeros_like(r)
        out[mid] = np.clip(spline(r[mid]), -1.0, 1.0)
        return float(out.sum())
    return kernel


def calib_s() -> float:
    """Wall time of ``_CALLS`` calls of the kernel, after one untimed
    call that touches its code and memory first."""
    kernel = _kernel()
    kernel()
    start = time.perf_counter()
    for _ in range(_CALLS):
        kernel()
    return time.perf_counter() - start
