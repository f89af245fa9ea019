"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the same work can run 20-45% slower for seconds to minutes
at a time, while other tenants load the physical cores. That drift is far
larger than the change a performance PR makes, so the benchmark times this
kernel between operations and reports every gated timing scaled to
reference speed: measured time x REF_S / (the kernel's median time nearby).
The kernel does not use textshape, and its inputs are fixed, so a change to
the program cannot change it.

The kernel mixes the kinds of work textshape does: a Delaunay
triangulation (the alpha ladder), elementwise numpy on medium arrays
(rasters), sorting, and an interpreted loop over floats (parsing and the
loop walk). On a 2-vCPU Xeon VM, scaling by this mix cut the spread of 20 s
windows of each workload by 3-5x against wall time (e.g. decode_noisy from
0.11 to 0.02 of the median), where any single part of it did worse on some
workload.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import Delaunay

REF_S = 0.016   # the reference speed: the kernel takes 16 ms (its median on that VM when fast)

_rng = np.random.default_rng(20190109)
_POINTS = _rng.random((1500, 2)) * 100.0
_ARRAY = _rng.random(50_000)
_FLOATS = [float(x) for x in _rng.random(3000)]


def _kernel() -> float:
    acc = float(len(Delaunay(_POINTS).simplices))
    for _ in range(15):
        a = _ARRAY * 3.0 + 1.0
        acc += float(a[np.sqrt(a) > 1.2].sum())
    for _ in range(5):
        acc += float(np.sort(_ARRAY)[0])
    table = {}
    for _ in range(2):
        for i, x in enumerate(_FLOATS * 3):
            acc += x * x
            table[i % 97] = acc
    return acc


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
