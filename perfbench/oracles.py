"""Reference geometry for the output checks, written without textshape.

The checks must not trust the code they check, so IoU and simplicity are
computed here from first principles with plain numpy.
"""

from __future__ import annotations

import numpy as np


def _row_parity(ring: np.ndarray, xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Even-odd fill of ``ring`` sampled at the grid (yc rows x xc cols)."""
    x1, y1 = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    out = np.zeros((len(yc), len(xc)), dtype=bool)
    for r, y in enumerate(yc):
        hit = (y1 > y) != (y2 > y)
        if not hit.any():
            continue
        xs = x1[hit] + (y - y1[hit]) * (x2[hit] - x1[hit]) / (y2[hit] - y1[hit])
        xs.sort()
        out[r] = np.searchsorted(xs, xc, side="left") % 2 == 1
    return out


def raster_iou(a, b, resolution: int = 256) -> float:
    """IoU of two vertex rings, sampled on their joint bounding box."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    step = (hi - lo) / resolution
    xc = lo[0] + (np.arange(resolution) + 0.5) * step[0]
    yc = lo[1] + (np.arange(resolution) + 0.5) * step[1]
    ma = _row_parity(a, xc, yc)
    mb = _row_parity(b, xc, yc)
    union = np.count_nonzero(ma | mb)
    return np.count_nonzero(ma & mb) / union if union else 0.0


def ring_area(ring) -> float:
    r = np.asarray(ring, dtype=np.float64)
    x, y = r[:, 0], r[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - np.roll(x, -1) @ y))


def is_simple_ring(ring, margin: float = 1e-6) -> bool:
    """No edge is shorter than ``margin`` and no two non-adjacent edges
    touch or cross.

    Touching counts as crossing, so rings that pass are simple under any
    tolerance a parser might use.
    """
    r = np.asarray(ring, dtype=np.float64)
    n = len(r)
    if n < 3:
        return False
    p, q = r, np.roll(r, -1, axis=0)
    if np.any(np.hypot(*(q - p).T) <= margin):
        return False

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])

    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    d1 = orient(p[j], q[j], p[i])
    d2 = orient(p[j], q[j], q[i])
    d3 = orient(p[i], q[i], p[j])
    d4 = orient(p[i], q[i], q[j])
    cross = (d1 * d2 <= margin) & (d3 * d4 <= margin)
    return not cross.any()
