"""Inverse pipeline: predicted central-region probabilities plus distance
maps back to concave polygon detections.

Steps: threshold the probability map and take the sorted flat indices of its
positive cells, the only full-grid work and the one form the cells take from
there on: drop those with a non-finite channel, group the rest into
4-connected instances from their horizontal runs, and turn every cell into a
boundary point (center + predicted offsets). Then fit a concave polygon to
each instance's normalized points with an alpha shape and map it back to
image scale. Past the threshold, cost follows the positive cells and the
instances, not the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .labels import LabelRaster, RasterGrid

DEFAULT_ALPHA = 0.06
THIN_CELLS_PER_ALPHA = 16   # boundary-point lattice cells per alpha of the instance extent
TABLE_CELLS_PER_POINT = 16  # largest dedupe table, in entries per boundary point


class InstanceRejected(Exception):
    """Instance dropped: too few points or unrecoverable geometry."""


@dataclass
class DecodeConfig:
    prob_threshold: float = 0.5
    alpha: float = DEFAULT_ALPHA
    min_points: int = 8
    min_cells: int | None = None   # None: auto from stride, 64 cells at stride 1

    def __post_init__(self):
        # checked here, so a bad setting fails before any raster is read
        if not 0.0 < self.prob_threshold < 1.0:
            raise ValueError(f"prob_threshold must lie in (0, 1), got {self.prob_threshold}")
        if not self.alpha > 0:   # NaN fails too
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.min_points >= 1:
            raise ValueError(f"min_points must be at least 1, got {self.min_points}")
        if self.min_cells is not None and not self.min_cells >= 1:
            raise ValueError(f"min_cells must be at least 1, got {self.min_cells}")

    def resolved_min_cells(self, stride: int) -> int:
        if self.min_cells is not None:
            return self.min_cells
        return max(1, 64 // (stride * stride))


@dataclass
class DecodeDiagnostics:
    """Decode counters. Every decode adds to them, so one object passed to
    several decodes holds their sums."""

    components: int = 0
    rejected: int = 0
    nonfinite: int = 0   # positive cells dropped for an inf prob or a NaN/inf distance
    cells: int = 0       # cells of the instances that reach boundary_points
    points: int = 0      # points kept after thinning, by the instances it returns


@dataclass
class PredictionRaster:
    """Predicted central-region probability and distance maps on a grid."""

    grid: RasterGrid
    prob: np.ndarray
    dist_x: np.ndarray
    dist_y: np.ndarray

    def __post_init__(self):
        if not (self.prob.shape == self.dist_x.shape == self.dist_y.shape == self.grid.shape):
            raise ValueError("prediction channels must share the grid shape")

    @classmethod
    def from_label(cls, label: LabelRaster) -> "PredictionRaster":
        """Perfect prediction for a label raster (roundtrip harness).

        The distance planes are the label's own arrays, in its dtype: a write
        into one shows in the other. ``decode`` and ``add_distance_noise``
        never write into their input and add the planes to float64 exactly.
        ``prob`` is the 0/1 mask as float32, half the size of float64: still
        a float plane, which may hold ``inf``, and its 0s and 1s threshold
        and average exactly.
        """
        return cls(
            grid=label.grid,
            prob=label.mask.astype(np.float32),
            dist_x=label.dist_x,
            dist_y=label.dist_y,
        )


@dataclass
class BoundaryPointSet:
    """Dense regressed boundary points of one instance, in image pixels.

    ``sources`` are the cell centers the points were regressed from; the
    reconstructed polygon must contain them.
    """

    points: np.ndarray
    score: float
    sources: np.ndarray


@dataclass
class Detection:
    polygon: geom.Polygon
    score: float


def binarize(prob: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Per-cell threshold as a bool grid (True iff prob >= threshold); its
    ``np.flatnonzero`` is the index list ``extract_instances`` groups."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    return np.asarray(prob) >= threshold


def extract_instances(pos: np.ndarray, width: int, min_cells: int = 1) -> list[np.ndarray]:
    """4-connected components of the positive cells, as intp flat indices.

    ``pos`` holds the ascending flat indices (row * width + col) of the
    positive cells of a grid ``width`` cells wide; the grid itself is never
    read (run-based labelling, He, Chao & Suzuki, IEEE TIP 2008). The
    indices split into horizontal runs, each run is linked to the runs of the
    next row that share a column with it, and the connected components of
    that run graph are the instances. Runs are in raster order, so
    components are numbered by their first cell in raster order. Each
    component's cells are in raster order; the components are sorted by size
    descending (that numbering breaks ties), and those smaller than min_cells
    are dropped.
    """
    from scipy.sparse import csr_matrix   # loaded on first decode, not at import
    from scipy.sparse.csgraph import connected_components

    if len(pos) == 0:
        return []
    # A run starts at the first cell, after a gap and at each row's first cell.
    starts = np.empty(len(pos), dtype=bool)
    starts[0] = True
    np.not_equal(np.diff(pos), 1, out=starts[1:])
    heads = np.arange(pos[0] // width + 1, pos[-1] // width + 1) * width   # of the later rows
    starts[np.searchsorted(pos, heads)] = True   # the first cell at or after each head
    first = np.flatnonzero(starts)
    length = np.diff(first, append=len(pos))
    head = pos[first]
    tail = head + length - 1
    # The runs one row down that share a column with [head, tail] are those
    # ending at or after head + width and starting at or before tail + width:
    # the links[i] runs from lo[i] on, row i of the CSR graph labelled weakly.
    lo = np.searchsorted(tail, head + width)
    links = np.searchsorted(head, tail + width, side="right") - lo
    n = len(head)
    indptr = np.concatenate(([0], np.cumsum(links)))
    dst = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], links)
    graph = csr_matrix((np.ones(len(dst)), dst, indptr), shape=(n, n))
    # labels go out in the order of each component's lowest run
    count, run_label = connected_components(graph, directed=True, connection="weak")

    size = np.bincount(run_label, weights=length, minlength=count).astype(np.intp)
    big = size >= min_cells
    if not big.any():
        return []
    cells = pos
    if not big.all():
        keep = big[run_label]
        cells = cells[np.repeat(keep, length)]
        run_label, length, size = run_label[keep], length[keep], size[big]
    if len(size) > 1:   # group by component; the stable sort keeps raster order within one
        cells = cells[np.argsort(np.repeat(run_label, length), kind="stable")]
    comps = np.split(cells, np.cumsum(size[:-1]))
    comps.sort(key=len, reverse=True)
    return comps


def _first_per_cell(kx: np.ndarray, ky: np.ndarray, lo: tuple, hi: tuple) -> np.ndarray:
    """Ascending indices of the first point in each lattice cell.

    ``kx``, ``ky`` are the points' int64 lattice indices, ``lo`` = (x0, y0)
    their minima and ``hi`` their maxima. One key per cell, ``(kx - x0) * ny
    + (ky - y0)``, is deduped through a table with an entry per cell of the
    bounding lattice when that table holds at most
    TABLE_CELLS_PER_POINT entries per point; otherwise (a small alpha makes
    the lattice unbounded) the index pairs are sorted, so the table stays
    within that bound and the key within int64.
    """
    n = len(kx)
    (x0, y0), (x1, y1) = lo, hi
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    if nx * ny > TABLE_CELLS_PER_POINT * n:
        return np.sort(geom.unique_rows(np.stack([kx, ky], axis=1))[1])
    key = (kx - x0) * ny + (ky - y0)
    slot = np.full(nx * ny, n, dtype=np.int64)
    np.minimum.at(slot, key, np.arange(n, dtype=np.int64))
    return np.sort(slot[slot < n])


def boundary_points(
    component: np.ndarray,
    pred: PredictionRaster,
    min_points: int = 8,
    alpha: float = DEFAULT_ALPHA,
) -> BoundaryPointSet:
    """Regress every component cell to its boundary point, then thin them.

    ``component`` is the cells' flat indices, as ``extract_instances``
    returns them: they gather the prediction planes, and their rows and
    columns give the cell centers. Point = cell center + predicted (dx, dy).
    The points are snapped to a square lattice of step max(0.5 px, alpha *
    extent / THIN_CELLS_PER_ALPHA), where extent is the larger side of their
    bounding box, and the first point of each lattice cell (in component
    order) is kept. Alpha is a length in the unit square the extent maps to,
    so a lattice this much finer than alpha keeps the alpha shape while
    Delaunay sees far fewer points; instances under 0.5 *
    THIN_CELLS_PER_ALPHA / alpha px keep the 0.5 px step. An alpha above 1,
    the side of that square, thins as 1 does, so the lattice never gets
    coarser than 1/THIN_CELLS_PER_ALPHA of the extent. A point 2**62 lattice
    steps or more from the origin, which no int64 lattice index holds,
    rejects the instance. The score is the mean probability over the
    component's cells, clamped to [0, 1].
    """
    centers = pred.grid.cell_centers(*np.divmod(component, pred.grid.width))
    x = centers[:, 0] + pred.dist_x.ravel()[component]
    y = centers[:, 1] + pred.dist_y.ravel()[component]
    score = float(np.clip(pred.prob.ravel()[component].mean(), 0.0, 1.0))

    # Python floats: a span beyond the float64 range is inf, without a warning
    x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
    step = max(0.5, min(alpha, 1.0) * max(x1 - x0, y1 - y0) / THIN_CELLS_PER_ALPHA)
    bound = 2.0**62 * step
    if not (-bound < x0 <= x1 < bound and -bound < y0 <= y1 < bound):   # NaN fails too
        raise InstanceRejected(f"a boundary point lies 2**62 or more {step:g} px steps from 0")
    kx, ky = np.round(x / step).astype(np.int64), np.round(y / step).astype(np.int64)
    # kx.min() and so on, as division by a positive step and rounding are monotone
    lo, hi = (round(x0 / step), round(y0 / step)), (round(x1 / step), round(y1 / step))
    first = _first_per_cell(kx, ky, lo, hi)
    pts = np.stack([x[first], y[first]], axis=1)

    if len(pts) < min_points:
        raise InstanceRejected(f"{len(pts)} boundary points < min_points={min_points}")
    return BoundaryPointSet(points=pts, score=score, sources=centers)


def reconstruct(points: BoundaryPointSet, alpha: float = DEFAULT_ALPHA) -> Detection:
    """Fit a concave polygon to the boundary points.

    Points are normalized to the unit square, alpha-shaped by
    ``geom.alpha_shape_with_fallback`` and resized back to image scale. A
    rung that is empty, covers less than ``geom.MIN_COVERAGE`` of the points
    or contains less than ``geom.MIN_CONTAINMENT`` of the central-region
    probes retries with alpha doubled, up to ``geom.LADDER_DOUBLINGS`` times;
    the convex hull is the last fallback, so every usable instance yields an
    enclosing polygon. A vertex beyond
    ``geom.MAX_COORD`` in magnitude, which no detection file may hold, rejects it.
    """
    try:
        norm_pts, norm = geom.normalize_points(points.points)
        inner = norm.apply(geom.containment_probes(points.sources))   # picked before normalizing
        poly_n = geom.alpha_shape_with_fallback(norm_pts, alpha, must_contain=inner)
    except geom.DegenerateInputError as exc:
        raise InstanceRejected(str(exc)) from exc
    poly = geom.Polygon(norm.invert(poly_n.vertices))
    if not np.abs(poly.vertices).max() <= geom.MAX_COORD:   # the detection reader's bound
        raise InstanceRejected(f"a vertex exceeds {geom.MAX_COORD:g} in magnitude")
    return Detection(polygon=poly, score=points.score)


def add_distance_noise(pred: PredictionRaster, sigma: float, seed: int = 0) -> PredictionRaster:
    """Gaussian noise on the distance maps (robustness harness), seeded."""
    if not 0.0 <= sigma < np.inf:   # NaN fails too
        raise ValueError(f"noise sigma must be finite and at least 0, got {sigma}")
    if sigma == 0:
        return pred
    rng = np.random.default_rng(seed)
    return PredictionRaster(
        grid=pred.grid,
        prob=pred.prob,
        dist_x=pred.dist_x + rng.normal(0.0, sigma, pred.dist_x.shape),
        dist_y=pred.dist_y + rng.normal(0.0, sigma, pred.dist_y.shape),
    )


def decode(
    pred: PredictionRaster,
    cfg: DecodeConfig | None = None,
    diagnostics: DecodeDiagnostics | None = None,
) -> list[Detection]:
    """Full raster-to-detections pipeline, deterministic for fixed input.

    Positive cells with a non-finite prob or distance are dropped before
    grouping, and rejected instances are dropped; pass a DecodeDiagnostics to
    add this call's counts to it. Detections come back sorted by score
    descending (stable).
    """
    cfg = cfg or DecodeConfig()
    pos = np.flatnonzero(binarize(pred.prob, cfg.prob_threshold))   # only these cells are read
    finite = np.isfinite(pred.prob.ravel()[pos])
    for plane in (pred.dist_x, pred.dist_y):
        finite &= np.isfinite(plane.ravel()[pos])
    min_cells = cfg.resolved_min_cells(pred.grid.stride)
    comps = extract_instances(pos[finite], pred.grid.width, min_cells)
    diag = diagnostics if diagnostics is not None else DecodeDiagnostics()
    diag.nonfinite += len(pos) - int(finite.sum())
    diag.components += len(comps)

    dets = []
    for comp in comps:
        diag.cells += len(comp)
        try:
            points = boundary_points(comp, pred, cfg.min_points, cfg.alpha)
            dets.append(reconstruct(points, cfg.alpha))
            diag.points += len(points.points)
        except InstanceRejected:
            diag.rejected += 1
    dets.sort(key=lambda d: -d.score)
    return dets
