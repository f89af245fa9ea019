"""Inverse pipeline: predicted central-region probabilities plus distance
maps back to concave polygon detections.

Steps: binarize the probability map, group positive cells into 4-connected
instances, turn every cell into a boundary point (center + predicted
offsets), then fit a concave polygon to the normalized points with an alpha
shape and map it back to image scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import geom
from .labels import LabelRaster, RasterGrid

DEFAULT_ALPHA = 0.06
THIN_CELLS_PER_ALPHA = 16   # boundary-point lattice cells per alpha of the instance extent
FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)


class InstanceRejected(Exception):
    """Instance dropped: too few points or unrecoverable geometry."""


@dataclass
class DecodeConfig:
    prob_threshold: float = 0.5
    alpha: float = DEFAULT_ALPHA
    min_points: int = 8
    min_cells: int | None = None   # None: auto from stride, 64 cells at stride 1

    def resolved_min_cells(self, stride: int) -> int:
        if self.min_cells is not None:
            return self.min_cells
        return max(1, 64 // (stride * stride))


@dataclass
class DecodeDiagnostics:
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
        """Perfect prediction for a label raster (roundtrip harness)."""
        return cls(
            grid=label.grid,
            prob=label.mask.astype(np.float64),
            dist_x=label.dist_x.astype(np.float64),
            dist_y=label.dist_y.astype(np.float64),
        )


@dataclass
class BoundaryPointSet:
    """Dense regressed boundary points of one instance, in image pixels.

    ``sources`` are the cell centers the points were regressed from; the
    reconstructed polygon must contain them.
    """

    points: np.ndarray
    norm: geom.NormTransform
    score: float
    sources: np.ndarray | None = None


@dataclass
class Detection:
    polygon: geom.Polygon
    score: float


def binarize(prob: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Per-cell threshold: 1 iff prob >= threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    return (np.asarray(prob) >= threshold).astype(np.uint8)


def extract_instances(mask: np.ndarray, min_cells: int = 1) -> list[np.ndarray]:
    """4-connected components as (N, 2) row/col index arrays.

    Sorted by size descending (label order breaks ties); components smaller
    than min_cells are dropped.
    """
    labels, count = ndimage.label(mask, structure=FOUR_CONNECTED)
    comps = []
    for lab in range(1, count + 1):
        cells = np.argwhere(labels == lab)
        if len(cells) >= min_cells:
            comps.append(cells)
    comps.sort(key=len, reverse=True)
    return comps


def boundary_points(
    component: np.ndarray,
    pred: PredictionRaster,
    min_points: int = 8,
    alpha: float = DEFAULT_ALPHA,
) -> BoundaryPointSet:
    """Regress every component cell to its boundary point, then thin them.

    Point = cell center + predicted (dx, dy). The points are snapped to a
    square lattice of step max(0.5 px, alpha * extent / THIN_CELLS_PER_ALPHA),
    where extent is the larger side of their bounding box, and the first
    point of each lattice cell (in component order) is kept. Alpha is a
    length in the unit square the extent maps to, so a lattice this much
    finer than alpha keeps the alpha shape while Delaunay sees far fewer
    points; instances under 0.5 * THIN_CELLS_PER_ALPHA / alpha px keep the
    0.5 px step. An alpha above 1, the side of that square, thins as 1 does,
    so the lattice never gets coarser than 1/THIN_CELLS_PER_ALPHA of the
    extent. The score is the mean probability over the component's cells,
    clamped to [0, 1].
    """
    rows, cols = component[:, 0], component[:, 1]
    centers = pred.grid.cell_centers(rows, cols)
    pts = centers + np.stack([pred.dist_x[rows, cols], pred.dist_y[rows, cols]], axis=1)
    score = float(np.clip(pred.prob[rows, cols].mean(), 0.0, 1.0))

    extent = float(np.ptp(pts, axis=0).max())
    step = max(0.5, min(alpha, 1.0) * extent / THIN_CELLS_PER_ALPHA)
    _, first = geom.unique_rows(np.round(pts / step).astype(np.int64))
    pts = pts[np.sort(first)]

    if len(pts) < min_points:
        raise InstanceRejected(f"{len(pts)} boundary points < min_points={min_points}")
    try:
        _, norm = geom.normalize_points(pts)
    except geom.DegenerateInputError as exc:
        raise InstanceRejected(str(exc)) from exc
    return BoundaryPointSet(points=pts, norm=norm, score=score, sources=centers)


def reconstruct(points: BoundaryPointSet, alpha: float = DEFAULT_ALPHA) -> Detection:
    """Fit a concave polygon to the boundary points.

    Points are normalized to the unit square, alpha-shaped, and the polygon
    resized back to image scale. Degenerate or fragmented shapes retry with
    alpha doubled up to 4 times and finally fall back to the convex hull,
    so every usable instance yields an enclosing polygon.
    """
    norm_pts = points.norm.apply(points.points)
    inner = points.norm.apply(points.sources) if points.sources is not None else None
    try:
        poly_n = geom.alpha_shape_with_fallback(norm_pts, alpha, must_contain=inner)
    except geom.DegenerateInputError as exc:
        raise InstanceRejected(str(exc)) from exc
    return Detection(
        polygon=geom.denormalize_polygon(poly_n, points.norm),
        score=points.score,
    )


def add_distance_noise(pred: PredictionRaster, sigma: float, seed: int = 0) -> PredictionRaster:
    """Gaussian noise on the distance maps (robustness harness), seeded."""
    if sigma <= 0:
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
    get counts. Detections come back sorted by score descending (stable).
    """
    cfg = cfg or DecodeConfig()
    mask = binarize(pred.prob, cfg.prob_threshold)
    finite = np.isfinite(pred.prob) & np.isfinite(pred.dist_x) & np.isfinite(pred.dist_y)
    nonfinite = mask.astype(bool) & ~finite
    mask[nonfinite] = 0
    comps = extract_instances(mask, cfg.resolved_min_cells(pred.grid.stride))
    if diagnostics is not None:
        diagnostics.nonfinite = int(nonfinite.sum())
        diagnostics.components = len(comps)

    dets = []
    for comp in comps:
        if diagnostics is not None:
            diagnostics.cells += len(comp)
        try:
            points = boundary_points(comp, pred, cfg.min_points, cfg.alpha)
            if diagnostics is not None:
                diagnostics.points += len(points.points)
            dets.append(reconstruct(points, cfg.alpha))
        except InstanceRejected:
            if diagnostics is not None:
                diagnostics.rejected += 1
    dets.sort(key=lambda d: -d.score)
    return dets
