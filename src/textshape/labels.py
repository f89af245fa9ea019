"""Ground-truth generation: annotation polygons to central-region masks and
signed nearest-boundary distance maps.

A text annotation is two vertex chains (upper and lower, both running left
to right). The central text region is a 25% inset of the annotation along
the chain-connecting edges of a deterministic zip triangulation; every cell
of the central region stores the signed offset from its center to the
nearest point on the full annotation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import (
    Polygon,
    as_points,
    drop_repeats,
    is_simple,
    nearest_boundary_points,
    point_in_polygon,
    polygon_cells,
    shoelace_area,
)

SHRINK = 0.25
# Largest grid (width * height cells) a RasterGrid may describe, about
# 5,800 x 5,800. Encode keeps ~18 bytes per cell (two float64 distance
# planes and two uint8 masks), so this caps one encode near 0.6 GB whatever
# extent an annotation file claims.
MAX_GRID_CELLS = 2**25


class MalformedAnnotationError(ValueError):
    """Annotation vertices violate the two-chain convention."""


@dataclass
class AnnotationPolygon:
    """Two-chain text annotation.

    ``upper`` and ``lower`` both run left to right; the closed outline is
    upper left-to-right followed by lower right-to-left.
    """

    upper: np.ndarray
    lower: np.ndarray
    ignore: bool = False

    @classmethod
    def make(cls, upper, lower, ignore: bool = False) -> "AnnotationPolygon":
        up = drop_repeats(as_points(upper))
        low = drop_repeats(as_points(lower))
        if len(up) < 2 or len(low) < 2:
            raise MalformedAnnotationError("each chain needs at least 2 distinct vertices")
        ann = cls(up, low, ignore=ignore)
        ring = ann.closed_vertices()
        if abs(shoelace_area(ring)) <= 1e-9:
            raise MalformedAnnotationError("annotation polygon has zero area")
        if not is_simple(ring):
            raise MalformedAnnotationError("annotation polygon is self-intersecting")
        return ann

    def closed_vertices(self) -> np.ndarray:
        return np.vstack([self.upper, self.lower[::-1]])

    def polygon(self) -> Polygon:
        return Polygon.make(self.closed_vertices())


def split_sides(vertices, ignore: bool = False) -> AnnotationPolygon:
    """Split a flat vertex ring into upper/lower chains.

    Expects the dataset convention "upper chain left to right, then lower
    chain right to left" with an even vertex count >= 4; quadrilaterals in
    clockwise-from-top-left order are the 4-vertex special case.
    """
    pts = as_points(vertices)
    n = len(pts)
    if n < 4 or n % 2 != 0:
        raise MalformedAnnotationError(f"need an even vertex count >= 4, got {n}")
    half = n // 2
    return AnnotationPolygon.make(pts[:half], pts[half:][::-1], ignore=ignore)


def _zip_edges(ann: AnnotationPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Connecting edges of the zip triangulation, as ``(upper_idx, lower_idx)``
    index arrays that start at (0, 0) and advance one chain per edge.

    Chains are merged by normalized arc length, so every triangle straddles
    the two chains and the construction is reproducible. A stable sort of
    the two ascending parameter lists is their merge, upper first on ties.
    """
    tu = _arc_params(ann.upper)
    tl = _arc_params(ann.lower)
    upper_step = np.argsort(np.concatenate([tu[1:], tl[1:]]), kind="stable") < len(tu) - 1
    iu = np.concatenate([[0], np.cumsum(upper_step)])
    il = np.concatenate([[0], np.cumsum(~upper_step)])
    return iu, il


def _arc_params(chain: np.ndarray) -> np.ndarray:
    seg = np.hypot(*(chain[1:] - chain[:-1]).T)
    total = seg.sum()
    if total <= 0:
        raise MalformedAnnotationError("chain has zero length")
    return np.concatenate([[0.0], np.cumsum(seg)]) / total


def central_region_polygon(ann: AnnotationPolygon) -> Polygon:
    """Central text region: 25% inset along every chain-connecting edge.

    The two points at 25% of the edge length from each endpoint are emitted
    for every connecting edge (the original end edges included, so the
    region closes). The result is simple, inside the annotation and smaller
    than it (keeping neighboring instances separable) where the zip triangles
    tile the annotation, as on rectangles and evenly sampled arcs; unevenly
    spaced chains can break both (ROADMAP item 2).
    """
    iu, il = _zip_edges(ann)
    u = ann.upper[iu]
    v = ann.lower[il] - u
    keep = np.hypot(v[:, 0], v[:, 1]) > 1e-9
    u, v = u[keep], v[keep]
    ring = np.vstack([u + SHRINK * v, (u + (1.0 - SHRINK) * v)[::-1]])
    if len(ring) < 3:
        raise MalformedAnnotationError("central region degenerates to fewer than 3 vertices")
    return Polygon.make(ring)


@dataclass(frozen=True)
class RasterGrid:
    """Cell grid over an image; cell (i, j) has center ((i+.5)s, (j+.5)s)."""

    width: int
    height: int
    stride: int = 1

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.stride < 1:
            raise ValueError("grid dimensions and stride must be positive")
        if self.width * self.height > MAX_GRID_CELLS:
            raise ValueError(
                f"grid {self.width}x{self.height} exceeds the budget of "
                f"{MAX_GRID_CELLS} cells"
            )

    @classmethod
    def for_image(cls, image_w: int, image_h: int, stride: int = 1) -> "RasterGrid":
        step = max(stride, 1)   # a stride below 1 reaches __post_init__, which rejects it
        return cls(
            width=-(-int(image_w) // step),
            height=-(-int(image_h) // step),
            stride=stride,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def cell_centers(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Image coordinates of cell centers for (row, col) index arrays,
        which broadcast against each other."""
        rows, cols = np.broadcast_arrays(rows, cols)
        # filled in place: one output buffer, no x and y planes to stack
        out = np.empty(rows.shape + (2,))
        out[..., 0] = cols
        out[..., 1] = rows
        out += 0.5
        out *= self.stride
        return out


@dataclass
class EncodeStats:
    instances: int = 0
    conflict_cells: int = 0


@dataclass
class LabelRaster:
    """Central-region mask plus signed x/y distance maps on a grid.

    Distances are valid (and finite) exactly where mask == 1 and zero
    elsewhere; cell center + (dist_x, dist_y) lands on the annotation
    boundary.
    """

    grid: RasterGrid
    mask: np.ndarray
    dist_x: np.ndarray
    dist_y: np.ndarray
    ignore_mask: np.ndarray
    stats: EncodeStats | None = field(default=None, compare=False)

    @classmethod
    def zeros(cls, grid: RasterGrid) -> "LabelRaster":
        shape = grid.shape
        return cls(
            grid=grid,
            mask=np.zeros(shape, dtype=np.uint8),
            dist_x=np.zeros(shape, dtype=np.float64),
            dist_y=np.zeros(shape, dtype=np.float64),
            ignore_mask=np.zeros(shape, dtype=np.uint8),
        )


def _region_cells(poly: Polygon, grid: RasterGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (row * width + col) and (N, 2) centers of the grid cells
    whose centers fall inside the polygon, in raster order.

    The cells are ``polygon_cells``' runs. ``point_in_polygon``, which
    shares their tie rule, keeps every run cell; the call stays only because
    perfbench times the region raster under that name (ROADMAP item 1).
    """
    r, c = polygon_cells(poly.vertices, (0.0, 0.0), (grid.stride, grid.stride), grid.shape)
    centers = grid.cell_centers(r, c)
    inside = point_in_polygon(centers, poly.vertices)
    # np.compress: a boolean index on a 2-D array is several times slower
    return (r * grid.width + c)[inside], np.compress(inside, centers, axis=0)


def encode(annotations: list[AnnotationPolygon], grid: RasterGrid) -> LabelRaster:
    """Rasterize annotations into a LabelRaster.

    The mask is the union of the central regions of non-ignore annotations;
    each positive cell stores the offset from its center to the nearest
    point of the owning annotation's full boundary. A cell claimed by two
    central regions goes to the annotation whose boundary is nearer, and the
    conflict is counted in the returned stats. Ignore annotations only fill
    the ignore mask, over their full outline, straight from its
    ``polygon_cells``.
    """
    out = LabelRaster.zeros(grid)
    stats = EncodeStats()
    # flat views: a cell (r, c) is index r * width + c
    mask, dist_x, dist_y = out.mask.ravel(), out.dist_x.ravel(), out.dist_y.ravel()

    cell = (grid.stride, grid.stride)
    for ann in annotations:
        if ann.ignore:
            out.ignore_mask[polygon_cells(ann.polygon().vertices, (0.0, 0.0), cell, grid.shape)] = 1
            continue
        stats.instances += 1
        flat, centers = _region_cells(central_region_polygon(ann), grid)
        if len(flat) == 0:
            continue
        feet, dist = nearest_boundary_points(centers, ann.closed_vertices())

        occupied = mask[flat] == 1
        stats.conflict_cells += int(occupied.sum())
        claim = ~occupied
        # the hypot of a held cell's offset is its owner's distance, bit for bit
        held = flat[occupied]
        claim[occupied] = dist[occupied] < np.hypot(dist_x[held], dist_y[held])
        f = flat[claim]
        mask[f] = 1
        # 1-D columns: a boolean select on a 2-D array is several times slower
        dist_x[f] = feet[:, 0][claim] - centers[:, 0][claim]
        dist_y[f] = feet[:, 1][claim] - centers[:, 1][claim]

    out.stats = stats
    return out
