"""Core 2D geometry: alpha shapes, nearest-boundary queries, minimum-area
rotated rectangles and rasterized polygon IoU.

Coordinates are image pixels unless a function says otherwise (alpha shapes
operate on coordinates normalized to the unit square, see
:func:`normalize_points`). All functions are pure and safe to call from
multiple workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-9
# Largest |coordinate| read or written: products of two stay far from float
# overflow in the area and orientation tests, and integers up to it print exactly.
MAX_COORD = 1e15

# Escalation ladder of alpha_shape_with_fallback.
LADDER_DOUBLINGS = 4
MIN_COVERAGE = 0.98
MIN_CONTAINMENT = 0.9
MAX_CONTAINMENT_PROBES = 512   # containment_probes keeps at most this many points

# nearest_boundary_points: side (px) of the tiles it culls edges over, and
# points per pass of its arithmetic.
NEAREST_TILE = 16.0
_CHUNK = 16384

IOU_RESOLUTION = 256   # polygon_iou: cells per side of the pair's joint-bbox raster


class DegenerateInputError(ValueError):
    """Fewer distinct points than required, or no usable area."""


class AlphaShapeError(ValueError):
    """Alpha-shape construction failed for a recoverable reason."""


class EmptyAlphaShapeError(AlphaShapeError):
    """Every triangle was discarded by the alpha filter."""


def as_points(points) -> np.ndarray:
    """Coerce to a float64 (N, 2) array, rejecting NaN/inf coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def _succ(a: np.ndarray) -> np.ndarray:
    """Each vertex's successor around the ring: ``np.roll(a, -1, axis=0)``
    without its per-call overhead, which dominates on small rings."""
    return np.concatenate((a[1:], a[:1]))


def shoelace_area(vertices) -> float:
    """Signed area, positive for counter-clockwise vertex order."""
    return _shoelace(as_points(vertices))


def _shoelace(v: np.ndarray) -> float:
    """:func:`shoelace_area` of an already validated (N, 2) array."""
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, _succ(y)) - np.dot(_succ(x), y))


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, 2) array in lexicographic (x, y) order.

    Also returns the index of each distinct row's first occurrence. Same
    result as ``np.unique(rows, axis=0, return_index=True)``, from one stable
    two-key sort instead of a sort of structured records.
    """
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    ordered = rows[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return ordered[first], order[first]


def drop_repeats(pts: np.ndarray) -> np.ndarray:
    """Drop vertices equal (within EPS) to their predecessor. Always a new
    array: a plain copy when nothing repeats, which costs less than a mask."""
    step = (np.abs(pts[1:] - pts[:-1]) > EPS).any(axis=1)
    return pts.copy() if step.all() else pts[np.concatenate(([True], step))]


@dataclass
class Polygon:
    """Simple polygon; builders normalize the vertex order to CCW."""

    vertices: np.ndarray

    @classmethod
    def make(cls, points) -> "Polygon":
        """The CCW polygon of ``points``, in a new array, without vertices equal
        (within EPS) to their predecessor or a closing vertex. Validates the
        points once; raises DegenerateInputError under 3 vertices or at zero area."""
        pts = drop_repeats(as_points(points))
        if len(pts) > 1 and max(abs(pts[0] - pts[-1]).tolist()) <= EPS:
            pts = pts[:-1]   # explicit closing vertex
        if len(pts) < 3:
            raise DegenerateInputError("polygon needs at least 3 distinct vertices")
        area = _shoelace(pts)
        if abs(area) <= EPS:
            raise DegenerateInputError("polygon has zero area")
        if area < 0:
            pts = pts[::-1].copy()
        return cls(pts)

    @property
    def area(self) -> float:
        return abs(shoelace_area(self.vertices))

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y)."""
        return (*self.vertices.min(axis=0).tolist(), *self.vertices.max(axis=0).tolist())


@dataclass(frozen=True)
class NormTransform:
    """Isotropic map between original and [0, 1]^2 coordinates.

    ``apply`` sends original points to normalized ones:
    ``(p - offset) * scale``; ``invert`` undoes it exactly.
    """

    offset: tuple[float, float]
    scale: float

    def apply(self, points) -> np.ndarray:
        return (as_points(points) - np.asarray(self.offset)) * self.scale

    def invert(self, points) -> np.ndarray:
        return as_points(points) / self.scale + np.asarray(self.offset)


def _circumradii(tris: np.ndarray) -> np.ndarray:
    """Vectorized circumradii for a (T, 3, 2) triangle array; inf when degenerate."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = b - a
    ac = c - a
    d = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    ab2 = np.einsum("ij,ij->i", ab, ab)
    ac2 = np.einsum("ij,ij->i", ac, ac)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (ac[:, 1] * ab2 - ab[:, 1] * ac2) / d
        uy = (ab[:, 0] * ac2 - ac[:, 0] * ab2) / d
    return np.where(np.abs(d) <= 1e-300, np.inf, np.hypot(ux, uy))


def _collinear(pts: np.ndarray) -> bool:
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[1] <= 1e-9 * max(sv[0], 1e-30)


def _delaunay_raw(
    points, joggle: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicated points and Qhull's whole triangle table: CCW-oriented
    simplices, their neighbor table, circumradii and areas.

    ``neighbors[t, j]`` is Qhull's triangle across the edge opposite vertex
    j of triangle t, or -1 where there is none. ``joggle`` asks Qhull to
    perturb the input by an epsilon (QJ), which is deterministic and much
    faster on grid-aligned point sets. Near-degenerate slivers (area
    <= 1e-14) stay in the table with a NaN radius, which ``radii <= alpha``
    rejects at every alpha, infinity included. Degeneracy is checked
    explicitly beforehand because joggling would mask it.
    """
    from scipy.spatial import Delaunay, QhullError   # loaded on first decode, not at import

    pts, _ = unique_rows(as_points(points))
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 distinct points")
    if joggle and _collinear(pts):
        raise DegenerateInputError("points are collinear")
    if len(pts) == 3:
        joggle = False   # QJ needs 4+ points for its initial simplex
    try:
        tess = Delaunay(pts, qhull_options="QJ" if joggle else None)
    except QhullError as exc:
        raise DegenerateInputError(f"degenerate point set: {exc}") from exc
    simplices, neighbors = tess.simplices, tess.neighbors   # tess's own: flipped in place
    tris = pts[simplices]
    signed = 0.5 * (
        (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
        - (tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
    )
    flip = signed < 0   # reversing the rows keeps neighbor j opposite vertex j
    for rows in (simplices, neighbors, tris):
        rows[flip] = rows[flip][:, ::-1]
    areas = np.abs(signed)
    slivers = areas <= 1e-14
    if slivers.all():
        raise DegenerateInputError("all candidate triangles are collinear")
    radii = np.where(slivers, np.nan, _circumradii(tris))
    return pts, simplices, neighbors, radii, areas


def _largest_component(neighbors: np.ndarray, keep: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Mask of the ``keep`` triangles' component with the largest total area,
    the first of any tie. Two triangles are adjacent when the neighbor table,
    read as CSR rows, links them and both are kept; a dropped triangle is a
    component of its own, whose area is not counted."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(neighbors)
    linked = (neighbors >= 0) & keep[neighbors] & keep[:, None]   # keep[-1]: masked off
    indptr = np.concatenate(([0], np.cumsum(linked.ravel())[2::3]))   # links up to each row's end
    graph = csr_matrix((np.ones(indptr[-1]), neighbors[linked], indptr), shape=(n, n))
    ncomp, comp = connected_components(graph, directed=True, connection="weak")
    totals = np.bincount(comp[keep], weights=areas[keep], minlength=ncomp)
    return comp == np.argmax(totals)


def _boundary_edges(
    simplices: np.ndarray, neighbors: np.ndarray, comp: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tails and heads of the directed edges of the ``comp`` (boolean mask)
    triangles with no ``comp`` triangle across. In a CCW triangle the edge
    opposite vertex j runs from vertex j+1 to vertex j+2."""
    t, j = np.divmod(np.flatnonzero(comp[:, None] & ((neighbors < 0) | ~comp[neighbors])), 3)
    return simplices[t, (j + 1) % 3], simplices[t, (j + 2) % 3]


def _boundary_loops(tails: np.ndarray, heads: np.ndarray) -> list[list[int]]:
    """Closed vertex loops chained from the directed boundary edges of a set
    of CCW triangles, which keep the interior on their left.

    Loops start at the smallest unused boundary edge, and the walk leaves
    every vertex by its smallest unused outgoing edge. A vertex's outgoing
    edges are therefore used in ascending order, so one pointer per vertex
    into the sorted edge list replaces any search. At a pinch vertex any
    continuation is valid, as triangulation edges never cross: when the walk
    comes back to a vertex already on its path, the path since that vertex
    is cut off as a loop of its own. Every loop returned is simple; loops of
    fewer than 3 vertices are dropped.
    """
    # int64 keys: Qhull's int32 indices would wrap above 46,340 points.
    tails, heads = tails.astype(np.int64), heads.astype(np.int64)
    base = int(max(tails.max(), heads.max())) + 1
    tails, heads = np.divmod(np.sort(tails * base + heads), base)
    nxt = np.searchsorted(tails, np.arange(base), side="left").tolist()
    stop = np.searchsorted(tails, np.arange(base), side="right").tolist()
    tails, heads = tails.tolist(), heads.tolist()

    loops = []
    for i, start in enumerate(tails):
        if i < nxt[start]:
            continue   # already walked
        nxt[start] = i + 1
        path, pos = [start], {start: 0}   # pos: each path vertex's index in path
        v = heads[i]
        while v != start:
            if v in pos:   # a pinch: cut the sub-loop from v's visit off the path
                sub = path[pos[v]:]
                if len(sub) >= 3:
                    loops.append(sub)
                for u in sub[1:]:
                    del pos[u]
                del path[pos[v] + 1:]
            else:
                pos[v] = len(path)
                path.append(v)
            j = nxt[v]
            if j == stop[v]:
                raise AlphaShapeError("boundary walk failed to close a loop")
            nxt[v] = j + 1
            v = heads[j]
        if len(path) >= 3:
            loops.append(path)
    return loops


def _shape_from_filter(
    pts: np.ndarray, simplices: np.ndarray, neighbors: np.ndarray,
    radii: np.ndarray, areas: np.ndarray, alpha: float, min_coverage: float,
) -> Polygon:
    """Outer boundary of the alpha-filtered shape's largest component.

    The filter and the component are masks over the one triangle table of
    :func:`_delaunay_raw`. Coverage is the share of input points that are
    vertices of the component's triangles; a well-formed shape covers nearly
    all of them while a stray fragment covers only a few. A component
    covering less than ``min_coverage`` raises AlphaShapeError before its
    boundary is walked. The boundary edges are those with no component
    triangle across.
    """
    keep = radii <= alpha
    if not keep.any():
        raise EmptyAlphaShapeError(f"no triangle has circumradius <= {alpha}")
    comp = _largest_component(neighbors, keep, areas)
    corners = np.bincount(simplices.ravel(), weights=comp.repeat(3), minlength=len(pts))
    coverage = np.count_nonzero(corners) / len(pts)
    if coverage < min_coverage:
        raise AlphaShapeError(f"component covers {coverage:.3f} of the points")

    loops = _boundary_loops(*_boundary_edges(simplices, neighbors, comp))
    # the largest loop, the first of any tie
    best = max(loops, key=lambda loop: abs(_shoelace(pts[loop])), default=None)
    if best is None:
        raise AlphaShapeError("alpha shape has no usable outer boundary")
    try:
        return Polygon.make(pts[best])
    except DegenerateInputError as exc:
        # A degenerate (e.g. zero-area) loop at this alpha is recoverable by escalating.
        raise AlphaShapeError(str(exc)) from exc


def alpha_shape(points, alpha: float) -> Polygon:
    """Concave hull: Delaunay triangles kept while circumradius <= alpha.

    Points are expected in normalized [0, 1]^2 coordinates (see
    :func:`normalize_points`); ``alpha`` may be ``math.inf``, in which case
    the result is the convex hull. Among the retained triangles only the
    connected component with the largest total area contributes; its outer
    boundary is returned as a simple CCW polygon.

    Raises :class:`EmptyAlphaShapeError` when the filter discards every
    triangle and :class:`DegenerateInputError` for unusable input.
    """
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    return _shape_from_filter(*_delaunay_raw(points), alpha, min_coverage=0.0)


def containment_probes(points: np.ndarray) -> np.ndarray:
    """The rows to pass as the alpha ladder's ``must_contain``: every
    (n // MAX_CONTAINMENT_PROBES + 1)-th of n, so at most
    MAX_CONTAINMENT_PROBES; all of them when n is no larger.
    """
    if len(points) > MAX_CONTAINMENT_PROBES:
        return points[:: len(points) // MAX_CONTAINMENT_PROBES + 1]
    return points


def alpha_shape_with_fallback(points, alpha: float, must_contain) -> Polygon:
    """Alpha shape with the escalation ladder used by the decoder.

    The detection contract wants a polygon enclosing the boundary points,
    so an attempt is accepted only when its component covers at least
    MIN_COVERAGE of them (checked before its boundary is walked) and it
    contains at least MIN_CONTAINMENT of the ``must_contain`` points (the
    central-region cell centers the points were regressed from; at least
    one). Every given point is tested, so pick them with
    :func:`containment_probes` to bound that work. Empty, fragmented or
    non-enclosing results (corner slivers at a small alpha, or the open band
    a noisy ring collapses to) retry with alpha doubled up to
    LADDER_DOUBLINGS times. The convex hull is the final fallback, so every
    non-degenerate point set yields a polygon.
    """
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    inner = as_points(must_contain)
    if len(inner) == 0:
        raise ValueError("must_contain needs at least one point")
    pts, simplices, neighbors, radii, areas = _delaunay_raw(points, joggle=True)
    a = alpha
    for _ in range(LADDER_DOUBLINGS + 1):
        try:
            poly = _shape_from_filter(pts, simplices, neighbors, radii, areas, a, MIN_COVERAGE)
        except AlphaShapeError:
            poly = None
        if poly is not None and point_in_polygon(inner, poly.vertices).mean() >= MIN_CONTAINMENT:
            return poly
        a *= 2.0
    return Polygon.make(convex_hull(pts))


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in CCW order (Andrew's monotone chain), run over
    Python floats: the turn test on chain ends a, b and point p is the same
    IEEE arithmetic as on numpy scalars, without a numpy call per vertex."""
    pts, _ = unique_rows(as_points(points))   # sorted by x, then y
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 distinct points")

    def half(seq):
        chain: list[list[float]] = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > EPS:
                    break
                chain.pop()
            chain.append(p)
        return chain

    seq = pts.tolist()
    hull = half(seq)[:-1] + half(seq[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateInputError("points are collinear")
    return np.array(hull)


def _tiles(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Square tiles over the bounding box of the points (px, py): each
    point's tile (an index into the occupied tiles), the occupied tiles'
    (T, 2) centres and the side.

    The side starts at NEAREST_TILE and doubles until the grid has at most
    four tiles per point, so far-apart points never allocate a huge grid.
    Coordinates are divided by the side (a power of two, so exactly) before
    they are subtracted, which keeps spans near the float limit finite.
    """
    x0, y0 = px.min(), py.min()
    side = NEAREST_TILE
    while (px.max() / side - x0 / side + 1) * (py.max() / side - y0 / side + 1) > 4 * len(px):
        side *= 2
    tx = (px / side - x0 / side).astype(np.intp)   # >= 0, so the cast floors
    ty = (py / side - y0 / side).astype(np.intp)
    nx = int(tx.max()) + 1
    flat = ty * nx + tx
    occupied = np.bincount(flat) > 0
    ty, tx = np.divmod(np.flatnonzero(occupied), nx)
    centres = np.stack(((x0 / side + tx + 0.5) * side, (y0 / side + ty + 0.5) * side), axis=1)
    return (np.cumsum(occupied) - 1)[flat], centres, side


def _segment_feet(px, py, edges, t, fx, fy, d) -> None:
    """Foot (fx, fy) and distance d of each point (px, py) on each edge,
    written into (edges, points) buffers; t is a work buffer. ``edges``
    stacks the edges' ax, ay, abx, aby and len2, each an (edges, 1) column.
    Every output bit depends on these operations and their order."""
    ax, ay, abx, aby, len2 = edges
    np.subtract(px, ax, out=t)
    t *= abx
    np.subtract(py, ay, out=fx)
    fx *= aby
    t += fx
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, abx, out=fx)
    fx += ax
    np.multiply(t, aby, out=fy)
    fy += ay
    np.subtract(px, fx, out=t)
    np.subtract(py, fy, out=d)
    np.hypot(t, d, out=d)


def _kept_edges(centres: np.ndarray, side: float, edges: np.ndarray, scale: float) -> np.ndarray:
    """(edges, tiles) mask of the edges each tile of the given centres and
    side keeps. An edge's distance over the tile lies within the tile's
    half-diagonal h of its distance from the centre. An edge is dropped
    only when that lower bound exceeds the tile's best upper bound plus the
    1e-9 tie window plus 2**-40 of ``scale``, the largest |coordinate|,
    which covers float rounding at that size. A NaN distance (from overflow
    near the float limit) drops nothing in its tile, which then runs the
    full search."""
    drop = np.empty((edges.shape[1], len(centres)), dtype=bool)
    half_diag = side * math.sqrt(0.5)
    for lo in range(0, len(centres), _CHUNK):
        c = centres[lo : lo + _CHUNK]
        t, fx, fy, d = np.empty((4, edges.shape[1], len(c)))
        _segment_feet(c[:, 0], c[:, 1], edges, t, fx, fy, d)
        upper = d.min(axis=0) + half_diag
        d -= half_diag
        bound = upper + EPS * np.maximum(1.0, upper) + 2.0**-40 * scale
        np.greater(d, bound, out=drop[:, lo : lo + len(c)])
    return ~drop


def nearest_boundary_points(points, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Closest boundary point on a polygon for each query point.

    Edges are treated as continuous segments. Ties within 1e-9 are broken
    toward the candidate with the smallest y, then smallest x. Returns
    (feet (M, 2), distances (M,)).

    Each point is tested only against the edges that can still be its
    nearest. The points are binned into square tiles of NEAREST_TILE px
    (larger when they are sparse, see ``_tiles``). Over a tile of
    half-diagonal h, an edge's distance lies within h of its distance from
    the tile centre, so a tile keeps the edges whose lower bound is within
    the best upper bound plus a margin: the 1e-9 tie window plus 2**-40 of
    the largest |coordinate|, which covers float rounding at that size
    (``_kept_edges``). Points are grouped by their tile's kept edges (one
    stable sort), and each group runs the same operations, in the same
    order, on its kept edges in their original order. Every edge that could
    be a point's nearest or tie with it is kept, so feet, distances and tie
    breaks are bit for bit those of a search over every edge. The work
    arrays are laid out edges x points and reused; points go in chunks to
    bound memory.
    """
    P = as_points(points)
    V = as_points(vertices)
    if len(V) < 3:
        raise DegenerateInputError("polygon needs at least 3 vertices")
    if not len(P):
        return np.empty((0, 2)), np.empty(0)
    ax, ay = V[:, 0], V[:, 1]
    abx, aby = _succ(ax) - ax, _succ(ay) - ay
    len2 = abx * abx + aby * aby
    len2 = np.where(len2 <= 1e-300, 1.0, len2)
    edges = np.stack((ax, ay, abx, aby, len2))[:, :, None]

    px, py = P[:, 0].copy(), P[:, 1].copy()
    tile, centres, side = _tiles(px, py)
    scale = max(np.abs(V).max(), -px.min(), px.max(), -py.min(), py.max())
    keep = _kept_edges(centres, side, edges, scale)
    _, first, group = np.unique(
        np.packbits(keep, axis=0).T, axis=0, return_index=True, return_inverse=True
    )
    key = group.astype(np.min_scalar_type(len(first)))[tile]
    order = np.argsort(key, kind="stable")
    kept = [np.flatnonzero(keep[:, f]) for f in first]
    sizes = np.bincount(key)

    need = max(len(e) * min(n, _CHUNK) for e, n in zip(kept, sizes))
    work, cand_buf = np.empty((4, need)), np.empty(need, dtype=bool)
    cols = np.arange(min(len(P), _CHUNK))
    px, py = px[order], py[order]
    fx_out, fy_out, d_out = np.empty((3, len(P)))
    end = 0
    for e, n in zip(kept, sizes):
        sub = edges[:, e]
        start, end = end, end + n
        for lo in range(start, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            shape = (len(e), hi - lo)
            t, fx, fy, d = (w[: shape[0] * shape[1]].reshape(shape) for w in work)
            _segment_feet(px[lo:hi], py[lo:hi], sub, t, fx, fy, d)
            if len(e) == 1:
                fx_out[lo:hi], fy_out[lo:hi], d_out[lo:hi] = fx[0], fy[0], d[0]
                continue
            dmin = d.min(axis=0)
            cand = cand_buf[: shape[0] * shape[1]].reshape(shape)
            np.less_equal(d, dmin + EPS * np.maximum(1.0, dmin), out=cand)
            idx = cand.argmax(axis=0)
            tied = np.flatnonzero(np.count_nonzero(cand, axis=0) > 1)
            if len(tied):
                c = cand[:, tied]
                gy = np.where(c, fy[:, tied], np.inf)
                c &= gy <= gy.min(axis=0) + EPS
                gx = np.where(c, fx[:, tied], np.inf)
                c &= gx <= gx.min(axis=0) + EPS
                idx[tied] = c.argmax(axis=0)
            at = idx * shape[1] + cols[: shape[1]]
            np.take(fx, at, out=fx_out[lo:hi])
            np.take(fy, at, out=fy_out[lo:hi])
            np.take(d, at, out=d_out[lo:hi])
    # back to the caller's order: gathering through the inverse permutation
    # is faster than scattering through order
    back = np.empty_like(order)
    back[order] = np.arange(len(P))
    return np.stack((fx_out[back], fy_out[back]), axis=1), d_out[back]


def normalize_points(points) -> tuple[np.ndarray, NormTransform]:
    """Shift and isotropically scale points into [0, 1]^2.

    A single scale factor 1 / max(width, height) of the bounding box keeps
    the aspect ratio. Returns the normalized points and the transform needed
    to undo the mapping.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 points")
    mins = pts.min(axis=0)
    span = pts.max(axis=0) - mins
    extent = float(span.max())
    if extent <= 0:
        raise DegenerateInputError("all points are identical")
    t = NormTransform(offset=(float(mins[0]), float(mins[1])), scale=1.0 / extent)
    return t.apply(pts), t


def min_area_rect(poly: Polygon) -> Polygon:
    """Minimum-area oriented rectangle enclosing a :class:`Polygon`.

    The optimal rectangle shares a direction with some hull edge, so every
    edge direction is tried: matrix products, each over a bounded chunk of
    directions, project the whole hull onto every edge direction and its
    normal, which is O(H^2) in the hull size H (rotating calipers would be
    O(H)). The first direction whose area beats the best so far by more
    than 1e-12 wins.
    """
    hull = convex_hull(poly.vertices)
    edges = _succ(hull) - hull
    dirs = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    # rows 2k, 2k + 1 hold rot_k = [[ux, uy], [-uy, ux]] of hull edge k
    rots = np.stack([dirs, dirs[:, ::-1] * (-1.0, 1.0)], axis=1).reshape(-1, 2)
    lo, hi = np.empty(len(rots)), np.empty(len(rots))
    step = 2 * max(1, 2**20 // len(hull))   # ~2**21 floats (16 MB) per product on any hull
    for c in range(0, len(rots), step):
        proj = hull @ rots[c : c + step].T
        lo[c : c + step], hi[c : c + step] = proj.min(axis=0), proj.max(axis=0)
    span = hi - lo
    best_area, best = math.inf, None
    for k, area in enumerate((span[::2] * span[1::2]).tolist()):
        if area < best_area - 1e-12:
            best_area, best = area, k
    if best is None:
        raise DegenerateInputError("cannot fit a rectangle to a degenerate polygon")
    (lu, lv), (hu, hv) = lo[2 * best : 2 * best + 2], hi[2 * best : 2 * best + 2]
    corners = np.array([[lu, lv], [hu, lv], [hu, hv], [lu, hv]])
    return Polygon.make(corners @ rots[2 * best : 2 * best + 2])


def _row_crossings(vertices: np.ndarray, ys: np.ndarray, ends=None) -> tuple[np.ndarray, ...]:
    """Crossings of the horizontal lines y = ys[i] with the polygon's edges.

    Edge i runs from vertices[i] to the next vertex, or to ends[i] when given
    (several rings in one pass). ``ys`` must be ascending. An edge from
    (x1, y1) to (x2, y2) is crossed by the lines whose y lies in its
    half-open span, i.e. where ``y1 > y`` differs from ``y2 > y``; those lines
    are one contiguous run of ``ys``, so the work grows with the number of
    crossings, not lines x edges. Returns (edge, line index, crossing x) per
    crossing, in edge order, the x being ``x1 + (y - y1) * (x2 - x1) / (y2 - y1)``.
    Around a closed ring every line is crossed an even number of times.
    """
    x1, y1 = vertices[:, 0], vertices[:, 1]
    x2, y2 = (_succ(x1), _succ(y1)) if ends is None else (ends[:, 0], ends[:, 1])
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    count = np.searchsorted(ys, np.maximum(y1, y2), side="left") - first
    edge = np.repeat(np.arange(len(vertices)), count)
    line = np.arange(len(edge)) + np.repeat(first - (np.cumsum(count) - count), count)
    xs = x1[edge] + (ys[line] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    return edge, line, xs


def _yx_keys(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complex keys y + ix: numpy sorts and searches complex numbers
    lexicographically, so these order points by y, then x."""
    return np.stack([y, x], axis=1).view(np.complex128)[:, 0]


def point_in_polygon(points, vertices) -> np.ndarray:
    """Even-odd (crossing number) point-in-polygon test, vectorized.

    A point is inside when its rightward ray crosses an odd number of edges.
    Points are sorted by (y, x) and each distinct y gets its crossings from
    :func:`_row_crossings`, as a scanline row would. A row's crossing count
    is even, so the parity of the crossings right of a point equals that of
    the crossings at or left of it: each crossing flips a running parity
    from the first point at or right of it on, with no reset between rows.
    x-ties: a crossing at a point's own x counts as left of it, so points
    inside lie in [x_left, x_right) of a run, as in :func:`_flip_keys`.
    Points go in chunks to bound memory.
    """
    P = as_points(points)
    V = as_points(vertices)
    inside = np.empty(len(P), dtype=bool)
    chunk = 65536
    for c0 in range(0, len(P), chunk):
        p = P[c0 : c0 + chunk]
        keys = _yx_keys(p[:, 1], p[:, 0])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        ys = keys.real
        new_row = np.ones(len(ys), dtype=bool)
        new_row[1:] = ys[1:] != ys[:-1]
        row_ys = ys[new_row]
        _, line, xs = _row_crossings(V, row_ys)
        pos = np.searchsorted(keys, _yx_keys(row_ys[line], xs), side="left")
        flips = np.bincount(pos, minlength=len(p) + 1)[: len(p)]
        inside[c0 + order] = np.cumsum(flips) % 2 == 1
    return inside


def _flip_keys(vertices, origin, cell, shape: tuple[int, int], ends=None) -> tuple[np.ndarray, ...]:
    """Scanline flips of a polygon on a grid of cell centers, in edge order.

    One key ``row * (nx + 1) + col`` per crossing of :func:`_row_crossings`
    (``ends`` is passed on), col being the number of the row's centers
    strictly left of it: the crossing flips cells col.. of its row, none when
    col = nx. Returns (keys, edge index). A ring crosses each row an even
    number of times, so its sorted keys pair up into runs [k0, k1),
    [k2, k3), ... of inside cells, whose centers lie in [x_left, x_right), as
    in :func:`point_in_polygon`: for the square (0,0)-(4,4) a center at
    (0, 2) is inside and one at (4, 2) outside. Read by :func:`polygon_cells`,
    which decodes the runs into cells, and by :func:`polygon_iou`, which
    counts run lengths without decoding them.
    """
    if not (cell[0] > 0 and cell[1] > 0):
        raise ValueError(f"cell sizes must be positive, got {cell}")
    ny, nx = shape
    xc = origin[0] + (np.arange(nx) + 0.5) * cell[0]
    yc = origin[1] + (np.arange(ny) + 0.5) * cell[1]
    edge, line, xs = _row_crossings(as_points(vertices), yc, ends)
    return line * (nx + 1) + np.searchsorted(xc, xs, side="left"), edge


def polygon_cells(vertices, origin, cell, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the cells of :func:`_flip_keys`' runs, in raster order.

    The one decoder of those keys: the runs [k0, k1), [k2, k3), ... of the
    sorted keys ``row * (nx + 1) + col`` expand into their cells, which are
    the cells whose center is inside by the even-odd rule, whatever the
    number of crossings (self-intersecting rings included). Set centers lie
    in [xmin, xmax) x [ymin, ymax) of the vertices, up to a few ulps of
    rounding in the crossing x. Linear in crossings plus cells; cell sizes
    must be positive. Read by ``labels.encode``'s region and ignore rasters
    and by :func:`polygon_mask`.
    """
    keys = np.sort(_flip_keys(vertices, origin, cell, shape)[0])
    k0, k1 = keys[0::2], keys[1::2]
    n = k1 - k0
    return np.divmod(np.arange(n.sum()) + np.repeat(k0 - (np.cumsum(n) - n), n), shape[1] + 1)


def polygon_mask(
    vertices,
    origin: tuple[float, float],
    cell: tuple[float, float],
    shape: tuple[int, int],
) -> np.ndarray:
    """Rasterize a polygon: a (ny, nx) bool array with the cells of
    :func:`polygon_cells` set, i.e. those whose center is inside."""
    mask = np.zeros(shape, dtype=bool)
    mask[polygon_cells(vertices, origin, cell, shape)] = True
    return mask


def polygon_iou(a: Polygon, b: Polygon) -> float:
    """Rasterized intersection-over-union of two simple polygons.

    The IoU of both polygons' :func:`polygon_mask` rasters on a shared R x R
    grid spanning their joint bounding box, R = IOU_RESOLUTION, counted from
    their scanline runs without building the rasters, so the same float.
    Both rings' flips come from one :func:`_flip_keys` pass and one sort of
    ``key * 2 + ring``; the gaps between sorted keys where both rings' parities
    are odd sum to the intersection, those where either is to the union. Time
    O(c log c) and memory O(c) in the c crossings (about 2R per polygon that
    each row crosses twice), not R^2. Concave inputs are handled by
    construction. Disjoint polygons score 0.
    """
    va, vb = a.vertices, b.vertices
    v = np.concatenate((va, vb))
    (x0, y0), (x1, y1) = v.min(axis=0).tolist(), v.max(axis=0).tolist()
    if x1 <= x0 or y1 <= y0:
        return 0.0
    cell = ((x1 - x0) / IOU_RESOLUTION, (y1 - y0) / IOU_RESOLUTION)
    ends = np.concatenate((va[1:], va[:1], vb[1:], vb[:1]))   # each ring wraps on itself
    keys, edge = _flip_keys(v, (x0, y0), cell, (IOU_RESOLUTION,) * 2, ends)
    keys = np.sort(keys * 2 + (edge >= len(va)))
    odd_a, odd_b = (np.cumsum((keys & 1) == ring) & 1 for ring in (0, 1))
    gaps = np.diff(keys >> 1)
    inter, union = (int(np.dot(gaps, odd[:-1])) for odd in (odd_a & odd_b, odd_a | odd_b))
    return float(inter) / float(union) if union else 0.0


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(p1, p2, q1, q2) -> bool:
    """True only for a proper crossing: each segment's endpoints lie strictly
    on opposite sides of the other's line, by more than EPS. Touching,
    collinear or near-degenerate pairs return False."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > EPS and d2 < -EPS) or (d1 < -EPS and d2 > EPS)) and (
        (d3 > EPS and d4 < -EPS) or (d3 < -EPS and d4 > EPS)
    ):
        return True
    return False


def is_simple(vertices) -> bool:
    """True when no two non-adjacent polygon edges properly intersect."""
    V = as_points(vertices)
    n = len(V)
    if n < 3:
        return False
    edges = [(V[i], V[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True
