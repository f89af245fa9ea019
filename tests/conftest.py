"""Shared oracle helpers, deliberately independent of the library internals."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest


def shoelace(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def ray_cast_inside(px: float, py: float, vertices) -> bool:
    """Classic scalar even-odd test (independent of the library rasterizer)."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = v[i]
        xj, yj = v[j]
        if (yi > py) != (yj > py):
            x_cross = xi + (py - yi) * (xj - xi) / (yj - yi)
            if px < x_cross:
                inside = not inside
        j = i
    return inside


def rasterize_oracle(vertices, x0, y0, x1, y1, n) -> np.ndarray:
    """Per-edge parity accumulation on an n x n grid of cell centers."""
    v = np.asarray(vertices, dtype=float)
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    gx, gy = np.meshgrid(xs, ys)
    inside = np.zeros((n, n), dtype=bool)
    m = len(v)
    for i in range(m):
        xi, yi = v[i]
        xj, yj = v[(i + 1) % m]
        cond = (yi > gy) != (yj > gy)
        if not cond.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = xi + (gy - yi) * (xj - xi) / (yj - yi)
        inside ^= cond & (gx < x_cross)
    return inside


def boundary_samples(vertices, n: int) -> np.ndarray:
    """n points uniformly spaced by arc length along the polygon boundary."""
    v = np.asarray(vertices, dtype=float)
    closed = np.vstack([v, v[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    t = np.linspace(0.0, total, n, endpoint=False)
    idx = np.searchsorted(cum, t, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    frac = (t - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def strip_collinear(vertices, tol: float = 1e-9) -> np.ndarray:
    """Drop vertices collinear with their neighbors (for hull comparisons)."""
    v = np.asarray(vertices, dtype=float)
    keep = []
    n = len(v)
    for i in range(n):
        a, b, c = v[i - 1], v[i], v[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(cross) > tol:
            keep.append(i)
    return v[keep]


def vertex_sets_match(a, b, tol: float = 1e-9) -> bool:
    """Order-insensitive vertex set comparison."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    used = np.zeros(len(b), dtype=bool)
    for p in a:
        d = np.hypot(b[:, 0] - p[0], b[:, 1] - p[1])
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True


def zip_triangles(upper, lower, edges) -> list[np.ndarray]:
    """Corners (3, 2) of the triangle between each pair of consecutive zip
    edges ``(upper_idx, lower_idx)``; each step must advance one chain by one."""
    tris = []
    for (iu0, il0), (iu1, il1) in zip(edges, edges[1:]):
        assert sorted((iu1 - iu0, il1 - il0)) == [0, 1], "a zip step advances one chain by one"
        third = upper[iu1] if iu1 > iu0 else lower[il1]
        tris.append(np.array([upper[iu0], third, lower[il0]], dtype=float))
    return tris


def sequential_zip_edges(tu, tl) -> list[tuple[int, int]]:
    """Zip edges ``(upper_idx, lower_idx)`` by a step-by-step merge of two
    ascending arc-length parameter lists, the upper chain first on ties."""
    iu = il = 0
    edges = [(0, 0)]
    while iu < len(tu) - 1 or il < len(tl) - 1:
        if iu == len(tu) - 1:
            il += 1
        elif il == len(tl) - 1:
            iu += 1
        elif tu[iu + 1] <= tl[il + 1]:
            iu += 1
        else:
            il += 1
        edges.append((iu, il))
    return edges


def sequential_central_ring(upper, lower, edges, shrink) -> np.ndarray:
    """Central-region ring built point by point: along each zip edge longer
    than 1e-9, the points at ``shrink`` from either end; upper side first,
    then the lower side reversed."""
    upper_side = []
    lower_side = []
    for iu, il in edges:
        u = upper[iu]
        v = lower[il] - u
        if np.hypot(*v) <= 1e-9:
            continue
        upper_side.append(u + shrink * v)
        lower_side.append(u + (1.0 - shrink) * v)
    return np.array(upper_side + lower_side[::-1]).reshape(-1, 2)


def point_major_nearest_boundary(points, vertices):
    """Reference nearest-boundary search, laid out points x edges.

    The earlier layout of ``geom.nearest_boundary_points``, kept verbatim so
    the library's layout can be checked bit for bit against it: feet and
    distances of the nearest point on the closed polygon, ties within 1e-9
    broken toward the smallest y, then the smallest x.
    """
    eps = 1e-9
    P = np.asarray(points, dtype=np.float64)
    V = np.asarray(vertices, dtype=np.float64)
    ax, ay = V[:, 0], V[:, 1]
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    len2 = abx * abx + aby * aby
    len2 = np.where(len2 <= 1e-300, 1.0, len2)

    feet_out = np.empty_like(P)
    dist_out = np.empty(len(P))
    chunk = 16384
    for lo in range(0, len(P), chunk):
        px, py = P[lo : lo + chunk, :1], P[lo : lo + chunk, 1:]
        t = ((px - ax) * abx + (py - ay) * aby) / len2
        np.clip(t, 0.0, 1.0, out=t)
        fx = ax + t * abx
        fy = ay + t * aby
        d = np.hypot(px - fx, py - fy)
        dmin = d.min(axis=1)
        cand = d <= (dmin + eps * np.maximum(1.0, dmin))[:, None]
        idx = cand.argmax(axis=1)
        tied = np.flatnonzero(cand.sum(axis=1) > 1)
        if len(tied):
            c = cand[tied]
            gy = np.where(c, fy[tied], np.inf)
            c &= gy <= (gy.min(axis=1) + eps)[:, None]
            gx = np.where(c, fx[tied], np.inf)
            c &= gx <= (gx.min(axis=1) + eps)[:, None]
            idx[tied] = c.argmax(axis=1)
        rows = np.arange(len(idx))
        feet_out[lo : lo + chunk, 0] = fx[rows, idx]
        feet_out[lo : lo + chunk, 1] = fy[rows, idx]
        dist_out[lo : lo + chunk] = d[rows, idx]
    return feet_out, dist_out


def per_direction_min_area_rect(hull) -> np.ndarray:
    """Reference rotating calipers, one hull edge direction at a time.

    The earlier loop of ``geom.min_area_rect``, kept verbatim so the batched
    projection can be checked bit for bit against it: corners (4, 2) of the
    first rectangle, over the edge directions of ``hull`` in order, whose
    area beats the best so far by more than 1e-12; None when none does.
    """
    hull = np.asarray(hull, dtype=np.float64)
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    dirs = edges / lengths[:, None]

    best_area = float("inf")
    best = None
    for ux, uy in dirs:
        rot = np.array([[ux, uy], [-uy, ux]])
        proj = hull @ rot.T
        lo = proj.min(axis=0)
        hi = proj.max(axis=0)
        area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
        if area < best_area - 1e-12:
            best_area = area
            corners = np.array(
                [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
            )
            best = corners @ rot
    return best


def array_chain_convex_hull(points) -> np.ndarray:
    """Reference monotone chain over numpy rows.

    The earlier ``geom.convex_hull``, kept verbatim so the chain over Python
    floats can be checked bit for bit against it.
    """
    from textshape.geom import EPS, DegenerateInputError, as_points, unique_rows

    pts, _ = unique_rows(as_points(points))   # sorted by x, then y
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 distinct points")

    def half(seq):
        chain: list[np.ndarray] = []
        for p in seq:
            while len(chain) >= 2:
                u = chain[-1] - chain[-2]
                v = p - chain[-2]
                if u[0] * v[1] - u[1] * v[0] > EPS:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise DegenerateInputError("points are collinear")
    return hull


def masked_polygon_make(points):
    """Reference ``geom.Polygon.make``: the earlier classmethod body, with
    the earlier ``drop_repeats`` (a boolean mask, always) and a second
    validation in ``shoelace_area``, kept verbatim."""
    from textshape.geom import EPS, DegenerateInputError, Polygon, as_points, shoelace_area

    def drop_repeats(pts):
        if len(pts) == 0:
            return pts
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(np.abs(pts[1:] - pts[:-1]) > EPS, axis=1)
        return pts[keep]

    pts = drop_repeats(as_points(points))
    if len(pts) > 1 and np.all(np.abs(pts[0] - pts[-1]) <= EPS):
        pts = pts[:-1]   # explicit closing vertex
    if len(pts) < 3:
        raise DegenerateInputError("polygon needs at least 3 distinct vertices")
    area = shoelace_area(pts)
    if abs(area) <= EPS:
        raise DegenerateInputError("polygon has zero area")
    if area < 0:
        pts = pts[::-1].copy()
    return Polygon(pts)


def column_bounds(poly) -> tuple[float, float, float, float]:
    """Reference ``Polygon.bounds``: four column reductions, the earlier body."""
    v = poly.vertices
    return (
        float(v[:, 0].min()),
        float(v[:, 1].min()),
        float(v[:, 0].max()),
        float(v[:, 1].max()),
    )


def _one_ring_crossings(vertices, ys):
    """The earlier ``geom._row_crossings``, one ring per call, kept verbatim."""
    from textshape.geom import _succ

    x1, y1 = vertices[:, 0], vertices[:, 1]
    x2, y2 = _succ(x1), _succ(y1)
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    count = np.searchsorted(ys, np.maximum(y1, y2), side="left") - first
    edge = np.repeat(np.arange(len(vertices)), count)
    line = np.arange(len(edge)) + np.repeat(first - (np.cumsum(count) - count), count)
    xs = x1[edge] + (ys[line] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    return line, xs


def _sorted_flip_keys(vertices, origin, cell, shape):
    """The earlier ``geom._flip_keys``, one ring's sorted keys, kept verbatim."""
    from textshape.geom import as_points

    if not (cell[0] > 0 and cell[1] > 0):
        raise ValueError(f"cell sizes must be positive, got {cell}")
    ny, nx = shape
    xc = origin[0] + (np.arange(nx) + 0.5) * cell[0]
    yc = origin[1] + (np.arange(ny) + 0.5) * cell[1]
    line, xs = _one_ring_crossings(as_points(vertices), yc)
    return np.sort(line * (nx + 1) + np.searchsorted(xc, xs, side="left"))


def two_pass_polygon_iou(a, b, resolution: int = 256) -> float:
    """Reference scanline IoU: the earlier ``geom.polygon_iou``, kept
    verbatim (bounds by column, one key pass per ring, a stable argsort of
    both rings' keys)."""
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    ax0, ay0, ax1, ay1 = column_bounds(a)
    bx0, by0, bx1, by1 = column_bounds(b)
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    x1, y1 = max(ax1, bx1), max(ay1, by1)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    cell = ((x1 - x0) / resolution, (y1 - y0) / resolution)
    shape = (resolution, resolution)
    ka = _sorted_flip_keys(a.vertices, (x0, y0), cell, shape)
    kb = _sorted_flip_keys(b.vertices, (x0, y0), cell, shape)
    keys = np.concatenate([ka, kb])
    order = np.argsort(keys, kind="stable")
    in_a = order < len(ka)
    both = (np.cumsum(in_a) & np.cumsum(~in_a) & 1)[:-1].astype(bool)   # both parities odd
    inter = int(np.diff(keys[order])[both].sum())
    union = int((ka[1::2] - ka[::2]).sum() + (kb[1::2] - kb[::2]).sum()) - inter
    if union == 0:
        return 0.0
    return float(inter) / float(union)


def bbox_region_cells(poly, grid):
    """Reference region raster over the whole bounding box.

    The earlier bound of ``labels._region_cells``, kept verbatim so the
    per-row bound can be checked bit for bit against it: the center of every
    cell of the polygon's bounding box, clipped to the grid, goes through
    ``point_in_polygon``. Returns the flat indices (row * width + col) and
    (N, 2) centers of the inside cells, in raster order.
    """
    from textshape.geom import point_in_polygon

    x0, y0, x1, y1 = poly.bounds()
    c0 = max(0, int(np.floor(x0 / grid.stride - 0.5)))
    c1 = min(grid.width - 1, int(np.ceil(x1 / grid.stride - 0.5)))
    r0 = max(0, int(np.floor(y0 / grid.stride - 0.5)))
    r1 = min(grid.height - 1, int(np.ceil(y1 / grid.stride - 0.5)))
    if c1 < c0 or r1 < r0:
        return np.empty(0, dtype=np.int64), np.empty((0, 2))
    centers = grid.cell_centers(np.arange(r0, r1 + 1)[:, None], np.arange(c0, c1 + 1))
    centers = centers.reshape(-1, 2)
    inside = np.flatnonzero(point_in_polygon(centers, poly.vertices))
    rows, cols = np.divmod(inside, c1 - c0 + 1)
    return (rows + r0) * grid.width + cols + c0, centers[inside]


def edge_key_largest_component(simplices, areas) -> np.ndarray:
    """Reference adjacency for the alpha ladder's component step.

    The earlier construction of ``geom._largest_component``, kept verbatim:
    triangles are adjacent when their sorted undirected edge keys match
    pairwise. Returns the ascending indices of the component with the
    largest total area.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(simplices)
    edges = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]]
    ).astype(np.int64)
    keys = edges.min(axis=1) * (int(edges.max()) + 1) + edges.max(axis=1)
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    ts = order % n   # directed edge e belongs to triangle e mod n
    same = ks[1:] == ks[:-1]
    a, b = ts[:-1][same], ts[1:][same]
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    ncomp, comp = connected_components(graph, directed=False)
    totals = np.bincount(comp, weights=areas, minlength=ncomp)
    return np.flatnonzero(comp == int(np.argmax(totals)))


def coo_largest_component(neighbors: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Reference component step of the alpha ladder: the earlier
    ``geom._largest_component``, kept verbatim, which hands scipy the neighbor
    table in COO form, labelled as undirected. Indices of the triangle
    component with the largest total area; triangles are adjacent when the
    neighbor table links them."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(neighbors)
    t, j = np.nonzero(neighbors >= 0)
    graph = coo_matrix((np.ones(len(t)), (t, neighbors[t, j])), shape=(n, n))
    ncomp, comp = connected_components(graph, directed=False)
    totals = np.bincount(comp, weights=areas, minlength=ncomp)
    best = int(np.argmax(totals))
    return np.flatnonzero(comp == best)


def restrict_neighbors(neighbors: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The neighbor table of the ``keep`` (boolean mask) triangles, numbered
    in their order; a dropped neighbor becomes -1. Itself if none is dropped.

    The earlier ``geom._restrict``, kept verbatim as part of the restricted
    ladder oracle below."""
    if keep.all():
        return neighbors
    index = np.full(len(neighbors) + 1, -1, dtype=np.int64)   # index[-1]: no neighbor
    index[:-1][keep] = np.arange(np.count_nonzero(keep))
    return index[neighbors[keep]]


def restricted_table(points, joggle: bool = False):
    """Reference triangle table of the alpha ladder, one renumbered copy per
    filter. The earlier ``geom._delaunay_raw`` dropped the slivers (area
    <= 1e-14) from Qhull's table, kept verbatim here over the whole table
    that ``geom._delaunay_raw`` now returns: the kept simplices, their
    restricted neighbor table, circumradii and areas. (A table of slivers
    only raises DegenerateInputError in ``geom._delaunay_raw`` already.)"""
    from textshape import geom

    pts, simplices, neighbors, _, areas = geom._delaunay_raw(points, joggle)
    tris = pts[simplices]
    keep = areas > 1e-14
    return pts, simplices[keep], restrict_neighbors(neighbors, keep), geom._circumradii(tris[keep]), areas[keep]


def csr_largest_component(neighbors: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Indices of the triangle component with the largest total area;
    triangles are adjacent when the neighbor table, read as CSR rows, links them.

    The earlier ``geom._largest_component``, kept verbatim: it labels a
    restricted table, every row of which is a kept triangle."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(neighbors)
    linked = neighbors >= 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(linked, axis=1))))
    graph = csr_matrix((np.ones(indptr[-1]), neighbors[linked], indptr), shape=(n, n))
    ncomp, comp = connected_components(graph, directed=True, connection="weak")
    totals = np.bincount(comp, weights=areas, minlength=ncomp)
    best = int(np.argmax(totals))
    return np.flatnonzero(comp == best)


def restricted_boundary_edges(simplices: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tails and heads of the directed edges with no triangle across. In a CCW
    triangle the edge opposite vertex j runs from vertex j+1 to vertex j+2.

    The earlier ``geom._boundary_edges``, kept verbatim."""
    t, j = np.nonzero(neighbors < 0)
    return simplices[t, (j + 1) % 3], simplices[t, (j + 2) % 3]


def restricted_shape_from_filter(pts, simplices, neighbors, radii, areas, alpha, min_coverage):
    """Outer boundary of the alpha-filtered shape's largest component, from
    a :func:`restricted_table`: the earlier ``geom._shape_from_filter``, kept
    verbatim, which renumbers the table once per filter and again per
    component."""
    from textshape.geom import (
        AlphaShapeError, DegenerateInputError, EmptyAlphaShapeError, Polygon, _boundary_loops, _shoelace,
    )

    keep = radii <= alpha
    if not keep.any():
        raise EmptyAlphaShapeError(f"no triangle has circumradius <= {alpha}")
    kept, adjacent = simplices[keep], restrict_neighbors(neighbors, keep)
    comp = csr_largest_component(adjacent, areas[keep])
    kept, adjacent = kept[comp], adjacent[comp]
    coverage = np.count_nonzero(np.bincount(kept.ravel(), minlength=len(pts))) / len(pts)
    if coverage < min_coverage:
        raise AlphaShapeError(f"component covers {coverage:.3f} of the points")

    loops = _boundary_loops(*restricted_boundary_edges(kept, adjacent))
    # the largest loop, the first of any tie
    best = max(loops, key=lambda loop: abs(_shoelace(pts[loop])), default=None)
    if best is None:
        raise AlphaShapeError("alpha shape has no usable outer boundary")
    try:
        return Polygon.make(pts[best])
    except DegenerateInputError as exc:
        # A degenerate (e.g. zero-area) loop at this alpha is recoverable by escalating.
        raise AlphaShapeError(str(exc)) from exc


def restricted_alpha_shape_with_fallback(points, alpha: float, must_contain):
    """The alpha ladder over :func:`restricted_table` and
    :func:`restricted_shape_from_filter`: the earlier
    ``geom.alpha_shape_with_fallback``, kept verbatim."""
    from textshape.geom import (
        LADDER_DOUBLINGS, MIN_CONTAINMENT, MIN_COVERAGE, AlphaShapeError, Polygon, as_points,
        convex_hull, point_in_polygon,
    )

    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    inner = as_points(must_contain)
    if len(inner) == 0:
        raise ValueError("must_contain needs at least one point")
    pts, simplices, neighbors, radii, areas = restricted_table(points, joggle=True)
    a = alpha
    for _ in range(LADDER_DOUBLINGS + 1):
        try:
            poly = restricted_shape_from_filter(pts, simplices, neighbors, radii, areas, a, MIN_COVERAGE)
        except AlphaShapeError:
            poly = None
        if poly is not None and point_in_polygon(inner, poly.vertices).mean() >= MIN_CONTAINMENT:
            return poly
        a *= 2.0
    return Polygon.make(convex_hull(pts))


def coo_extract_instances(pos: np.ndarray, width: int, min_cells: int = 1) -> list[np.ndarray]:
    """Reference run labelling of ``detect.extract_instances``: the earlier
    function, kept verbatim, whose run graph goes to scipy in COO form and is
    labelled as undirected. 4-connected components of the positive cells, as
    intp flat indices.

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
    from scipy.sparse import coo_matrix   # loaded on first decode, not at import
    from scipy.sparse.csgraph import connected_components

    if len(pos) == 0:
        return []
    # A run starts at the first cell, after a gap and at column 0.
    starts = np.empty(len(pos), dtype=bool)
    starts[0] = True
    np.not_equal(np.diff(pos), 1, out=starts[1:])
    starts[1:] |= pos[1:] % width == 0
    first = np.flatnonzero(starts)
    length = np.diff(first, append=len(pos))
    head = pos[first]
    tail = head + length - 1
    # The runs one row down that share a column with [head, tail] are those
    # ending at or after head + width and starting at or before tail + width.
    lo = np.searchsorted(tail, head + width)
    links = np.searchsorted(head, tail + width, side="right") - lo
    n = len(head)
    src = np.repeat(np.arange(n), links)
    dst = np.arange(len(src)) + np.repeat(lo - (np.cumsum(links) - links), links)
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    # labels go out in the order of each component's lowest run
    count, run_label = connected_components(graph, directed=False)

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


def minmax_thinning(kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Reference thinning of ``detect.boundary_points``: the earlier
    ``detect._first_per_cell``, kept verbatim, which reduces the lattice
    bounds from the indices themselves. Ascending indices of the first point
    in each lattice cell.

    ``kx``, ``ky`` are the points' int64 lattice indices. One key per cell,
    ``(kx - min) * ny + (ky - min)``, is deduped through a table with an
    entry per cell of the bounding lattice when that table holds at most
    TABLE_CELLS_PER_POINT entries per point; otherwise (a small alpha makes
    the lattice unbounded) the index pairs are sorted, so the table stays
    within that bound and the key within int64.
    """
    from textshape import geom
    from textshape.detect import TABLE_CELLS_PER_POINT

    n = len(kx)
    x0, y0 = int(kx.min()), int(ky.min())
    nx, ny = int(kx.max()) - x0 + 1, int(ky.max()) - y0 + 1
    if nx * ny > TABLE_CELLS_PER_POINT * n:
        return np.sort(geom.unique_rows(np.stack([kx, ky], axis=1))[1])
    key = (kx - x0) * ny + (ky - y0)
    slot = np.full(nx * ny, n, dtype=np.int64)
    np.minimum.at(slot, key, np.arange(n, dtype=np.int64))
    return np.sort(slot[slot < n])


def twin_search_boundary(simplices) -> list[tuple[int, int]]:
    """Reference boundary of a set of CCW triangles: their directed edges
    with no reversed twin among them, sorted."""
    directed = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]]
    ).astype(np.int64)
    present = set(map(tuple, directed.tolist()))
    return sorted((a, b) for a, b in present if (b, a) not in present)


def walk_boundary_loops(tails, heads) -> list[list[int]]:
    """Reference boundary walk of the alpha ladder, before pinches were cut
    during the walk: the earlier ``geom._boundary_loops``, kept verbatim.
    Returns the raw loops, which may revisit a vertex; pass each through
    :func:`split_pinches`.
    """
    from textshape.geom import AlphaShapeError

    tails, heads = np.asarray(tails).astype(np.int64), np.asarray(heads).astype(np.int64)
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
        loop = [start]
        v = heads[i]
        while v != start:
            loop.append(v)
            j = nxt[v]
            if j == stop[v]:
                raise AlphaShapeError("boundary walk failed to close a loop")
            nxt[v] = j + 1
            v = heads[j]
        loops.append(loop)
    return loops


def split_pinches(loop: list[int]) -> list[list[int]]:
    """Reference split of a loop that revisits a vertex into simple
    sub-loops of 3 or more vertices: the earlier ``geom._split_pinches``,
    kept verbatim."""
    stack: list[int] = []
    pos: dict[int, int] = {}
    out: list[list[int]] = []
    for v in loop:
        if v in pos:
            cut = pos[v]
            sub = stack[cut:]
            if len(sub) >= 3:
                out.append(sub)
            for u in stack[cut:]:
                pos.pop(u, None)
            del stack[cut:]
        pos[v] = len(stack)
        stack.append(v)
    if len(stack) >= 3:
        out.append(stack)
    return out


def _array_digest(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())


def suite_digests(step: int = 1, sigmas=(0.0,)) -> dict:
    """SHA-256 digests of encode and decode over every step-th suite instance.

    Per instance: one hash over dtype, shape and bytes of the encoded mask,
    dist_x, dist_y and ignore_mask; and per sigma one hash over
    ``[components, rejected]`` (int64), every detection's polygon vertices
    and the scores (float64) of ``decode`` on the perfect prediction with
    ``add_distance_noise(sigma, seed=1000 + i)``, i being the suite index.
    A set's digest is the SHA-256 of its per-instance hex digests joined.
    Returns ``{"encode": hex, sigma: hex, ...}``; with step 1 these are the
    digests CHANGES.md quotes.
    """
    from textshape import detect, labels
    from textshape.synth import roundtrip_suite

    per = {"encode": [], **{s: [] for s in sigmas}}
    for i, inst in enumerate(roundtrip_suite()):
        if i % step:
            continue
        grid = labels.RasterGrid.for_image(*inst.image_size, stride=1)
        raster = labels.encode([inst.annotation], grid)
        h = hashlib.sha256()
        for plane in (raster.mask, raster.dist_x, raster.dist_y, raster.ignore_mask):
            _array_digest(h, plane)
        per["encode"].append(h.hexdigest())
        pred = detect.PredictionRaster.from_label(raster)
        for sigma in sigmas:
            diag = detect.DecodeDiagnostics()
            noisy = detect.add_distance_noise(pred, sigma, seed=1000 + i)
            dets = detect.decode(noisy, detect.DecodeConfig(), diag)
            h = hashlib.sha256()
            _array_digest(h, np.array([diag.components, diag.rejected], dtype=np.int64))
            for det in dets:
                _array_digest(h, det.polygon.vertices)
            _array_digest(h, np.array([det.score for det in dets], dtype=np.float64))
            per[sigma].append(h.hexdigest())
    return {key: hashlib.sha256("".join(hexes).encode()).hexdigest() for key, hexes in per.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
