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


def twin_search_boundary(simplices) -> list[tuple[int, int]]:
    """Reference boundary of a set of CCW triangles: their directed edges
    with no reversed twin among them, sorted."""
    directed = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]]
    ).astype(np.int64)
    present = set(map(tuple, directed.tolist()))
    return sorted((a, b) for a, b in present if (b, a) not in present)


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
