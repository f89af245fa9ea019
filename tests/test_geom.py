import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textshape import detect, geom, labels
from textshape.synth import arc_annotation, roundtrip_suite
from conftest import (
    array_chain_convex_hull,
    boundary_samples,
    column_bounds,
    masked_polygon_make,
    per_direction_min_area_rect,
    point_major_nearest_boundary,
    rasterize_oracle,
    ray_cast_inside,
    shoelace,
    two_pass_polygon_iou,
)


def circumcircle_oracle(a, b, c):
    """Independent circumcircle from the perpendicular-bisector equations."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    return (ux, uy), math.hypot(ax - ux, ay - uy)


def assert_empty_circumcircle(pts, simplices, tol=1e-7):
    pts = np.asarray(pts, dtype=float)
    for a, b, c in pts[simplices]:
        center, radius = circumcircle_oracle(a, b, c)
        d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        assert (d >= radius - tol).all(), "a point lies strictly inside a circumcircle"


class TestDelaunay:
    def test_single_right_triangle(self):
        _, simplices, _, radii, _ = geom._delaunay_raw([(0, 0), (1, 0), (0, 1)])
        assert len(simplices) == 1
        assert radii[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_unit_square_two_triangles(self):
        pts, simplices, _, radii, _ = geom._delaunay_raw([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(simplices) == 2
        for r in radii:
            assert r == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
        # Either diagonal satisfies the (tie) empty-circumcircle property.
        assert_empty_circumcircle(pts, simplices)

    def test_random_points_empty_circumcircle(self, rng):
        pts, simplices, _, _, _ = geom._delaunay_raw(rng.random((200, 2)))
        assert_empty_circumcircle(pts, simplices)

    def test_triangles_cover_convex_hull_area(self, rng):
        pts = rng.random((60, 2))
        tri_pts, simplices, _, _, _ = geom._delaunay_raw(pts)
        total = sum(abs(shoelace(t)) for t in tri_pts[simplices])
        from scipy.spatial import ConvexHull

        assert total == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    def test_duplicates_deduplicated(self):
        _, simplices, _, _, _ = geom._delaunay_raw([(0, 0), (0, 0), (1, 0), (1, 0), (0, 1)])
        assert len(simplices) == 1

    def test_too_few_points(self):
        with pytest.raises(geom.DegenerateInputError):
            geom._delaunay_raw([(0, 0), (1, 1)])

    def test_collinear_points(self):
        with pytest.raises(geom.DegenerateInputError):
            geom._delaunay_raw([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_no_degenerate_triangles_emitted(self, rng):
        pts = np.vstack([rng.random((50, 2)), [[0.5, 0.5]] * 3])
        tri_pts, simplices, _, radii, _ = geom._delaunay_raw(pts)
        for t, r in zip(tri_pts[simplices], radii):
            assert abs(shoelace(t)) > 0
            assert math.isfinite(r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_empty_circumcircle_property(self, seed):
        pts, simplices, _, _, _ = geom._delaunay_raw(np.random.default_rng(seed).random((25, 2)))
        assert_empty_circumcircle(pts, simplices)


def nearest_offset(p, poly):
    """Foot on the polygon boundary nearest to p, and the offset foot - p."""
    q = np.array([p], dtype=np.float64)
    feet, _ = geom.nearest_boundary_points(q, poly)
    return feet[0], tuple(feet[0] - q[0])


class TestNearestPoint:
    RECT = [(0, 0), (100, 0), (100, 40), (0, 40)]

    def test_interior_point_nearest_top_edge(self):
        foot, offset = nearest_offset((50, 15), self.RECT)
        assert foot == pytest.approx([50, 0])
        assert offset == pytest.approx((0, -15))

    def test_point_on_boundary(self):
        foot, offset = nearest_offset((30, 0), self.RECT)
        assert foot == pytest.approx([30, 0])
        assert offset == (0, 0)

    def test_equidistant_tie_breaks_to_smaller_y(self):
        # (50, 20) is 20 px from both the top and bottom edge; a dense
        # boundary sweep confirms the tie before asserting the break.
        samples = boundary_samples(self.RECT, 10**5)
        d = np.hypot(samples[:, 0] - 50, samples[:, 1] - 20)
        assert d.min() == pytest.approx(20, abs=1e-3)
        foot, _ = nearest_offset((50, 20), self.RECT)
        assert foot == pytest.approx([50, 0])

    def test_outside_point(self):
        foot, offset = nearest_offset((120, 20), self.RECT)
        assert foot == pytest.approx([100, 20])
        assert offset == pytest.approx((-20, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=150),
        st.floats(min_value=-50, max_value=100),
    )
    def test_distance_not_beaten_by_dense_sampling(self, px, py):
        poly = [(0, 0), (80, 10), (100, 50), (40, 70), (-10, 30)]
        _, offset = nearest_offset((px, py), poly)
        got = math.hypot(*offset)
        samples = boundary_samples(poly, 10**5)
        best = np.hypot(samples[:, 0] - px, samples[:, 1] - py).min()
        assert got <= best + 1e-6


class TestNearestBoundary:
    def test_edge_major_matches_point_major_reference(self, rng):
        cases = []
        for inst in roundtrip_suite()[::10]:
            grid = labels.RasterGrid.for_image(*inst.image_size, stride=1)
            flat, _ = labels._region_cells(labels.central_region_polygon(inst.annotation), grid)
            rows, cols = np.divmod(flat, grid.width)
            cases.append((grid.cell_centers(rows, cols), inst.annotation.closed_vertices()))
        # exact ties: on this lattice many points are equidistant from two
        # edges, and the centre (2, 2) from all four
        ticks = np.arange(-1.0, 5.0 + 1e-9, 0.25)
        lattice = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        square = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        assert [2.0, 2.0] in lattice.tolist()
        cases.append((lattice, square))
        # more queries than one 16,384-point chunk: a finer lattice of ties,
        # and random points around a curved ring
        fine = np.arange(-1.0, 5.0 + 1e-9, 1 / 32)
        cases.append((np.stack(np.meshgrid(fine, fine), axis=-1).reshape(-1, 2), square))
        ring = arc_annotation(0, 0, 120, 40, 150).closed_vertices()
        lo, hi = ring.min(axis=0) - 10, ring.max(axis=0) + 10
        cases.append((lo + rng.random((40000, 2)) * (hi - lo), ring))

        for pts, vertices in cases:
            feet, dist = geom.nearest_boundary_points(pts, vertices)
            ref_feet, ref_dist = point_major_nearest_boundary(pts, vertices)
            assert np.array_equal(feet, ref_feet)
            assert np.array_equal(dist, ref_dist)
        feet, _ = geom.nearest_boundary_points([[2.0, 2.0]], square)
        assert feet.tolist() == [[2.0, 0.0]]


def oracle_ring(kind, rng):
    """A test ring centred on the origin: convex (sorted angles on a circle),
    concave (a 16-point star) or many-vertex (a wavy 300-vertex loop)."""
    if kind == "convex":
        ang = np.sort(rng.random(12)) * 2 * np.pi
        r = np.full(12, 60.0)
    elif kind == "concave":
        ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        r = np.where(np.arange(16) % 2, 25.0, 70.0) + rng.random(16)
    else:
        ang = np.linspace(0.0, 2 * np.pi, 300, endpoint=False)
        r = 60.0 + 20.0 * np.sin(7 * ang) + rng.random(300)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


class TestCulledNearestBoundary:
    """The tile-culled search against the every-edge oracle, bit for bit."""

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e10, 1e14])
    @pytest.mark.parametrize("repeated", [False, True])
    @pytest.mark.parametrize("kind", ["convex", "concave", "many"])
    def test_matches_oracle(self, kind, repeated, offset):
        rng = np.random.default_rng([len(kind), int(repeated), int(math.log10(offset + 1))])
        ring = oracle_ring(kind, rng)
        if repeated:   # zero-length edges, one of them the closing edge
            ring = np.concatenate([ring[:1], ring[:3], ring[2:], ring[-1:], ring[:1]])
        # a 2 px lattice (exact ties on the axes) and random points, both
        # inside and outside the ring
        ticks = np.arange(-90.0, 90.0 + 1e-9, 2.0)
        lattice = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        pts = np.concatenate([lattice, rng.uniform(-90.0, 90.0, (2000, 2))])
        assert [0.0, 0.0] in lattice.tolist() and ray_cast_inside(0.0, 0.0, ring)
        assert not ray_cast_inside(-90.0, -90.0, ring)
        pts, ring = pts + offset, ring + offset

        feet, dist = geom.nearest_boundary_points(pts, ring)
        ref_feet, ref_dist = point_major_nearest_boundary(pts, ring)
        assert np.array_equal(feet, ref_feet)
        assert np.array_equal(dist, ref_dist)

    # (offset, gap): a near tie that only the margin's 1e-9 window keeps,
    # then exact ties at growing coordinates, where every bound rounds
    @pytest.mark.parametrize("offset, gap", [(0.0, 1e-8), (1 / 3, 0.0), (1e10 / 3, 0.0), (1e14 / 3, 0.0)])
    def test_tight_bound_at_tile_corners(self, offset, gap):
        # A 16 px lattice puts one point at a corner of each 16 px tile, so
        # each tile centre lies 8 px away along the diagonal. The points on
        # the line x + y = 0 lie midway between the long edges of a diagonal
        # strip, where the far edge's lower bound equals the near edge's
        # upper bound. Only the margin keeps the far edge, which wins the
        # tie when it is the lower edge (its foot has the smaller y).
        ticks = np.arange(-60, 61.0) * 16
        pts = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        _, centres, side = geom._tiles(pts[:, 0], pts[:, 1])
        assert side == geom.NEAREST_TILE and len(centres) == len(pts)
        m, lo, run = 40 + 1 / 3, -40 - 1 / 3 - gap / 2, 1100.0
        strip = np.array([[m - run, m + run], [m + run, m - run],
                          [lo + run, lo - run], [lo - run, lo + run]])
        pts, strip = pts + offset, strip + offset
        feet, dist = geom.nearest_boundary_points(pts, strip)
        ref_feet, ref_dist = point_major_nearest_boundary(pts, strip)
        assert np.array_equal(feet, ref_feet)
        assert np.array_equal(dist, ref_dist)

    def test_group_larger_than_one_chunk(self):
        # Away from its ends, every tile of this 2000 x 10 strip keeps the
        # same two edges, top and bottom, so one group spans several chunks;
        # the 0.5 px lattice puts exact ties on the midline y = 5.
        strip = np.array([[0.0, 0.0], [2000.0, 0.0], [2000.0, 10.0], [0.0, 10.0]])
        xs, ys = np.arange(0.25, 2000.0, 0.5), np.arange(0.0, 10.0 + 1e-9, 0.5)
        pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        assert len(pts) > 4 * geom._CHUNK
        feet, dist = geom.nearest_boundary_points(pts, strip)
        ref_feet, ref_dist = point_major_nearest_boundary(pts, strip)
        assert np.array_equal(feet, ref_feet)
        assert np.array_equal(dist, ref_dist)
        mid = pts[:, 1] == 5.0
        assert mid.any() and (feet[mid & (pts[:, 0] > 10) & (pts[:, 0] < 1990), 1] == 0.0).all()

    def test_empty_query_set(self):
        square = [[0, 0], [4, 0], [4, 4], [0, 4]]
        feet, dist = geom.nearest_boundary_points(np.empty((0, 2)), square)
        assert feet.shape == (0, 2) and dist.shape == (0,)

    @pytest.mark.parametrize("ends", [[[0.0, 0.0], [1e14, 0.0]], [[0.0, 0.0], [1e14, 1e14]],
                                      [[-1e308, 0.0], [1e308, 0.0]]])
    def test_far_apart_points_bound_time_and_tiles(self, ends):
        pts = np.array(ends)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])   # no product overflows
        t0 = time.perf_counter()
        feet, dist = geom.nearest_boundary_points(pts, square)
        elapsed = time.perf_counter() - t0
        ref_feet, ref_dist = point_major_nearest_boundary(pts, square)
        assert np.array_equal(feet, ref_feet) and np.array_equal(dist, ref_dist)
        assert elapsed < 1.0
        # the grid the tiles span, not only the occupied tiles, stays small
        _, centres, side = geom._tiles(pts[:, 0], pts[:, 1])
        assert len(centres) == 2
        assert np.prod(pts.max(axis=0) / side - pts.min(axis=0) / side + 1) <= 4 * len(pts)


class TestNormalize:
    def test_documented_example(self):
        pts, t = geom.normalize_points([(10, 10), (110, 10), (110, 60), (10, 60)])
        assert pts == pytest.approx(np.array([[0, 0], [1, 0], [1, 0.5], [0, 0.5]]))
        assert t.offset == pytest.approx((10, 10))
        assert t.scale == pytest.approx(1 / 100)

    def test_identity_for_unit_box(self):
        pts, t = geom.normalize_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert t.offset == pytest.approx((0, 0), abs=1e-9)
        assert t.scale == pytest.approx(1.0, abs=1e-9)

    def test_all_identical_rejected(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.normalize_points([(3, 3), (3, 3)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip(self, seed):
        pts = np.random.default_rng(seed).random((12, 2)) * 500 - 100
        if np.ptp(pts, axis=0).max() <= 0:
            return
        norm, t = geom.normalize_points(pts)
        assert norm.min() >= -1e-9 and norm.max() <= 1 + 1e-9
        assert t.invert(norm) == pytest.approx(pts, abs=1e-9)

    def test_denormalize_polygon(self):
        t = geom.NormTransform(offset=(5, 7), scale=1 / 20)
        unit = geom.Polygon.make([(0, 0), (1, 0), (1, 1), (0, 1)])
        out = t.invert(unit.vertices)
        assert out == pytest.approx(np.array([[5, 7], [25, 7], [25, 27], [5, 27]]))

    def test_denormalize_identity(self):
        t = geom.NormTransform(offset=(0, 0), scale=1.0)
        poly = geom.Polygon.make([(1, 2), (4, 2), (3, 5)])
        assert t.invert(poly.vertices) == pytest.approx(poly.vertices)


def random_ring(rng, n: int, scale: float = 100.0) -> np.ndarray:
    """Simple, mostly concave ring: n vertices at sorted random angles and
    random radii around a random center."""
    t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = rng.uniform(0.3, 1.0, n) * scale
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1) + rng.uniform(-scale, scale, 2)


def sigma1_decodes(step: int = 40) -> list:
    """Polygons decoded from every step-th suite instance at distance noise 1."""
    out = []
    for i, inst in enumerate(roundtrip_suite()[::step]):
        grid = labels.RasterGrid.for_image(*inst.image_size, stride=1)
        pred = detect.PredictionRaster.from_label(labels.encode([inst.annotation], grid))
        noisy = detect.add_distance_noise(pred, 1.0, seed=1000 + i * step)
        out += [d.polygon for d in detect.decode(noisy)]
    return out


def mask_iou(a, b, resolution: int) -> float:
    """IoU of the polygon_mask rasters of a and b on their joint-bbox grid:
    the cell counts polygon_iou must reproduce without the rasters."""
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a.bounds(), b.bounds()
    x0, y0, x1, y1 = min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    cell = ((x1 - x0) / resolution, (y1 - y0) / resolution)
    ma, mb = (geom.polygon_mask(p.vertices, (x0, y0), cell, (resolution, resolution))
              for p in (a, b))
    union = np.logical_or(ma, mb).sum()
    return float(np.logical_and(ma, mb).sum()) / float(union) if union else 0.0


def grid_edge_cases(r: int) -> list:
    """Pairs whose joint bbox is [0, r]^2, so cell centers sit at k + 0.5:
    identical, disjoint, edge-sharing and edge-touching shapes, and rings
    with every vertex on a center row and column, where crossing ties fall."""
    P = geom.Polygon.make
    c, q = r / 2 + 0.5, r / 4 + 0.5
    left = P([(0, 0), (c, 0), (c, r), (0, r)])
    rng = np.random.default_rng(r)

    def on_centers():   # 24 vertices on centers, 4 at the bbox sides' midpoints
        t = np.concatenate([rng.uniform(0.0, 2 * np.pi, 24), np.arange(4) * np.pi / 2])
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        ring = np.floor(r / 2 + rng.uniform(0.1, 0.45, (28, 1)) * r * u) + 0.5
        ring[24:] = r / 2 + r / 2 * np.round(u[24:])
        return P(ring[np.argsort(t)])

    ring = on_centers()
    pairs = [
        (ring, ring),
        (P([(0, 0), (q, 0), (q, q), (0, q)]), P([(c, c), (r, c), (r, r), (c, r)])),
        (left, P([(c, 0), (r, 0), (r, r), (c, r)])),
        (left, P([(c, q), (r, 0), (r, r), (c, r - q)])),
    ]
    return pairs + [(on_centers(), on_centers()) for _ in range(12)]


class TestMinAreaRect:
    def test_axis_aligned_rect_is_itself(self):
        poly = geom.Polygon.make([(2, 3), (12, 3), (12, 8), (2, 8)])
        rect = geom.min_area_rect(poly)
        assert rect.area == pytest.approx(poly.area, abs=1e-9)

    def test_rotation_invariant_area(self):
        base = np.array([(0, 0), (10, 0), (10, 4), (0, 4)], dtype=float)
        t = math.radians(30)
        rot = base @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        rect = geom.min_area_rect(geom.Polygon.make(rot))
        assert rect.area == pytest.approx(40.0, rel=1e-9)

    def test_random_polygon_beats_angle_sweep(self, rng):
        pts = rng.random((12, 2)) * 100
        hull = geom.convex_hull(pts)
        rect = geom.min_area_rect(geom.Polygon.make(hull))
        best = math.inf
        for deg in np.arange(0.0, 90.0, 0.1):
            t = math.radians(deg)
            rot = pts @ np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            span = rot.max(axis=0) - rot.min(axis=0)
            best = min(best, float(span[0] * span[1]))
        assert rect.area <= best + 1e-6

    def test_contains_all_vertices(self, rng):
        pts = rng.random((15, 2)) * 60
        rect = geom.min_area_rect(geom.Polygon.make(geom.convex_hull(pts)))
        feet, dist = geom.nearest_boundary_points(pts, rect.vertices)
        from textshape.geom import point_in_polygon

        inside = point_in_polygon(pts, rect.vertices)
        assert np.all(inside | (dist <= 1e-6))

    def test_area_not_above_axis_aligned_bbox(self, rng):
        for _ in range(10):
            pts = rng.random((8, 2)) * 40
            try:
                poly = geom.Polygon.make(pts)
            except geom.DegenerateInputError:
                continue
            rect = geom.min_area_rect(poly)
            span = pts.max(axis=0) - pts.min(axis=0)
            assert rect.area <= span[0] * span[1] + 1e-9

    def test_matches_per_direction_reference(self, rng):
        t = np.linspace(0.0, 2 * np.pi, 1500, endpoint=False)
        rings = [inst.annotation.polygon().vertices for inst in roundtrip_suite()]
        rings += [random_ring(rng, n) for n in rng.integers(3, 41, 3000)]
        rings.append(np.stack([300 * np.cos(t), 80 * np.sin(t)], axis=1))   # several products
        for v in rings:
            want = geom.Polygon.make(per_direction_min_area_rect(geom.convex_hull(v)))
            assert np.array_equal(geom.min_area_rect(v).vertices, want.vertices)

    def test_collinear_input_raises(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.min_area_rect(np.array([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0), (2.0, 2.0)]))


class TestPolygonIoU:
    def test_identical_polygons(self):
        poly = geom.Polygon.make([(0, 0), (10, 0), (13, 6), (2, 9)])
        assert geom.polygon_iou(poly, poly, 512) >= 0.99

    def test_half_overlapping_unit_squares(self):
        a = geom.Polygon.make([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = geom.Polygon.make([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
        assert geom.polygon_iou(a, b, 512) == pytest.approx(1 / 3, abs=0.02)

    def test_disjoint_squares(self):
        a = geom.Polygon.make([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = geom.Polygon.make([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert geom.polygon_iou(a, b, 256) == 0.0

    def test_symmetry(self, rng):
        a = geom.Polygon.make(geom.convex_hull(rng.random((8, 2)) * 10))
        b = geom.Polygon.make(geom.convex_hull(rng.random((8, 2)) * 10 + 2))
        assert geom.polygon_iou(a, b, 256) == geom.polygon_iou(b, a, 256)

    def test_resolution_stability(self, rng):
        for _ in range(5):
            a = geom.Polygon.make(geom.convex_hull(rng.random((10, 2)) * 10))
            b = geom.Polygon.make(geom.convex_hull(rng.random((10, 2)) * 10 + 1))
            lo = geom.polygon_iou(a, b, 256)
            hi = geom.polygon_iou(a, b, 512)
            assert abs(hi - lo) < 0.02

    def test_resolution_floor(self):
        poly = geom.Polygon.make([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(ValueError):
            geom.polygon_iou(poly, poly, 32)

    def test_matches_scalar_oracle_on_concave_polygon(self):
        concave = geom.Polygon.make([(0, 0), (4, 0), (4, 4), (2, 4), (2, 2), (0, 2)])
        square = geom.Polygon.make([(1, 1), (5, 1), (5, 5), (1, 5)])
        got = geom.polygon_iou(concave, square, 512)
        n = 512
        ma = rasterize_oracle(concave.vertices, 0, 0, 5, 5, n)
        mb = rasterize_oracle(square.vertices, 0, 0, 5, 5, n)
        oracle = np.logical_and(ma, mb).sum() / np.logical_or(ma, mb).sum()
        assert got == pytest.approx(float(oracle), abs=0.02)

    @pytest.mark.parametrize("r", [64, 256, 512])
    def test_span_count_equals_raster_iou(self, rng, r):
        shapes = [inst.annotation.polygon() for inst in roundtrip_suite()[r // 64 :: 16]]
        shapes += [geom.Polygon.make(random_ring(rng, n)) for n in rng.integers(3, 30, 12)]
        decodes = sigma1_decodes()
        shapes += decodes + [geom.min_area_rect(p) for p in decodes]
        jitter = [p.vertices + rng.normal(0, 0.005, p.vertices.shape) * np.ptp(p.vertices)
                  for p in shapes]
        pairs = [(p, geom.Polygon.make(v)) for p, v in zip(shapes, jitter)]
        pairs += list(zip(shapes, shapes[1:] + shapes[:1]))
        pairs += [(p, geom.min_area_rect(p)) for p in shapes]
        pairs += grid_edge_cases(r)
        nonzero = 0
        for a, b in pairs:
            want = mask_iou(a, b, r)
            assert geom.polygon_iou(a, b, r) == want
            nonzero += want > 0
        assert nonzero > len(pairs) // 2

    def test_memory_linear_in_resolution(self):
        a = geom.Polygon.make([(0, 0), (10, 0), (13, 6), (2, 9)])
        b = geom.Polygon.make([(1, 1), (11, 0), (12, 7), (3, 9)])
        tracemalloc.start()
        try:
            geom.polygon_iou(a, b, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def decoded_arc_outline() -> np.ndarray:
    """Dense concave ring shaped like a decoded arc.

    Two concentric arcs sampled about every 0.6 px and snapped to the 0.5 px
    lattice, as decoded boundary points are: thousands of vertices, many
    of them sharing a y, and many horizontal edges.
    """
    t = np.linspace(-1.3, 1.3, 1800)
    outer = np.stack([300 + 400 * np.sin(t), 450 - 400 * np.cos(t)], axis=1)
    inner = np.stack([300 + 300 * np.sin(t[::-2]), 450 - 300 * np.cos(t[::-2])], axis=1)
    return geom.Polygon.make(np.round(np.vstack([outer, inner]) * 2) / 2).vertices


class TestPointInPolygon:
    def test_matches_ray_cast_on_dense_concave_outline(self, rng):
        v = decoded_arc_outline()
        assert len(v) > 2000
        nxt = np.roll(v, -1, axis=0)
        flat = np.flatnonzero(v[:, 1] == nxt[:, 1])
        assert len(flat) > 100
        x0, x1 = v[:, 0].min() - 2, v[:, 0].max() + 2
        row_ys = rng.choice(v[:, 1], 2)
        queries = np.concatenate([
            v[rng.choice(len(v), 40)],                                  # vertices
            (v[flat] + nxt[flat])[rng.choice(len(flat), 40)] / 2,       # on horizontal edges
            np.stack([rng.uniform(x0, x1, 40), rng.choice(v[:, 1], 40)], axis=1),
            # grid-aligned rows of cell centers at vertex heights
            np.stack(np.meshgrid(np.arange(x0, x1, 16.0) + 0.5, row_ys), axis=-1).reshape(-1, 2),
        ])
        got = geom.point_in_polygon(queries, v)
        want = np.array([ray_cast_inside(x, y, v) for x, y in queries])
        assert 0 < want.sum() < len(want)
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def left_crossing_parity(v, origin, cell, shape):
        """Per-edge parity of the crossings at or left of each cell center."""
        xc = origin[0] + (np.arange(shape[1]) + 0.5) * cell[0]
        yc = origin[1] + (np.arange(shape[0]) + 0.5) * cell[1]
        gx, gy = np.meshgrid(xc, yc)
        want = np.zeros(shape, dtype=bool)
        for (xi, yi), (xj, yj) in zip(v, np.roll(v, -1, axis=0)):
            cond = (yi > gy) != (yj > gy)
            with np.errstate(divide="ignore", invalid="ignore"):
                want ^= cond & (xi + (gy - yi) * (xj - xi) / (yj - yi) <= gx)
        return want

    def test_mask_matches_per_edge_parity_on_dense_concave_outline(self):
        # polygon_mask counts crossings at or left of each cell center.
        # Centers on the 0.5 px lattice sit exactly on vertices and
        # horizontal edges, where the two sides of a tie would differ.
        v = decoded_arc_outline()
        origin, cell, shape = (-0.25, 40.25), (0.5, 0.5), (30, 1700)
        want = self.left_crossing_parity(v, origin, cell, shape)
        got = geom.polygon_mask(v, origin, cell, shape)
        assert 0 < want.sum() < want.size
        np.testing.assert_array_equal(got, want)

    def test_mask_parity_survives_more_than_255_crossings_in_a_cell(self):
        # A 400-tooth saw in x in (0, 1) puts about 400 crossings into each
        # of two cells per row, so a running count of the crossings at or
        # left of each center would wrap in 8 bits; the sorted keys' runs
        # keep parity at any count.
        k = np.arange(400)
        teeth = np.stack([1 - (k + 0.5) / 400, np.ones(400), 1 - (k + 1) / 400, np.full(400, 10.0)], 1)
        v = np.vstack([[(0, 0), (30, 0), (30, 10), (1, 10)], teeth.reshape(-1, 2)])
        origin, cell, shape = (-1.0, -0.5), (0.5, 0.75), (16, 64)
        y = origin[1] + 7.5 * cell[1]
        a, b = v, np.roll(v, -1, axis=0)
        hit = (a[:, 1] > y) != (b[:, 1] > y)
        xs = a[hit, 0] + (y - a[hit, 1]) * (b[hit, 0] - a[hit, 0]) / (b[hit, 1] - a[hit, 1])
        assert np.histogram(xs, bins=origin[0] + np.arange(65) * cell[0])[0].max() > 255
        want = self.left_crossing_parity(v, origin, cell, shape)
        got = geom.polygon_mask(v, origin, cell, shape)
        assert 0 < want.sum() < want.size
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["free", "half_lattice", "self_crossing"])
    def test_cells_match_per_edge_parity_on_random_rings(self, rng, kind):
        """polygon_cells against the per-edge oracle: the same cells, in
        raster order, on arbitrary origins and cells."""
        total = 0
        for _ in range(60):
            n = int(rng.integers(3, 12))
            if kind == "half_lattice":
                # origin (0, 0), unit cells: vertices and horizontal edges fall
                # on center rows and columns, where tie sides differ
                v = rng.integers(-2, 24, size=(n, 2)) / 2.0
                origin, cell = (0.0, 0.0), (1.0, 1.0)
            else:
                v = rng.uniform(-3.0, 15.0, size=(n, 2))
                origin, cell = tuple(rng.uniform(-2.0, 2.0, 2)), tuple(rng.uniform(0.3, 1.7, 2))
            if kind == "self_crossing":
                v = np.vstack([v, v[::-1] + rng.normal(0.0, 2.0, size=(n, 2))])
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            rows, cols = geom.polygon_cells(v, origin, cell, shape)
            want = self.left_crossing_parity(v, origin, cell, shape)
            np.testing.assert_array_equal(np.ravel_multi_index((rows, cols), shape),
                                          np.flatnonzero(want))
            total += len(rows)
        assert total > 0

    @pytest.mark.parametrize("cell", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)])
    def test_mask_rejects_non_positive_cell(self, cell):
        with pytest.raises(ValueError):
            geom.polygon_mask([(0, 0), (4, 0), (4, 4), (0, 4)], (0.0, 0.0), cell, (4, 4))

    def test_kernels_share_one_x_tie_side(self):
        # Every raster keeps a center in [x_left, x_right) of its row's run:
        # on the left crossing inside, on the right one outside.
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        ties = np.array([(0.0, 2.0), (4.0, 2.0)])
        assert geom.point_in_polygon(ties, square).tolist() == [True, False]
        row = geom.polygon_mask(square, (-0.5, 1.5), (1.0, 1.0), (1, 5))   # centers x 0..4, y 2
        assert row[0, [0, 4]].tolist() == [True, False]
        # the region raster's centers lie on a half-cell lattice: shift the square
        shifted = geom.Polygon.make(np.array(square) + 0.5)
        _, centers = labels._region_cells(shifted, labels.RasterGrid(6, 5, 1))
        assert centers[centers[:, 1] == 2.5, 0].tolist() == [0.5, 1.5, 2.5, 3.5]

    def test_empty_queries(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert geom.point_in_polygon(np.empty((0, 2)), square).shape == (0,)


def test_unique_rows_matches_numpy_unique(rng):
    # + 0.0 turns -0.0 into 0.0; np.unique keeps either of the two
    rows = np.round(rng.normal(size=(500, 2)) * 3) / 2 + 0.0
    rows = np.vstack([rows, rows[::7]])
    got, first = geom.unique_rows(rows)
    want, want_first = np.unique(rows, axis=0, return_index=True)
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(first, want_first)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("shape", [(), (1,), (2,)])
def test_succ_equals_roll(rng, n, shape):
    a = rng.normal(size=(n, *shape))
    got = geom._succ(a)
    want = np.roll(a, -1, axis=0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPolygonType:
    def test_orientation_normalized_to_ccw(self):
        cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
        poly = geom.Polygon.make(cw)
        assert shoelace(poly.vertices) > 0

    def test_zero_area_rejected(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.Polygon.make([(0, 0), (1, 1), (2, 2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            geom.Polygon.make([(0, 0), (1, math.nan), (1, 1)])

    def test_is_simple(self):
        assert geom.is_simple([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert not geom.is_simple([(0, 0), (2, 2), (2, 0), (0, 2)])


@st.composite
def tie_rings(draw, min_size=1):
    """Vertex rings that reach the kernels' tie rules: points of a small
    lattice, plus points bent off a lattice edge by a cross product within a
    few EPS of the turn test's threshold, repeated vertices (exact or within
    EPS), an optional closing vertex, either orientation, at offsets up to
    1e14. Most such rings self-intersect."""
    lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(np.array).map(np.float64)
    pts = draw(st.lists(lattice, min_size=min_size, max_size=16))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pts) - 1))
        p, d = pts[i], pts[(i + 1) % len(pts)] - pts[i]
        if d.any():   # bent so that cross(q - p, bent - p) = c * EPS, up to rounding
            t = draw(st.sampled_from([0.25, 0.5, 0.75]))
            c = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -1.0, -3.0]))
            pts.insert(i + 1, p + t * d + c * geom.EPS * np.array([-d[1], d[0]]) / (d @ d))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(pts) - 1))
        pts.insert(i, pts[i] + draw(st.sampled_from([0.0, 0.5e-9, 1e-9, 2e-9])))
    if draw(st.booleans()):
        pts.append(pts[0] + draw(st.sampled_from([0.0, 0.5e-9, 1e-9])))   # closing vertex
    scale = draw(st.sampled_from([1.0, 1.0, 0.25, 3.7]))
    offset = draw(st.sampled_from([0.0, 0.0, 1e3, -7.5e6, 1e14, -1e14]))
    ring = np.array(pts) * scale + offset
    return ring[::-1] if draw(st.booleans()) else ring


def outcome(fn, *args):
    """Bit-level outcome of a kernel: the dtype, shape and bytes of its
    array, float or polygon, or the type and message of the error it raised."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    out = np.asarray(out.vertices if isinstance(out, geom.Polygon) else out)
    return out.dtype.str, out.shape, out.tobytes()


class TestKernelsMatchOracles:
    """The hull, Polygon.make, bounds and IoU kernels give the same bits,
    and raise the same errors, as the earlier numpy-call versions kept in
    conftest."""

    @settings(max_examples=400, deadline=None)
    @given(tie_rings())
    @example(np.array([(0, 0), (1, 0), (2, 1e-9), (1, 5)]))     # turns of exactly EPS, on the
    @example(np.array([(2, 0), (1, 0), (0, -1e-9), (1, -5)]))   # lower and upper chain: not kept
    def test_convex_hull(self, ring):
        assert outcome(geom.convex_hull, ring) == outcome(array_chain_convex_hull, ring)

    @settings(max_examples=400, deadline=None)
    @given(tie_rings())
    @example(np.array([(0, 0), (0, 1e-9), (4, 0), (4, 4), (1e-9, 0)]))   # a repeat and a closing
    @example(np.array([(1e-9, 0), (4, 4), (4, 0), (0, 1e-9), (0, 0)]))   # vertex EPS away: dropped
    def test_polygon_make_and_bounds(self, ring):
        got = outcome(geom.Polygon.make, ring)
        assert got == outcome(masked_polygon_make, ring)
        if got[0] == "<f8":
            poly = geom.Polygon.make(ring)
            assert np.array(poly.bounds()).tobytes() == np.array(column_bounds(poly)).tobytes()
            assert poly.vertices is not ring and not np.shares_memory(poly.vertices, ring)

    @settings(max_examples=400, deadline=None)
    @given(tie_rings(min_size=3), tie_rings(min_size=3),
           st.sampled_from(["any", "self", "shared_edge", "touching", "lattice_shift"]),
           st.sampled_from([64, 256, 512]))
    def test_polygon_iou(self, ring, other, pair, r):
        try:
            a = geom.Polygon.make(ring)
            lo, hi = a.vertices.min(axis=0), a.vertices.max(axis=0)
            b = geom.Polygon.make({
                "any": other,
                "self": a.vertices,
                "shared_edge": a.vertices * (-1.0, 1.0) + (2 * hi[0], 0.0),   # mirrored about x = max
                "touching": a.vertices + (0.0, hi[1] - lo[1]),
                "lattice_shift": a.vertices + (1.0, 0.0),
            }[pair])
        except geom.DegenerateInputError:
            return
        assert outcome(geom.polygon_iou, a, b, r) == outcome(two_pass_polygon_iou, a, b, r)
        assert outcome(geom.polygon_iou, b, a, r) == outcome(two_pass_polygon_iou, b, a, r)

    def test_hull_of_200k_points_under_a_second(self):
        # the numpy-scalar chain took 1.0-1.5 s here; the float chain ~0.25 s
        pts = np.random.default_rng(0).random((200_000, 2)) * 1000
        t0 = time.perf_counter()
        hull = geom.convex_hull(pts)
        assert time.perf_counter() - t0 < 1.0
        assert len(hull) >= 3 and geom.Polygon.make(hull).area > 0.99 * 1000**2
